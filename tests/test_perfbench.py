"""The benchmark harness in perfbench/ runs against the current src/.

perfbench/tracer.py wraps functions of the program by name, for example
parallel.parallel_map, enumeration.has_expansion and
WeightedMarkedGraph.contract.  A change to src/ that drops or renames one of
them fails here, not first in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
