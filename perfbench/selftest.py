"""Fast self-test of the benchmark harness on tiny cases (a few seconds).

    python3 perfbench/selftest.py

Checks that traced spans nest and that their self times sum to the root
span, that traced counts equal known values and repeat exactly between fresh
processes, and that a nonzero exit, a wrong published value and output bytes
that differ from the recorded digest each count as a failed run.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import run

# Rewrites the CLI's output before printing it: argv[1] is a Python
# expression in `text`, the rest are the CLI arguments.
CORRUPT = (
    "import contextlib, io, sys\n"
    "from tropmoduli import cli\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    "    code = cli.dispatch(sys.argv[2:])\n"
    "text = buf.getvalue()\n"
    "sys.stdout.write(eval(sys.argv[1]))\n"
    "sys.exit(code)\n"
)

HOMOLOGY_1_3 = ("homology", "--genus", "1", "--markings", "3")
COMPLEX_2_0 = ("complex", "--genus", "2", "--markings", "0")


def traced(launcher: run.Launcher, args) -> dict:
    report_path = launcher.workdir / "trace.json"
    argv = [sys.executable, str(run.TRACER), str(report_path), *args]
    sample = launcher.launch(argv, launcher.workdir / "stdout")
    assert sample.failure is None, sample.failure
    return json.loads(report_path.read_text(encoding="utf-8"))


def check_spans(report: dict) -> None:
    spans = report["spans"]
    assert spans[0][0] == "process" and spans[0][1] == -1
    assert all(parent >= 0 for _, parent, *_ in spans[1:]), "one root span"
    for name, parent, start, end, _ in spans[1:]:
        p_start, p_end = spans[parent][2], spans[parent][3]
        assert p_start <= start <= end <= p_end, f"{name} is not inside {spans[parent][0]}"
    own = run.self_times(spans)
    assert all(o >= -1e-9 for o in own), "negative self time"
    root = spans[0][3] - spans[0][2]
    assert abs(sum(own) - root) < 1e-6, (sum(own), root)


def check_counts(launcher: run.Launcher) -> None:
    first = traced(launcher, COMPLEX_2_0)
    check_spans(first)
    counts = first["counts"]
    # the seven stable genus-2 types; the edgeless one is not a link cell
    assert counts["enumeration.types"] == 7, counts
    assert counts["complexes.cells"] == 6, counts
    assert counts["graphs.edge_group_order_max"] == 6, counts  # theta graph, S_3
    assert counts["graphs.edge_group_elements"] == 1 + 1 + 1 + 2 + 2 + 6, counts
    assert counts.get("parallel.pooled_calls", 0) == 0, "one thread bypasses the pool"
    assert "homology.pivots" not in counts, "complex runs no rank"
    second = traced(launcher, COMPLEX_2_0)
    assert {k: v for k, v in second["counts"].items() if not k.endswith(".s")} == {
        k: v for k, v in counts.items() if not k.endswith(".s")
    }, "counts differ between fresh processes"

    pooled = traced(launcher, ("enumerate", "--genus", "2", "--markings", "0", "--threads", "2"))
    # f-vector (1, 2, 2, 2): the levels with 1 and 2 edges expand on the pool
    assert pooled["counts"]["parallel.pooled_calls"] == 2, pooled["counts"]

    report = traced(launcher, HOMOLOGY_1_3)
    check_spans(report)
    counts = report["counts"]
    assert counts["homology.generators"] == 5 + 7 + 4, counts
    names = {s[0] for s in report["spans"]}
    assert {"cli", "homology.build_chain_complex", "homology.sparse_integer_rank"} <= names
    metrics = run.layer_metrics(report, run.Sample(1.0, 0.0, 0, 100), 0.5)
    assert metrics["trace.overhead_s"][0] == 0.5
    assert 0 < metrics["trace.accounted_share"][0] <= 1


def check_failures(launcher: run.Launcher) -> None:
    clean = launcher.launch(run.cli_argv(HOMOLOGY_1_3), launcher.workdir / "out")
    assert clean.failure is None, clean.failure
    digest = hashlib.sha256((launcher.workdir / "out").read_bytes()).hexdigest()
    workload = run.Workload(
        "selftest", HOMOLOGY_1_3, digest, run._homology_check([5, 7, 4], [0, 0, 1], 1)
    )
    assert launcher.run_checked(workload, run.cli_argv(workload.args)).failure is None

    def corrupted(expression: str) -> run.Sample:
        argv = [sys.executable, "-c", CORRUPT, expression, *HOMOLOGY_1_3]
        return launcher.run_checked(workload, argv)

    assert corrupted("text").failure is None, "the rewriting wrapper itself is faithful"
    wrong_value = corrupted("text.replace('\"euler\": 1', '\"euler\": -1')")
    assert "chain_ranks, betti, euler" in wrong_value.failure, wrong_value.failure
    extra_byte = corrupted("text + ' '")
    assert "digest" in extra_byte.failure, extra_byte.failure
    truncated = corrupted("text[:20]")
    assert "unreadable" in truncated.failure, truncated.failure

    unstable = run.Workload("unstable", ("homology", "--genus", "0", "--markings", "2"), digest, workload.check)
    refused = launcher.run_checked(unstable, run.cli_argv(unstable.args))
    assert refused.exit == 1 and refused.failure.startswith("exit 1"), refused.failure


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
        launcher = run.Launcher(Path(tmp), started)
        check_counts(launcher)
        check_failures(launcher)
    print(f"perfbench self-test passed in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
