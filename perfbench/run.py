"""Benchmark of the tropmoduli CLI: one command per workload, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its src/.  The
client is closed-loop: one command at a time, from one process.  Commands
repeat until the next one would end past S seconds of command time (at
least one runs), so a run lasts S seconds plus the set-up probes.

--trace 0 reports the end-to-end metrics: the median wall time and peak RSS
of the commands, and the median cold start (import tropmoduli.cli and build
its parser) over SETUP_PROBES fresh interpreters.  --trace 1 runs the
command once under perfbench/tracer.py and at least once untraced, and
reports per-layer metrics; trace.overhead_s is the traced wall time minus
the untraced median.  Every output is checked against published values and
against the digest of the seed's output; a run that exits nonzero or fails
a check counts in "failed".  The seed sets only the order in which set-up
probes and traced runs interleave with the timed commands; the inputs are
fixed.  The last line of stdout is the result as JSON; the line before it
records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_PROBES = 20
PROBE_CHUNK = 5
SETUP_CODE = "import tropmoduli.cli as cli; cli.build_parser()"
#: No command starts after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 150.0
#: A command still running this long after the run started is killed.
KILL_AFTER_S = 170.0


# -- output checks ------------------------------------------------------------


def _homology_check(chain_ranks, betti, euler):
    def check(data: bytes) -> str | None:
        out = json.loads(data)
        got = (out["chain_ranks"], out["betti"], out["euler"])
        if got != (chain_ranks, betti, euler):
            return f"chain_ranks, betti, euler = {got}"
        return None

    return check


def _complex_check(link_dimension, cells, odd, faces, order_max):
    def check(data: bytes) -> str | None:
        out = json.loads(data)
        got = (
            out["link_dimension"],
            out["num_cells"],
            len(out["cells"]),
            sum(c["has_odd_element"] for c in out["cells"]),
            len(out["faces"]),
            max(c["edge_group_order"] for c in out["cells"]),
        )
        if got != (link_dimension, cells, cells, odd, faces, order_max):
            return f"dimension, cells, cells listed, odd, faces, max order = {got}"
        return None

    return check


def _f_vector_check(total, length):
    def check(data: bytes) -> str | None:
        lines = data.decode("ascii").splitlines()
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        if lines[0] != "edges,count" or (sum(counts), len(counts)) != (total, length):
            return f"f-vector {counts}"
        return None

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    digest: str  # sha256 of the CLI's stdout at the seed commit
    check: Callable[[bytes], "str | None"]  # a failure reason, or None


# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in [
        # Genus 0, n = 7: Betti (n-2)! = 120 in degree n-4, chain ranks from
        # C(7,2)+C(7,3) = 56 up to the (2n-5)!! = 945 trivalent trees.
        Workload(
            "homology-g0n7",
            ("homology", "--genus", "0", "--markings", "7"),
            "391e3c455e2ce8a0355dbb6aeb48073c10c4729d5f2de5a724af196fa3c31a92",
            _homology_check([56, 490, 1260, 945], [0, 0, 0, 120], -120),
        ),
        # Genus 2, n = 4: the genus-2 top-weight table gives rank 1 in degree
        # n+1 and 3 in degree n+2; chain ranks are the seed's.
        Workload(
            "homology-g2n4",
            ("homology", "--genus", "2", "--markings", "4"),
            "2db21e1c69ab3586fb1da689a8995e81f958e73afa172e597c8aa361dee04f45",
            _homology_check([20, 117, 361, 701, 871, 638, 207], [0, 0, 0, 0, 0, 1, 3], 2),
        ),
        # Genus 4, n = 1: the link is pure of dimension 3g-4+n = 9; cell, odd
        # cell, face and largest edge-group counts are the seed's.
        Workload(
            "complex-g4n1",
            ("complex", "--genus", "4", "--markings", "1"),
            "2f152dad13be5f132523d2122557509316bb731e7ef67056eb9d2ec264f44438",
            _complex_check(9, 2665, 2086, 17835, 120),
        ),
        # 5608 stable (2, 4) types, with 0 .. 3g-3+n = 7 edges.
        Workload(
            "enumerate-g2n4-t2",
            ("enumerate", "--genus", "2", "--markings", "4", "--format", "csv", "--threads", "2"),
            "dc8c4acbaae5b70be3288976d70047ed21ef8aceff9f098f45e90e5571f4869c",
            _f_vector_check(5608, 8),
        ),
    ]
}


# -- launching ----------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    exit: int
    output_bytes: int = 0
    failure: str | None = None


def child_env() -> dict[str, str]:
    """The caller's environment without settings that would steer the CLI."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("TROPMODULI_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Starts one child at a time and reaps it with its own rusage."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = child_env()

    def launch(self, argv: list[str], stdout_path: Path) -> Sample:
        limit = max(1.0, KILL_AFTER_S - (time.perf_counter() - self.started))
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:  # interrupted: stop the child before leaving
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_maxrss / 1024, proc.returncode)
        if proc.returncode != 0:
            tail = (self.workdir / "stderr").read_bytes()[-300:].decode(errors="replace")
            sample.failure = f"exit {proc.returncode}: {tail.strip()}"
        return sample

    def probe_setup(self) -> float:
        sample = self.launch([sys.executable, "-c", SETUP_CODE], self.workdir / "probe")
        if sample.failure:
            raise RuntimeError(f"set-up probe failed: {sample.failure}")
        return sample.wall_s

    def run_checked(self, workload: Workload, argv: list[str]) -> Sample:
        """Run argv, whose stdout must be the workload's output."""
        path = self.workdir / "stdout"
        sample = self.launch(argv, path)
        data = path.read_bytes()
        sample.output_bytes = len(data)
        if sample.failure is None:
            sample.failure = verify(workload, data)
        return sample


def verify(workload: Workload, data: bytes) -> str | None:
    """Failure reason for the workload's output, or None if it is correct."""
    try:
        reason = workload.check(data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is None and hashlib.sha256(data).hexdigest() != workload.digest:
        reason = "output bytes differ from the seed's digest"
    return reason


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "tropmoduli.cli", *args]


# -- measurement ----------------------------------------------------------------


def timed_commands(launcher, workload, seconds, between=None):
    """Closed loop: repeat the command until the next would overrun the window."""
    samples: list[Sample] = []
    busy = 0.0
    while True:
        if between is not None:
            between()
        sample = launcher.run_checked(workload, cli_argv(workload.args))
        samples.append(sample)
        busy += sample.wall_s
        longest = max(s.wall_s for s in samples)
        if busy + longest > seconds or time.perf_counter() - launcher.started > HARD_STOP_S:
            return samples


def measure_end_to_end(launcher, workload, seconds, rng):
    launcher.probe_setup()  # untimed: writes bytecode caches, warms the page cache
    setup: list[float] = []

    def maybe_probe():
        if len(setup) < SETUP_PROBES and rng.random() < 0.5:
            setup.extend(launcher.probe_setup() for _ in range(PROBE_CHUNK))

    samples = timed_commands(launcher, workload, seconds, maybe_probe)
    while len(setup) < SETUP_PROBES:
        setup.append(launcher.probe_setup())
    ok = [s for s in samples if s.failure is None] or samples
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in ok), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in ok), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = {"wall_s": [s.wall_s for s in samples], "setup_s": setup}
    return samples, metrics, raw


SPAN_METRICS = [
    "enumeration.enumerate_types",
    "complexes.build_poset",
    "complexes.link_cells",
    "complexes.complex_dimension",
    "homology.chain_complex_within_bounds",
    "homology.build_chain_complex",
    "homology.homology_of_chain",
    "cli",
]
COUNT_METRICS = [
    ("enumeration.types", "count"),
    ("enumeration.widest_level", "count"),
    ("enumeration.has_expansion.calls", "count"),
    ("enumeration.has_expansion.s", "s"),
    ("complexes.covers", "count"),
    ("complexes.cells", "count"),
    ("complexes.killed_cells", "count"),
    ("graphs.canonical_key.calls", "count"),
    ("graphs.canonical_key.s", "s"),
    ("graphs.canonical_certificate.calls", "count"),
    ("graphs.canonical_raw.calls", "count"),
    ("graphs.canonical_raw.s", "s"),
    ("graphs.contract.calls", "count"),
    ("graphs.automorphisms.calls", "count"),
    ("graphs.automorphisms.s", "s"),
    ("graphs.edge_group_elements", "count"),
    ("graphs.edge_group_order_max", "count"),
    ("homology.generators", "count"),
    ("homology.nonzeros", "count"),
    ("homology.pivots", "count"),
    ("homology.largest_matrix_columns", "count"),
    ("parallel.parallel_map.calls", "count"),
    ("parallel.parallel_map.items", "count"),
    ("parallel.pooled_calls", "count"),
]
RSS_LAYERS = ["enumeration", "complexes", "homology"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(report: dict, traced: Sample, untraced_wall: float) -> dict:
    spans, counts = report["spans"], report["counts"]
    own = self_times(spans)
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.self_s"] = (sum((o for s, o in zip(spans, own) if s[0] == name), 0.0), "s")
    rank = [s for s in spans if s[0] == "homology.sparse_integer_rank"]
    metrics["homology.sparse_integer_rank.s"] = (sum((s[3] - s[2] for s in rank), 0.0), "s")
    for name, unit in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), unit)
    killed = counts.get("complexes.killed_cells", 0)
    repeated = counts.get("complexes.killed_repeated_edge_cells", 0)
    metrics["complexes.killed_repeated_edge_share"] = (repeated / killed if killed else 0.0, "ratio")
    for layer in RSS_LAYERS:
        ends = [s[4] for s in spans if s[0].startswith(layer + ".")]
        metrics[f"{layer}.rss_mb"] = (max(ends, default=0.0), "MB")
    metrics["cli.output_bytes"] = (traced.output_bytes, "B")
    root = spans[0]
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    metrics["trace.accounted_share"] = ((root[3] - root[2]) / traced.wall_s, "ratio")
    return metrics


def measure_per_layer(launcher, workload, seconds, rng):
    report_path = launcher.workdir / "trace.json"
    traced_argv = [sys.executable, str(TRACER), str(report_path), *workload.args]
    traced_first = rng.random() < 0.5
    if traced_first:
        traced = launcher.run_checked(workload, traced_argv)
    samples = timed_commands(launcher, workload, seconds)
    if not traced_first:
        traced = launcher.run_checked(workload, traced_argv)
    ok = [s for s in samples if s.failure is None] or samples
    untraced_wall = statistics.median(s.wall_s for s in ok)
    metrics = {}
    if traced.failure is None:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        metrics = layer_metrics(report, traced, untraced_wall)
        for (name, _, start, end, rss), own in zip(report["spans"], self_times(report["spans"])):
            print(f"span {name:40s} {end - start:9.4f} s  self {own:9.4f} s  rss {rss:7.1f} MB", file=sys.stderr)
    raw = {"wall_s": [s.wall_s for s in samples], "traced_wall_s": traced.wall_s}
    return samples + [traced], metrics, raw


# -- environment and result ---------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "tropmoduli" / "cli.py").is_file():
        print(f"error: no tropmoduli sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        launcher = Launcher(Path(tmp), started)
        measure = measure_per_layer if args.trace else measure_end_to_end
        samples, metrics, raw = measure(launcher, workload, args.seconds, rng)
    env["loadavg_end"] = list(os.getloadavg())
    failed = [s for s in samples if s.failure is not None]
    for s in failed:
        print(f"failed run of {workload.name}: {s.failure}", file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "failed_share": len(failed) / len(samples),
        "samples": raw,
    }
    print(json.dumps(info))
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
