"""The benchmark harness in perfbench/ runs against the current src/.

perfbench/tracer.py wraps functions of the program by name, for example
parallel.parallel_map, enumeration.has_expansion and
WeightedMarkedGraph.contract.  A change to src/ that drops or renames one of
them fails here, not first in a benchmark run.  Its self-test also traces
`homology --genus 1 --markings 3` and reads the chain ranks off the result
of homology.build_chain_complex, as the summed lengths of
generators_by_degree; the orbit route keeps that contract without labelling
the cells it only counts (test_orbit_route_keeps_the_tracer_contract).  And
it traces `enumerate --genus 2 --markings 0 --threads 2` and counts two
pooled calls of parallel.parallel_map: enumerate_types labels the S_n-orbits
of its one sweep, and still maps each orbit level through parallel_map with
the thread budget; `enumerate --format csv` counts orbits and passes no
thread budget (test_enumerate_json_keeps_the_pooled_calls).  The tracer
counts graphs.canonical_raw by rebinding that name in every tropmoduli
module, so the sweep must call it through the module-level name
(test_traced_counts_match_an_in_process_count).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tropmoduli import cli, complexes, enumeration, graphs, homology, reduced_homology

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


def test_orbit_route_keeps_the_tracer_contract(monkeypatch):
    chains, labelled = [], []
    build, label = homology.build_chain_complex, complexes._label

    def traced_build(link):
        chains.append(build(link))
        return chains[-1]

    def recorded_label(orbits):
        labelled.extend(key for key, _ in orbits)
        return label(orbits)

    monkeypatch.setattr(homology, "build_chain_complex", traced_build)
    monkeypatch.setattr(complexes, "_label", recorded_label)
    assert reduced_homology(1, 3).betti(2) == 1
    (chain,) = chains
    assert sum(map(len, chain.generators_by_degree)) == 5 + 7 + 4
    # only the basis is labelled: weight 0, no loop, no repeated edge
    assert labelled and all(homology._simple_weight_zero(*key) for key in labelled)
    assert sum(map(len, chain.basis_by_degree)) < 16


def test_enumerate_json_keeps_the_pooled_calls(monkeypatch, capsys):
    # the self-test's count: f-vector (1, 2, 2, 2), so the levels with one
    # and two edges are mapped with two items each and threads = 2
    calls = []
    pool_map = enumeration.parallel_map

    def recorded(fn, items, threads=1):
        items = list(items)
        calls.append((len(items), threads))
        return pool_map(fn, items, threads=threads)

    monkeypatch.setattr(enumeration, "parallel_map", recorded)
    assert cli.dispatch(["enumerate", "--genus", "2", "--markings", "0", "--threads", "2"]) == 0
    assert '"count": 7' in capsys.readouterr().out
    assert sum(items > 1 and threads == 2 for items, threads in calls) == 2


def test_traced_counts_match_an_in_process_count(monkeypatch, capsys, tmp_path):
    # the in-process count profiles every call of the function, whatever
    # name it is reached through; the tracer sees only the module-level names
    args = ["complex", "--genus", "3", "--markings", "1"]
    report = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(report), *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(report.read_text())["counts"]

    calls = 0
    code = graphs._canonical_raw.__code__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    catalogs = []
    build = complexes.enumerate_types

    def recorded(*args, **kwargs):
        catalogs.append(build(*args, **kwargs))
        return catalogs[-1]

    monkeypatch.setattr(complexes, "enumerate_types", recorded)
    sys.setprofile(profile)
    try:
        code_exit = cli.dispatch(args)
    finally:
        sys.setprofile(None)
    assert code_exit == 0
    assert capsys.readouterr().out.encode() == proc.stdout
    (catalog,) = catalogs
    assert calls > 0
    assert (traced["graphs.canonical_raw.calls"], traced["enumeration.types"]) == (
        calls,
        catalog.count,
    )
