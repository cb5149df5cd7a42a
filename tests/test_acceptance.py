"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
report.  Time limits are asserted with the budgets the criteria state; all
rank and count comparisons are exact, tolerance zero.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tropmoduli import (
    INF,
    StableModelDescription,
    TropicalPolynomial,
    WeightedMarkedGraph,
    build_chain_complex,
    complex_dimension,
    enumerate_types,
    link_cells,
    tropicalize_model,
)
from tropmoduli.homology import homology_of_chain
from tropmoduli.plane import _curve_by_bisectors, _curve_by_duality

from oracles import are_isomorphic, brute_force_catalog, exhaustive_edge_permutations
from test_plane import random_poly


def report(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {description}")
    assert ok, f"criterion {number} failed: {description}"


# chain complexes are expensive for the largest cases; build each once and
# share across criteria 3, 4, and 5
_cache = {}


def computed(g, n):
    if (g, n) not in _cache:
        start = time.monotonic()
        chain = build_chain_complex(link_cells(g, n))
        profile = homology_of_chain(chain)
        _cache[(g, n)] = {
            "chain": chain,
            "profile": profile,
            "seconds": time.monotonic() - start,
        }
    return _cache[(g, n)]


FIG2_GENUS_TWO = [
    WeightedMarkedGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ()),  # theta
    WeightedMarkedGraph((0, 0), ((0, 0), (0, 1), (1, 1)), ()),  # dumbbell
    WeightedMarkedGraph((0,), ((0, 0), (0, 0)), ()),  # figure eight
    WeightedMarkedGraph((0, 1), ((0, 0), (0, 1)), ()),  # loop and bridge
    WeightedMarkedGraph((1,), ((0, 0),), ()),  # weighted loop
    WeightedMarkedGraph((1, 1), ((0, 1),), ()),  # two weight-1 vertices
    WeightedMarkedGraph((2,), (), ()),  # weight-2 point
]

FIVE_GENUS_ONE_TWO_MARKS = [
    WeightedMarkedGraph((1,), (), (0, 0)),
    WeightedMarkedGraph((0,), ((0, 0),), (0, 0)),
    WeightedMarkedGraph((0, 1), ((0, 1),), (0, 0)),
    WeightedMarkedGraph((0, 0), ((0, 1), (0, 1)), (0, 1)),
    WeightedMarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1)),
]


def test_criterion_1_enumeration_counts():
    start = time.monotonic()
    catalog_20 = enumerate_types(2, 0)
    catalog_12 = enumerate_types(1, 2)
    elapsed = time.monotonic() - start
    ok = catalog_20.count == 7 and catalog_12.count == 5
    ok = ok and {t.canonical_key() for t in catalog_20.strata} == {
        g.canonical_key() for g in FIG2_GENUS_TWO
    }
    ok = ok and {t.canonical_key() for t in catalog_12.strata} == {
        g.canonical_key() for g in FIVE_GENUS_ONE_TWO_MARKS
    }
    ok = ok and elapsed < 1.0
    report(1, f"7 + 5 types matched graph-by-graph in {elapsed:.3f}s (< 1s)", ok)


@pytest.mark.slow
def test_criterion_2_purity():
    start = time.monotonic()
    cases = [
        (g, n)
        for g in range(0, 4)
        for n in range(0, 10)
        if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 6
    ]
    ok = True
    for g, n in cases:
        ok = ok and complex_dimension(g, n) == 3 * g - 4 + n
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    report(
        2,
        f"purity on {len(cases)} pairs with 3g-3+n <= 6 in {elapsed:.1f}s (< 5min)",
        ok,
    )


def test_criterion_3_genus_one_homology():
    expected_rank = {1: None, 2: None, 3: 1, 4: 3, 5: 12, 6: 60}
    ok = True
    for n in range(1, 7):
        profile = computed(1, n)["profile"]
        nonzero = {p: b for p, b in profile.betti_map().items() if b != 0}
        if expected_rank[n] is None:
            ok = ok and nonzero == {}
        else:
            ok = ok and nonzero == {n - 1: expected_rank[n]}
    small = sum(_cache[(1, n)]["seconds"] for n in range(1, 6))
    big = _cache[(1, 6)]["seconds"]
    ok = ok and small < 60 and big < 1800
    report(
        3,
        f"genus 1 ranks (n-1)!/2 for n=3..6, zero for n=1,2; "
        f"n<=5 in {small:.1f}s (< 1min), n=6 in {big:.1f}s (< 30min)",
        ok,
    )


def test_criterion_4_genus_two_homology():
    upper = {0: 0, 1: 0, 2: 1, 3: 0, 4: 3}  # rank in degree n+2
    lower = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}  # rank in degree n+1
    ok = True
    for n in range(0, 5):
        profile = computed(2, n)["profile"]
        expected = {}
        if upper[n]:
            expected[n + 2] = upper[n]
        if lower[n]:
            expected[n + 1] = lower[n]
        nonzero = {p: b for p, b in profile.betti_map().items() if b != 0}
        ok = ok and nonzero == expected
    small = sum(_cache[(2, n)]["seconds"] for n in range(0, 4))
    big = _cache[(2, 4)]["seconds"]
    ok = ok and small < 300 and big < 3600
    report(
        4,
        f"genus 2 table ranks for n=0..4; n<=3 in {small:.1f}s (< 5min), "
        f"n=4 in {big:.1f}s (< 1h)",
        ok,
    )


def test_criterion_5_chain_complex_sanity():
    ok = True
    for g in (1, 2):
        for n in range(0 if g == 2 else 1, 7 if g == 1 else 5):
            chain = computed(g, n)["chain"]
            profile = computed(g, n)["profile"]
            for p in range(1, chain.top_degree() + 1):
                lower = chain.boundaries[p - 1]
                for col in chain.boundaries[p]:
                    acc = {}
                    for mid, c1 in col:
                        for row, c2 in lower[mid]:
                            acc[row] = acc.get(row, 0) + c1 * c2
                    ok = ok and all(v == 0 for v in acc.values())
            from_ranks = sum(
                (1 if (i - 1) % 2 == 0 else -1) * c
                for i, c in enumerate(profile.chain_ranks)
            )
            from_betti = sum(
                (1 if (i - 1) % 2 == 0 else -1) * b
                for i, b in enumerate(profile.reduced_betti)
            )
            ok = ok and from_ranks == from_betti == profile.euler_reduced
    report(5, "boundary squares to zero and rank alternating sums agree", ok)


@pytest.mark.slow
def test_criterion_6_oracle_equivalence():
    from oracles import _invariant_key

    start = time.monotonic()
    cases = [
        (g, n)
        for g in range(0, 3)
        for n in range(0, 8)
        if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4
    ]
    ok = True
    catalogs = {}
    for g, n in cases:
        catalog = enumerate_types(g, n)
        catalogs[(g, n)] = catalog
        oracle = brute_force_catalog(g, n)
        ok = ok and len(oracle) == catalog.count
        buckets = {}
        for t in catalog.strata:
            key = _invariant_key(t.weights, t.edges, t.markings)
            buckets.setdefault(key, []).append(t)
        for weights, edges, markings in oracle:
            bucket = buckets.get(_invariant_key(weights, edges, markings), [])
            matches = [
                t
                for t in bucket
                if are_isomorphic(
                    (weights, edges, markings), (t.weights, t.edges, t.markings)
                )
            ]
            ok = ok and len(matches) == 1
    # automorphism orders against exhaustive bijection search, <= 5 edges
    for catalog in list(catalogs.values()) + [enumerate_types(2, 2)]:
        for t in catalog.strata:
            if t.num_edges > 5:
                continue
            oracle_perms = exhaustive_edge_permutations(
                t.weights, t.edges, t.markings
            )
            ok = ok and t.automorphisms().order == len(oracle_perms)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600
    report(
        6,
        f"brute-force agreement on {len(cases)} catalogs and automorphism "
        f"orders in {elapsed:.1f}s (< 10min)",
        ok,
    )


def test_criterion_7_plane_tropicalization():
    start = time.monotonic()
    f = TropicalPolynomial.from_terms([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)])
    curve = _curve_by_bisectors(f)
    ok = curve == _curve_by_duality(f)
    ok = ok and curve.vertices == ((Fraction(0), Fraction(0)),)
    ok = ok and {r.direction for r in curve.rays} == {(1, 0), (0, 1), (-1, -1)}
    ok = ok and curve.segments == ()
    rng = random.Random(20260810)
    for _ in range(200):
        poly = random_poly(rng, rng.randint(2, 8), planar=False)
        ok = ok and _curve_by_bisectors(poly) == _curve_by_duality(poly)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(
        7,
        f"tropical line exact and 200 random cross-validations in "
        f"{elapsed:.1f}s (< 1min)",
        ok,
    )


def test_criterion_8_abstract_tropicalization():
    model = StableModelDescription(
        components=((0, 0), (1, 0)),
        nodes=((0, 1, Fraction(5)),),
        markings=(0, 0, 1, 1),
    )
    metric = tropicalize_model(model)
    expected = WeightedMarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
    ok = metric.graph == expected and metric.lengths == (Fraction(5),)
    ok = ok and not metric.is_extended()
    extended = tropicalize_model(
        StableModelDescription(
            components=((0, 0), (1, 0)),
            nodes=((0, 1, INF),),
            markings=(0, 0, 1, 1),
        )
    )
    ok = ok and extended.is_extended() and extended.graph == expected
    report(8, "conic model with length 5 matches; infinite node flagged extended", ok)


def test_criterion_9_cli_determinism(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
                "nodes": [{"a": 0, "b": 1, "length": "5"}],
                "markings": [0, 0, 1, 1],
            }
        )
    )
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(
        json.dumps(
            {
                "terms": [
                    {"i": 1, "j": 0, "val": "0"},
                    {"i": 0, "j": 1, "val": "0"},
                    {"i": 0, "j": 0, "val": "1/2"},
                ]
            }
        )
    )
    commands = [
        ["enumerate", "--genus", "1", "--markings", "3", "--format", "json"],
        ["enumerate", "--genus", "2", "--markings", "0", "--format", "csv"],
        ["complex", "--genus", "1", "--markings", "2", "--format", "json"],
        ["complex", "--genus", "2", "--markings", "0", "--format", "dot"],
        ["homology", "--genus", "2", "--markings", "1", "--format", "json"],
        ["tropicalize-model", str(model_path), "--format", "json"],
        ["tropicalize-plane", str(poly_path)],
    ]
    ok = True
    for command in commands:
        outputs = set()
        for threads in ("1", "4", "8"):
            for _ in range(3):
                result = subprocess.run(
                    [sys.executable, "-m", "tropmoduli.cli"]
                    + command
                    + ["--threads", threads],
                    capture_output=True,
                )
                ok = ok and result.returncode == 0
                outputs.add(result.stdout)
        ok = ok and len(outputs) == 1
    report(9, "CLI output byte-identical over 3 runs at threads 1, 4, 8", ok)


@pytest.mark.skipif(
    not os.environ.get("TROPMODULI_EXTENDED"),
    reason="opt-in long-running job; set TROPMODULI_EXTENDED=1",
)
def test_extended_genus_two_five_marks():
    profile = computed(2, 5)["profile"]
    nonzero = {p: b for p, b in profile.betti_map().items() if b != 0}
    report("extended", "genus 2, n=5 ranks 15 and 5", nonzero == {7: 15, 6: 5})
