import functools
import itertools
import json
import math
import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropmoduli import GraphError, WeightedMarkedGraph, enumerate_types, enumeration
from tropmoduli.graphs import (
    _canonical_raw,
    _contract_raw,
    _encode_raw,
    _minimal_leaves,
    _start_colors,
    _start_sorted,
)

from oracles import (
    _reference_expand_raw,
    exhaustive_edge_permutations,
    reference_canonical_raw,
    reference_minimal_leaves,
    reference_search_kind,
)


def relabel(graph, rng):
    """Random isomorphic copy: permute vertices, shuffle edge order."""
    nv = graph.num_vertices
    sigma = list(range(nv))
    rng.shuffle(sigma)
    edges = [
        tuple(sorted((sigma[u], sigma[v]))) for u, v in graph.edges
    ]
    rng.shuffle(edges)
    markings = tuple(sigma[m] for m in graph.markings)
    weights = [0] * nv
    for v, w in enumerate(graph.weights):
        weights[sigma[v]] = w
    return WeightedMarkedGraph(tuple(weights), tuple(edges), markings)


class TestGenus:
    def test_theta(self, theta):
        assert theta.genus() == 2

    def test_weight_two_vertex(self):
        assert WeightedMarkedGraph((2,), (), ()).genus() == 2

    def test_trivial_vertex(self):
        assert WeightedMarkedGraph((0,), (), ()).genus() == 0

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            WeightedMarkedGraph((0, 0), (), ())

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            WeightedMarkedGraph((-1,), (), ())

    def test_bad_marking_rejected(self):
        with pytest.raises(GraphError):
            WeightedMarkedGraph((0,), (), (3,))


class TestStability:
    def test_bare_genus_one_vertex(self):
        assert not WeightedMarkedGraph((1,), (), ()).is_stable()

    def test_dumbbell(self, dumbbell):
        assert dumbbell.is_stable()

    def test_bare_loop(self):
        # 2*0 - 2 + 2 + 0 = 0, not > 0
        assert not WeightedMarkedGraph((0,), ((0, 0),), ()).is_stable()


class TestContraction:
    def test_dumbbell_bridge_gives_figure_eight(self, dumbbell, figure_eight):
        bridge = dumbbell.edges.index((0, 1))
        contracted = dumbbell.contract(bridge)
        assert contracted.canonical_key() == figure_eight.canonical_key()

    def test_figure_eight_loop_gives_weighted_loop(self, figure_eight):
        expected = WeightedMarkedGraph((1,), ((0, 0),), ())
        assert figure_eight.contract(0).canonical_key() == expected.canonical_key()

    def test_weighted_loop_gives_weight_two(self):
        start = WeightedMarkedGraph((1,), ((0, 0),), ())
        expected = WeightedMarkedGraph((2,), (), ())
        assert start.contract(0).canonical_key() == expected.canonical_key()

    def test_unknown_edge(self, theta):
        with pytest.raises(GraphError):
            theta.contract(3)

    def test_genus_and_markings_preserved(self):
        rng = random.Random(7)
        for graph in enumerate_types(1, 3).strata:
            for e in range(graph.num_edges):
                image = graph.contract(e)
                assert image.genus() == graph.genus()
                assert image.num_markings == graph.num_markings

    def test_stability_closed_under_contraction(self):
        for g, n in [(2, 0), (1, 2), (1, 3), (2, 1)]:
            for graph in enumerate_types(g, n).strata:
                for e in range(graph.num_edges):
                    assert graph.contract(e).is_stable()


class TestCanonicalForm:
    def test_relabeling_invariance_examples(self, theta, dumbbell):
        rng = random.Random(42)
        for graph in [theta, dumbbell]:
            cert = graph.canonical_certificate()
            for _ in range(100):
                copy = relabel(graph, rng)
                assert copy.canonical_certificate().encoding == cert.encoding

    def test_theta_vs_dumbbell_distinct(self, theta, dumbbell):
        assert (
            theta.canonical_certificate().encoding
            != dumbbell.canonical_certificate().encoding
        )

    def test_marked_loop_half_edge_labelings(self):
        # the loop's two half-edges can be listed either way round
        a = WeightedMarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1))
        b = WeightedMarkedGraph((0, 0), ((1, 1), (0, 1)), (0, 0))
        assert a.canonical_certificate().encoding == b.canonical_certificate().encoding

    def test_relabeling_invariance_catalog_sweep(self):
        rng = random.Random(20260810)
        for g, n in [(2, 0), (1, 2), (1, 3), (2, 1), (0, 4), (1, 4), (2, 2)]:
            for graph in enumerate_types(g, n).strata:
                key = graph.canonical_key()
                for _ in range(100):
                    assert relabel(graph, rng).canonical_key() == key

    @pytest.mark.skipif(
        not os.environ.get("TROPMODULI_EXTENDED"),
        reason="full sweep is slow; set TROPMODULI_EXTENDED=1",
    )
    def test_relabeling_invariance_full_sweep(self):
        # every catalog with g <= 2 and n <= 4, 100 random relabelings each
        rng = random.Random(1)
        for g in range(0, 3):
            for n in range(0, 5):
                if 2 * g - 2 + n <= 0:
                    continue
                for graph in enumerate_types(g, n).strata:
                    key = graph.canonical_key()
                    for _ in range(100):
                        assert relabel(graph, rng).canonical_key() == key

    def test_canonical_representative_is_fixed_point(self):
        for graph in enumerate_types(2, 1).strata:
            rep = graph.canonical()
            assert rep.canonical_key() == graph.canonical_key()
            assert rep.canonical().edges == rep.edges

    def test_certificate_relabelings_are_bijections(self, dumbbell):
        cert = dumbbell.canonical_certificate()
        assert sorted(cert.vertex_relabeling) == list(range(2))
        assert sorted(cert.edge_relabeling) == list(range(3))


class TestCanonicalOracle:
    """The labeling's shortcuts return the full search's key, and as
    positions (old vertex -> canonical vertex) the inverse of its vertex
    order; boundary signs and certificate relabelings read the positions."""

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (2, 3), (3, 0), (4, 1)])
    def test_key_and_order_match_full_search(self, g, n):
        kinds = set()
        for graph in enumerate_types(g, n).strata:
            triple = (graph.weights, graph.edges, graph.markings)
            candidates = _reference_expand_raw(*triple) + [
                _contract_raw(*triple, i) for i in range(graph.num_edges)
            ]
            for cand in candidates:
                key, order = reference_canonical_raw(*cand)
                # sorting vertices by their place in the order inverts it
                pos = tuple(sorted(range(len(order)), key=order.__getitem__))
                assert _canonical_raw(*cand) == (key, pos), cand
                if len(cand[0]) > 1:
                    kinds.add(reference_search_kind(*cand))
        assert "start" in kinds
        if (g, n) == (4, 1):
            assert kinds == {"start", "refined", "search"}

    @pytest.mark.parametrize("g,n", [(4, 1), (2, 4)])
    def test_every_minimal_leaf_matches_the_reference_search(self, monkeypatch, g, n):
        # the searches of the enumeration (the sweep's expansions, unlabelled
        # and with their start colors, and for (2, 4) the labellings of the
        # orbits), then the catalog keys and their contractions
        searches = []
        group = enumeration._canonical_group

        def recorded(*args, **kwargs):
            searches.append((args[:3], kwargs))
            return group(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_canonical_group", recorded)
        keys = enumerate_types(g, n).keys
        searches += [(key, {}) for key in keys]
        searches += [(_contract_raw(*key, e), {}) for key in keys for e in range(len(key[1]))]
        most = 0
        for triple, kwargs in searches:
            expected = reference_minimal_leaves(*triple, kwargs.get("unlabelled", False))
            assert _minimal_leaves(*triple, **kwargs) == expected, (triple, kwargs)
            most = max(most, len(expected[1]))
        assert any(kwargs.get("unlabelled") for _, kwargs in searches)
        assert most > 2

    @pytest.mark.parametrize("g,n", [(2, 3), (4, 1)])
    def test_positions_realize_the_key(self, g, n):
        for graph in enumerate_types(g, n).strata:
            triple = (graph.weights, graph.edges, graph.markings)
            for cand in [triple] + [
                _contract_raw(*triple, i) for i in range(graph.num_edges)
            ]:
                key, pos = _canonical_raw(*cand)
                assert _encode_raw(*cand, pos) == key, cand
                cert = WeightedMarkedGraph(*cand).canonical_certificate()
                assert cert.vertex_relabeling == pos, cand


@functools.cache
def _strata(g, n):
    return enumerate_types(g, n).strata


@st.composite
def relabeled_types(draw):
    """A catalog type and a copy with vertices and edge order permuted."""
    g, n = draw(st.sampled_from([(2, 3), (1, 4), (3, 0)]))
    graph = draw(st.sampled_from(_strata(g, n)))
    sigma = draw(st.permutations(range(graph.num_vertices)))
    edges = [tuple(sorted((sigma[u], sigma[v]))) for u, v in graph.edges]
    edges = draw(st.permutations(edges))
    weights = [0] * graph.num_vertices
    for v, w in enumerate(graph.weights):
        weights[sigma[v]] = w
    markings = tuple(sigma[m] for m in graph.markings)
    return graph, WeightedMarkedGraph(tuple(weights), tuple(edges), markings)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relabeled_types())
def test_relabeling_keeps_key_and_encoding(pair):
    graph, copy = pair
    assert copy.canonical_key() == graph.canonical_key()
    assert (
        copy.canonical_certificate().encoding
        == graph.canonical_certificate().encoding
    )


@st.composite
def stable_graphs(draw):
    """A connected stable graph in an arbitrary labeling: a random spanning
    tree plus extra edges, loops and parallel edges included."""
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    for _ in range(draw(st.integers(0, 4))):
        edges.append(tuple(sorted((draw(vertex), draw(vertex)))))
    weights = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    markings = draw(st.lists(vertex, max_size=4))
    graph = WeightedMarkedGraph(
        tuple(weights), tuple(draw(st.permutations(edges))), tuple(markings)
    )
    assume(graph.is_stable())
    return graph


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stable_graphs())
def test_contraction_keeps_genus_markings_and_stability(graph):
    for e in range(graph.num_edges):
        image = graph.contract(e)
        assert image.genus() == graph.genus()
        assert image.num_markings == graph.num_markings
        assert image.is_stable()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stable_graphs())
def test_start_sorted_triple_keeps_the_key(graph):
    # the covers' memo key: an isomorphic relabelling, and the canonical key
    # itself when the start colors are pairwise distinct
    triple = (graph.weights, graph.edges, graph.markings)
    for t in [triple] + [_contract_raw(*triple, e) for e in range(graph.num_edges)]:
        key = _canonical_raw(*t)[0]
        relabelled = _start_sorted(*t)
        assert _canonical_raw(*relabelled)[0] == key, t
        start = _start_colors(*t)
        if len(set(start)) == len(start):
            assert relabelled == key, t


def random_graph(rng):
    """Random small connected multigraph, stable or not."""
    while True:
        nv = rng.randint(1, 4)
        ne = rng.randint(0, 4)
        edges = tuple(
            tuple(sorted((rng.randrange(nv), rng.randrange(nv))))
            for _ in range(ne)
        )
        weights = tuple(rng.randint(0, 2) for _ in range(nv))
        markings = tuple(rng.randrange(nv) for _ in range(rng.randint(0, 3)))
        try:
            return WeightedMarkedGraph(weights, edges, markings)
        except GraphError:
            continue


class TestCanonicalSeparation:
    def test_keys_agree_exactly_with_naive_isomorphism(self):
        from oracles import are_isomorphic

        rng = random.Random(77)
        graphs = [random_graph(rng) for _ in range(60)]
        for a in graphs:
            for b in graphs:
                same_key = a.canonical_key() == b.canonical_key()
                naive = are_isomorphic(
                    (a.weights, a.edges, a.markings),
                    (b.weights, b.edges, b.markings),
                )
                assert same_key == naive

    def test_automorphism_orders_on_random_graphs(self):
        rng = random.Random(78)
        for _ in range(80):
            graph = random_graph(rng)
            oracle = exhaustive_edge_permutations(
                graph.weights, graph.edges, graph.markings
            )
            group = graph.automorphisms()
            assert group.order == len(oracle)
            assert group.has_odd_element == any(_sign(p) == -1 for p in oracle)


class TestAutomorphisms:
    def test_theta_full_symmetric_group(self, theta):
        group = theta.automorphisms()
        assert group.order == 6
        assert group.has_odd_element

    def test_figure_eight_swap(self, figure_eight):
        group = figure_eight.automorphisms()
        assert group.order == 2
        assert group.has_odd_element
        oracle = exhaustive_edge_permutations(
            figure_eight.weights, figure_eight.edges, figure_eight.markings
        )
        assert oracle == {(0, 1), (1, 0)}  # swapping the two loops
        assert group.order == len(oracle)

    def test_markings_pin_vertices(self, split_marked_pair):
        group = split_marked_pair.automorphisms()
        assert group.order == 1
        assert not group.has_odd_element

    def test_agreement_with_exhaustive_search(self):
        cases = [(2, 0), (1, 2), (2, 1), (1, 3), (2, 2), (3, 0), (4, 0), (3, 1), (3, 2)]
        for g, n in cases:
            for graph in enumerate_types(g, n).strata:
                oracle = exhaustive_edge_permutations(
                    graph.weights, graph.edges, graph.markings
                )
                group = graph.automorphisms()
                assert group.order == len(oracle)
                assert group.has_odd_element == any(
                    _sign(p) == -1 for p in oracle
                )

    def test_edgeless_graph(self):
        group = WeightedMarkedGraph((2,), (), ()).automorphisms()
        assert group.order == 1
        assert not group.has_odd_element

    # closed forms far beyond the exhaustive oracle: 12! is 479,001,600
    @pytest.mark.parametrize("k", range(1, 13))
    def test_parallel_edges_and_loops_in_closed_form(self, k):
        # the vertex swap of a banana fixes every edge, so only k! remains
        for markings in [(), (0,)]:
            group = WeightedMarkedGraph((0, 0), ((0, 1),) * k, markings).automorphisms()
            assert group.order == math.factorial(k)
            assert group.has_odd_element == (k >= 2)
        group = WeightedMarkedGraph((0,), ((0, 0),) * k, ()).automorphisms()
        assert group.order == math.factorial(k)
        assert group.has_odd_element == (k >= 2)
        # a loop at each end makes the vertex swap act: it swaps the loops
        ends = ((0, 0), (1, 1)) + ((0, 1),) * k
        group = WeightedMarkedGraph((0, 0), ends, ()).automorphisms()
        assert group.order == 2 * math.factorial(k)
        assert group.has_odd_element
        group = WeightedMarkedGraph((0, 0), ends, (0,)).automorphisms()
        assert group.order == math.factorial(k)
        assert group.has_odd_element == (k >= 2)

    def test_theta_group_is_every_edge_permutation(self, theta):
        group = theta.automorphisms()
        oracle = exhaustive_edge_permutations(theta.weights, theta.edges, theta.markings)
        assert oracle == set(itertools.permutations(range(3)))
        assert group.order == len(oracle) == 6
        assert group.has_odd_element == any(_sign(p) == -1 for p in oracle)


def _sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestSizeBounds:
    def test_edge_and_vertex_bounds(self):
        # stability forces |E| <= 3g-3+n and |V| <= 2g-2+n
        for g, n in [(2, 0), (1, 2), (1, 4), (2, 2), (0, 5)]:
            for graph in enumerate_types(g, n).strata:
                assert graph.num_edges <= 3 * g - 3 + n
                assert graph.num_vertices <= 2 * g - 2 + n


class TestSerialization:
    def test_json_round_trip(self, dumbbell, split_marked_pair):
        for graph in [dumbbell, split_marked_pair]:
            blob = json.dumps(graph.to_json_dict())
            back = WeightedMarkedGraph.from_json_dict(json.loads(blob))
            assert back == graph

    def test_json_arbitrary_ids(self):
        data = {
            "vertices": [{"id": 10, "weight": 1}, {"id": 3, "weight": 0}],
            "edges": [[10, 3]],
            "markings": [3, 3],
        }
        graph = WeightedMarkedGraph.from_json_dict(data)
        assert graph.weights == (1, 0)
        assert graph.markings == (1, 1)

    def test_json_unknown_vertex(self):
        with pytest.raises(GraphError):
            WeightedMarkedGraph.from_json_dict(
                {"vertices": [{"id": 0, "weight": 0}], "edges": [[0, 1]], "markings": []}
            )

    @pytest.mark.parametrize("weight", [1.5, True, "2"])
    def test_json_weight_must_be_integer(self, weight):
        with pytest.raises(GraphError, match="weight must be an integer"):
            WeightedMarkedGraph.from_json_dict(
                {"vertices": [{"id": 0, "weight": weight}], "edges": [], "markings": [0, 0, 0]}
            )

    @pytest.mark.parametrize(
        "vertices, edges, markings",
        [
            ([{"id": 0}], [], []),  # no weight
            ([[5]], [], []),  # entry is not an object
            ([{"id": [0], "weight": 0}], [], []),  # unhashable id
            ([{"id": 0, "weight": 1}], [5], []),  # edge is not a pair
            (5, [], []),  # vertices is not a list
            ([{"id": "a", "weight": 0}], [], "aaa"),  # markings is a string
        ],
        ids=[
            "missing-weight", "list-entry", "list-id", "edge-not-a-pair",
            "vertices-not-a-list", "markings-string",
        ],
    )
    def test_json_malformed_entries(self, vertices, edges, markings):
        with pytest.raises(GraphError):
            WeightedMarkedGraph.from_json_dict(
                {"vertices": vertices, "edges": edges, "markings": markings}
            )

    def test_dot_output(self, split_marked_pair):
        dot = split_marked_pair.to_dot()
        assert dot.startswith("graph G {")
        assert "v0 -- v1;" in dot
        assert 'label="3"' in dot  # marked ray 3
