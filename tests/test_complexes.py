import re
from collections import Counter

import pytest

from tropmoduli import (
    InternalConsistencyError,
    TypeCatalog,
    WeightedMarkedGraph,
    build_poset,
    complex_dimension,
    enumerate_types,
)
from tropmoduli import complexes, enumeration
from tropmoduli.complexes import hasse_dot
from tropmoduli.graphs import _canonical_raw, _start_colors

from oracles import is_odd, maximal_types, reference_covers


def _cover_calls(monkeypatch, g, n):
    """The covers of build_poset(g, n), the contractions and the
    canonicalizations they take."""
    calls = {"_contract_raw": 0, "_canonical_raw": 0}
    for name in calls:
        original = getattr(complexes, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(complexes, name, wrapper)
    return len(build_poset(g, n).covers), calls["_contract_raw"], calls["_canonical_raw"]


class TestFacePoset:
    def test_poset_is_the_enumerated_catalog(self):
        poset = build_poset(2, 3)
        catalog = enumerate_types(2, 3)
        assert isinstance(poset, TypeCatalog)
        assert (poset.g, poset.n, poset.keys, poset.f_vector) == (
            catalog.g,
            catalog.n,
            catalog.keys,
            catalog.f_vector,
        )
        assert poset.cells[0].graph is poset.strata[1]

    def test_two_maximal_types_for_genus_one_two_marks(self):
        # the two shaded top cones: 2-cycle with split marks, loop + marked bridge
        poset = build_poset(1, 2)
        maximal = [poset.strata[i] for i in maximal_types(poset)]
        assert len(maximal) == 2
        expected = {
            WeightedMarkedGraph((0, 0), ((0, 1), (0, 1)), (0, 1)).canonical_key(),
            WeightedMarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1)).canonical_key(),
        }
        assert {t.canonical_key() for t in maximal} == expected
        assert all(t.num_edges == 2 for t in maximal)

    def test_theta_and_dumbbell_maximal_for_genus_two(self, theta, dumbbell):
        poset = build_poset(2, 0)
        maximal = {poset.strata[i].canonical_key() for i in maximal_types(poset)}
        assert maximal == {theta.canonical_key(), dumbbell.canonical_key()}

    def test_point_poset(self):
        poset = build_poset(0, 3)
        assert len(poset.strata) == 1
        assert poset.covers == ()
        assert maximal_types(poset) == (0,)

    def test_covers_drop_edge_count_by_one(self):
        poset = build_poset(2, 1)
        for parent, child, edge in poset.covers:
            pt, ct = poset.strata[parent], poset.strata[child]
            assert pt.num_edges == ct.num_edges + 1
            assert 0 <= edge < pt.num_edges

    def test_unique_minimum(self):
        poset = build_poset(1, 2)
        zero_edge = [i for i, t in enumerate(poset.strata) if t.num_edges == 0]
        assert len(zero_edge) == 1
        # every other type reaches it through covers
        reachable = set(zero_edge)
        changed = True
        while changed:
            changed = False
            for parent, child, _ in poset.covers:
                if child in reachable and parent not in reachable:
                    reachable.add(parent)
                    changed = True
        assert reachable == set(range(len(poset.strata)))

    def test_covers_canonicalize_each_distinct_contraction_once(self, monkeypatch):
        # (2, 4): one edge per orbit of the parent's group on its endpoint
        # pairs is contracted, 24,239 of the 27,575 (type, edge) pairs, and
        # the distinct contracted triples within an edge count are
        # canonicalized once, 15,620 of them; contracting every edge gave
        # 15,836
        assert _cover_calls(monkeypatch, 2, 4) == (27_575, 24_239, 15_620)

    def test_covers_of_genus_four_canonicalize_one_edge_per_orbit(self, monkeypatch):
        # 766 of the 2,666 types have a nontrivial group; contracting every
        # edge canonicalized 11,738 triples
        assert _cover_calls(monkeypatch, 4, 1) == (17_835, 13_428, 10_674)

    @pytest.mark.parametrize(
        "g,n,nontrivial", [(4, 1, 766), (2, 3, 31), (3, 2, 209), (1, 4, 0), (0, 6, 0)]
    )
    def test_orbit_covers_equal_the_per_edge_covers(self, g, n, nontrivial):
        # (1, 4) and (0, 6) have no type with a nontrivial group, so each
        # edge pair is an orbit of its own
        poset = build_poset(g, n)
        assert len(poset.groups) == nontrivial
        assert poset.covers == reference_covers(poset)


class TestLinkComplex:
    def test_one_cell_for_genus_one_one_mark(self):
        link = build_poset(1, 1)
        assert len(link.cells) == 1
        assert link.cells[0].dimension - 1 == 0

    def test_six_cells_for_genus_two(self):
        link = build_poset(2, 0)
        assert len(link.cells) == 6

    def test_four_cells_for_genus_one_two_marks(self):
        link = build_poset(1, 2)
        assert len(link.cells) == 4

    def test_cell_count_is_catalog_minus_one(self):
        for g, n in [(1, 3), (2, 1), (0, 5)]:
            assert len(build_poset(g, n).cells) == enumerate_types(g, n).count - 1

    def test_faces_reference_valid_cells(self):
        # cell i is type i + 1; child 0 is the cone point
        link = build_poset(1, 3)
        for parent, child, edge in link.covers:
            assert 0 <= parent - 1 < len(link.cells)
            assert child == 0 or 0 <= child - 1 < len(link.cells)
            parent_cone = link.cells[parent - 1]
            assert 0 <= edge < parent_cone.dimension
            if child > 0:
                assert link.cells[child - 1].dimension == parent_cone.dimension - 1
            else:
                assert parent_cone.dimension == 1

    def test_cell_dimensions_cover_range(self):
        link = build_poset(1, 3)
        dims = {c.dimension - 1 for c in link.cells}
        assert dims == set(range(0, link.dimension() + 1))


class TestDimension:
    @pytest.mark.parametrize("g,n,expected", [(1, 2, 1), (2, 0, 2), (1, 1, 0)])
    def test_examples(self, g, n, expected):
        assert complex_dimension(g, n) == expected

    def test_purity_small_sweep(self):
        cases = [
            (g, n)
            for g in range(0, 3)
            for n in range(0, 7)
            if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 5
        ]
        for g, n in cases:
            assert complex_dimension(g, n) == 3 * g - 4 + n

    def test_type_without_expansion_is_purity_violation(self, monkeypatch):
        t = next(t for t in enumerate_types(1, 2).strata if t.num_edges == 1)
        victim = (t.weights, t.edges, t.markings)
        victim_colors = _start_colors(*victim)
        expandable = enumeration._expandable
        monkeypatch.setattr(
            enumeration,
            "_expandable",
            lambda colors: colors != victim_colors and expandable(colors),
        )
        message = re.escape(
            f"purity violation at (g, n) = (1, 2): maximal type {victim} "
            "has 1 edges, expected 2"
        )
        with pytest.raises(InternalConsistencyError, match=message):
            enumerate_types(1, 2)
        with pytest.raises(InternalConsistencyError, match=message):
            complex_dimension(1, 2)

    def test_orbit_without_expansion_is_named_by_its_key(self, monkeypatch):
        # markings on two vertices: the orbit key is not a labelled type, and
        # its markings read as the sorted tuple of the vertices carrying them
        victim = next(
            key for key in enumeration.enumerate_orbits(1, 3).keys if len(set(key[2])) == 2
        )
        assert victim == ((0, 1), ((0, 1),), (0, 0, 1))
        victim_colors = _start_colors(*victim, unlabelled=True)
        expandable = enumeration._expandable
        monkeypatch.setattr(
            enumeration,
            "_expandable",
            lambda colors: colors != victim_colors and expandable(colors),
        )
        message = re.escape(
            "purity violation at (g, n) = (1, 3): maximal type "
            "((0, 1), ((0, 1),), (0, 0, 1)) has 1 edges, expected 3"
        )
        with pytest.raises(InternalConsistencyError, match=message):
            enumerate_types(1, 3)
        with pytest.raises(InternalConsistencyError, match=message):
            complex_dimension(1, 3)


class TestHasse:
    def test_dot_output(self):
        poset = build_poset(1, 2)
        dot = hasse_dot(poset)
        assert dot.startswith("digraph hasse {")
        assert dot.count("->") == len({(p, c) for p, c, _ in poset.covers})

    def test_dot_builds_no_graph(self):
        poset = build_poset(2, 3)
        hasse_dot(poset)
        assert not {"strata", "cells"} & set(vars(poset))


class TestMarkingSymmetry:
    """S_n acts on the types by relabelling markings; the catalog, the
    parity of each type and the contraction order are all invariant."""

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (2, 2), (2, 3), (1, 5)])
    def test_adjacent_swaps_are_automorphisms_of_the_poset(self, g, n):
        poset = build_poset(g, n)
        index = {key: i for i, key in enumerate(poset.keys)}
        pairs = Counter((parent, child) for parent, child, _ in poset.covers)
        for k in range(n - 1):
            image = []
            for weights, edges, markings in poset.keys:
                swapped = list(markings)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                image.append(index[_canonical_raw(weights, edges, tuple(swapped))[0]])
            assert sorted(image) == list(range(len(image)))
            for i, j in enumerate(image):
                assert len(poset.keys[i][1]) == len(poset.keys[j][1])
                assert is_odd(*poset.keys[i]) == is_odd(*poset.keys[j])
            assert Counter((image[p], image[c]) for p, c, _ in poset.covers) == pairs
