import os
from math import comb

import pytest

from tropmoduli import (
    UnstableTypeError,
    WeightedMarkedGraph,
    cone_point,
    count_types,
    enumerate_types,
    max_edges,
)

from tropmoduli import enumeration, homology
from tropmoduli.complexes import is_odd
from tropmoduli.errors import InternalConsistencyError
from tropmoduli.graphs import (
    _canonical_group,
    _canonical_raw,
    _start_colors,
    _vertex_automorphisms,
)

from oracles import (
    _reference_expand_raw,
    _reference_new_edge_is_maximal,
    are_isomorphic,
    brute_force_catalog,
    reference_enumerate_keys,
)


class TestPublishedCounts:
    def test_genus_two_unmarked(self):
        catalog = enumerate_types(2, 0)
        assert catalog.count == 7
        assert catalog.f_vector == (1, 2, 2, 2)

    def test_genus_one_two_marks(self):
        assert enumerate_types(1, 2).count == 5

    def test_three_marked_rational(self):
        catalog = enumerate_types(0, 3)
        assert catalog.count == 1
        assert catalog.strata[0] == WeightedMarkedGraph((0,), (), (0, 0, 0))

    def test_genus_one_one_mark(self):
        assert count_types(1, 1) == (1, 1)

    def test_four_marked_rational(self):
        # one smooth type plus the three splits {12|34}, {13|24}, {14|23}
        assert count_types(0, 4) == (1, 3)
        one_edge = [t for t in enumerate_types(0, 4).strata if t.num_edges == 1]
        splits = set()
        for t in one_edge:
            marks = t.marks_at()
            splits.add(frozenset(frozenset(m) for m in marks))
        assert splits == {
            frozenset({frozenset({1, 2}), frozenset({3, 4})}),
            frozenset({frozenset({1, 3}), frozenset({2, 4})}),
            frozenset({frozenset({1, 4}), frozenset({2, 3})}),
        }


def one_edge_count(g, n):
    """Closed form for the one-edge level of (g, n).

    A one-edge type is the loop at a vertex of weight g - 1 (when g >= 1) or
    a separating edge between (g1, K) and (g - g1, complement of K), both
    sides stable: g1 >= 1 or |K| >= 2, and the same for the other side.  s
    counts the ordered splits; each unordered one is counted twice, except
    the symmetric split of n = 0 and even g >= 2, which is counted once.
    """
    s = sum(
        comb(n, k) * max(0, g + 1 - (k <= 1) - (n - k <= 1)) for k in range(n + 1)
    )
    symmetric = n == 0 and g % 2 == 0 and g >= 2
    return (g >= 1) + (s + symmetric) // 2


class TestOneEdgeLevel:
    @pytest.mark.parametrize(
        "g,n",
        [
            (g, n)
            for g in range(5)
            for n in range(7)
            if 2 * g - 2 + n > 0 and 1 <= max_edges(g, n) <= 7
        ],
    )
    def test_closed_form_and_every_cell_survives(self, g, n):
        catalog = enumerate_types(g, n)
        assert catalog.f_vector[1] == one_edge_count(g, n)
        one_edge = [key for key in catalog.keys if len(key[1]) == 1]
        assert not any(is_odd(*key) for key in one_edge)


class TestContract:
    def test_unstable_range_rejected(self):
        for g, n in [(0, 0), (0, 2), (1, 0)]:
            with pytest.raises(UnstableTypeError):
                enumerate_types(g, n)

    def test_catalog_is_duplicate_free(self):
        keys = [t.canonical_key() for t in enumerate_types(1, 3).strata]
        assert len(keys) == len(set(keys))

    def test_all_entries_stable_connected_right_genus(self):
        for g, n in [(1, 3), (2, 1), (0, 5)]:
            for t in enumerate_types(g, n).strata:
                assert t.is_stable()
                assert t.genus() == g
                assert t.num_markings == n

    def test_f_vector_sums_to_count(self):
        for g, n in [(1, 4), (2, 2)]:
            catalog = enumerate_types(g, n)
            assert sum(catalog.f_vector) == catalog.count

    def test_maximal_edge_count_attained(self):
        for g, n in [(2, 0), (1, 2), (1, 4), (0, 5), (2, 2)]:
            catalog = enumerate_types(g, n)
            assert len(catalog.f_vector) == max_edges(g, n) + 1
            assert catalog.f_vector[-1] > 0

    def test_catalog_connected_under_contraction(self):
        # every type with >= 1 edge contracts, edge by edge, to the cone point
        for g, n in [(2, 0), (1, 3), (2, 1)]:
            catalog = enumerate_types(g, n)
            keys = {t.canonical_key() for t in catalog.strata}
            target = cone_point(g, n).canonical_key()
            for t in catalog.strata:
                walked = t
                while walked.num_edges > 0:
                    walked = walked.contract(0)
                    assert walked.canonical_key() in keys
                assert walked.canonical_key() == target


class TestDeterminism:
    def test_repeat_and_thread_independence(self):
        once = enumerate_types(1, 3)
        again = enumerate_types(1, 3)
        threaded = enumerate_types(1, 3, threads=4)
        assert once == again == threaded

    def test_ordering_by_edges_then_encoding(self):
        catalog = enumerate_types(2, 1)
        seen = [
            (t.num_edges, t.canonical_certificate().encoding)
            for t in catalog.strata
        ]
        assert seen == sorted(seen)


def _levels(catalog):
    levels = [[] for _ in catalog.f_vector]
    for t in catalog.strata:
        levels[t.num_edges].append((t.weights, t.edges, t.markings))
    return levels


def _identity_only(*args, **kwargs):
    """graphs._canonical_group with every group cut to its identity."""
    key, group = _canonical_group(*args, **kwargs)
    return key, group[:1]


class TestCanonicalAugmentation:
    @pytest.mark.parametrize(
        "g,n",
        [(0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 0), (3, 2),
         (3, 3), (4, 1)],
    )
    def test_levels_match_unfiltered_sweep(self, g, n):
        # same keys in the same order as canonicalizing every expansion
        assert _levels(enumerate_types(g, n)) == reference_enumerate_keys(g, n)

    @pytest.mark.parametrize("g,n", [(1, 4), (2, 3), (3, 2), (0, 7)])
    def test_marking_permutations_map_catalog_onto_itself(self, g, n):
        # S_n acts on the types by relabelling markings; a type lost by the
        # acceptance test would show up as a missing image of its orbit
        strata = enumerate_types(g, n).strata
        keys = {t.canonical_key() for t in strata}
        assert len(keys) == len(strata)
        transposition = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        for sigma in (transposition, cycle):
            image = {
                WeightedMarkedGraph(
                    t.weights, t.edges, tuple(t.markings[sigma[k]] for k in range(n))
                ).canonical_key()
                for t in strata
            }
            assert image == keys


class TestExpansionPerParent:
    """Each parent's expansion, built only for accepted candidates, against
    the reference that builds every candidate and then tests it."""

    @pytest.mark.parametrize(
        "g,n",
        [(0, 6), (0, 7), (1, 4), (1, 5), (2, 3), (2, 4), (3, 0), (3, 2), (4, 1)],
    )
    def test_flag_and_accepted_keys_match_reference(self, g, n):
        # the reference moves each subset of a vertex's markings, where the
        # sweep moves a number of them, so several candidates give one child
        for key in enumeration.enumerate_orbits(g, n).keys:
            expandable, keys = enumeration._expand_to_keys(key)
            candidates = [
                (weights, edges, tuple(sorted(markings)))
                for weights, edges, markings in _reference_expand_raw(*key)
            ]
            assert expandable == bool(candidates), key
            reference = {
                _canonical_raw(*c, unlabelled=True)[0]
                for c in candidates
                if _reference_new_edge_is_maximal(
                    c[1], _start_colors(*c, unlabelled=True)
                )
            }
            assert set(keys) == reference, key

    @pytest.mark.parametrize(
        "g,n,swept,labelled",
        [(2, 4, 832, 6586), (4, 1, 3969, 0), (0, 7, 12, 4501), (1, 5, 82, 2000),
         (3, 2, 1261, 1112)],
    )
    def test_canonicalizations_are_exact(self, monkeypatch, g, n, swept, labelled):
        # the sweep labels each distinct accepted candidate once, with its
        # start colors, and keeps the group from the same search; a
        # duplicate or a candidate that leaks past the acceptance test
        # changes the count.  Labelling the orbits then canonicalizes each
        # assignment of the markings of an orbit that is not one type; for
        # n <= 1 every orbit is one, so (4, 1) does the work of the labelled
        # sweep it replaced, 3,969 labelings.
        count = {"swept": 0, "labelled": 0}
        canonical = enumeration._canonical_group

        def counted(weights, edges, markings, start=None, unlabelled=False):
            if start is None:
                count["labelled"] += 1
                assert not unlabelled
            else:
                count["swept"] += 1
                assert unlabelled
                assert start == _start_colors(weights, edges, markings, unlabelled=True)
            return canonical(weights, edges, markings, start, unlabelled)

        monkeypatch.setattr(enumeration, "_canonical_group", counted)
        enumerate_types(g, n)
        assert count == {"swept": swept, "labelled": labelled}

    def test_graph_objects_are_built_on_first_read(self):
        catalog = enumerate_types(2, 4)
        assert catalog.count == sum(catalog.f_vector) == 5608
        assert catalog == enumerate_types(2, 4)
        assert "strata" not in vars(catalog)
        strata = catalog.strata
        assert "strata" in vars(catalog)
        assert [(t.weights, t.edges, t.markings) for t in strata] == list(catalog.keys)
        assert catalog.strata is strata


class TestBruteForceAgreement:
    # (2, 2) reaches 3g-3+n = 5; the still larger n there are covered by the
    # acceptance suite and the opt-in extended run
    @pytest.mark.parametrize(
        "g,n", [(2, 0), (1, 2), (1, 1), (0, 4), (1, 3), (2, 1), (2, 2)]
    )
    def test_small_catalogs_match_oracle(self, g, n):
        oracle = brute_force_catalog(g, n)
        catalog = enumerate_types(g, n)
        assert len(oracle) == catalog.count
        for weights, edges, markings in oracle:
            matches = [
                t
                for t in catalog.strata
                if t.num_edges == len(edges)
                and are_isomorphic(
                    (weights, edges, markings), (t.weights, t.edges, t.markings)
                )
            ]
            assert len(matches) == 1

    @pytest.mark.skipif(
        not os.environ.get("TROPMODULI_EXTENDED"),
        reason="slow brute force; set TROPMODULI_EXTENDED=1",
    )
    def test_genus_one_five_marks_matches_oracle(self):
        assert len(brute_force_catalog(1, 5)) == enumerate_types(1, 5).count


class TestOrbitKeys:
    """An orbit key is a type whose markings are the sorted tuple of the
    vertices carrying them; the catalog labels the orbits of the sweep."""

    @pytest.mark.parametrize(
        "g,n",
        [(g, n) for g in range(4) for n in range(2)
         if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 6]
        + [(4, 1), (5, 0), pytest.param(5, 1, marks=pytest.mark.slow)],
    )
    def test_one_marking_orbits_are_the_catalog(self, g, n):
        orbits, catalog = enumeration.enumerate_orbits(g, n), enumerate_types(g, n)
        assert (orbits.keys, orbits.groups) == (catalog.keys, catalog.groups)

    @pytest.mark.parametrize("g,n", [(1, 4), (2, 3), (3, 2), (0, 7)])
    def test_orbits_are_the_unlabelled_forms_of_the_reference_types(self, g, n):
        # complete and duplicate-free, against the unfiltered labelled sweep
        orbits = enumeration.enumerate_orbits(g, n).keys
        unlabelled = {
            _canonical_raw(*key, unlabelled=True)[0]
            for level in reference_enumerate_keys(g, n)
            for key in level
        }
        assert len(orbits) == len(set(orbits)) == len(unlabelled)
        assert set(orbits) == unlabelled

    @pytest.mark.parametrize("g,n", [(2, 4), (3, 2), (0, 7)])
    def test_one_marked_vertex_orbit_is_its_labelled_type(self, g, n):
        orbits = enumeration.enumerate_orbits(g, n)
        keys = [key for key in orbits.keys if enumeration._is_type(key[2])]
        assert keys
        for key in keys:
            assert enumeration._orbit_size(key, orbits.groups.get(key, ()))[1] == 1
            assert _canonical_raw(*key)[0] == key


_GROUP_CASES = [
    (g, n) for g in range(3) for n in range(8) if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4
] + [(2, 4), (3, 2), (4, 1), (5, 0)]


def _assert_groups_are_searches(catalog, unlabelled):
    # the stored group is the key's whole automorphism group, each element
    # once and the identity first, and only nontrivial groups are stored
    assert set(catalog.groups) <= set(catalog.keys)
    for key in catalog.keys:
        searched = {
            tuple(sigma)
            for sigma in _vertex_automorphisms(*key, unlabelled=unlabelled)
        }
        group = catalog.groups.get(key)
        if group is None:
            assert searched == {tuple(range(len(key[0])))}, key
            continue
        assert len(group) > 1, key
        assert group[0] == tuple(range(len(key[0]))), key
        assert len(set(group)) == len(group) and set(group) == searched, key


class TestGroups:
    """Each catalog key keeps the vertex automorphisms found by the search
    that labelled it: the sweep's for an orbit key, the labelling's for a
    labelled type."""

    @pytest.mark.parametrize("g,n", _GROUP_CASES)
    def test_orbit_groups_equal_the_unlabelled_search(self, g, n):
        _assert_groups_are_searches(enumeration.enumerate_orbits(g, n), True)

    @pytest.mark.parametrize("g,n", _GROUP_CASES)
    def test_type_groups_equal_the_labelled_search(self, g, n):
        _assert_groups_are_searches(enumerate_types(g, n), False)


class TestOrbitCount:
    """count_types sums the sizes of the S_n-orbits of enumerate_orbits and
    labels no type."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_genus_zero_equals_tree_counts(self, n):
        assert count_types(0, n) == homology._tree_counts(n)

    @pytest.mark.parametrize("n,total", [(9, 660_032), (10, 12_818_912), (12, 6_939_897_856)])
    def test_genus_zero_totals_are_schroeders_fourth_problem(self, n, total):
        # OEIS A000311: the phylogenetic trees with n labelled leaves
        assert sum(count_types(0, n)) == total

    @pytest.mark.parametrize(
        "g,n",
        # the criterion-6 cases, whose orbit sizes test_homology also sums;
        # (2, 2), the one brute-force case beyond them; three larger ones
        [(g, n) for g in range(3) for n in range(8)
         if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4]
        + [(2, 2), (2, 4), (4, 1), (3, 2)],
    )
    def test_equals_labelled_f_vector(self, g, n):
        assert count_types(g, n) == enumerate_types(g, n).f_vector

    @pytest.mark.slow
    @pytest.mark.parametrize("g,n,total", [(2, 6, 1_106_920), (1, 8, 5_031_736)])
    def test_counts_past_the_labelled_sweep(self, g, n, total):
        counts = count_types(g, n)
        assert (sum(counts), len(counts)) == (total, max_edges(g, n) + 1)

    def test_count_audits_the_orbit_size(self, monkeypatch):
        # without the automorphisms that move a marked vertex, every orbit
        # of a genus-1 cycle with a reflection claims twice its types
        expected = enumerate_types(1, 4).f_vector
        monkeypatch.setattr(enumeration, "_canonical_group", _identity_only)
        try:
            counts = count_types(1, 4)
        except InternalConsistencyError:
            return
        assert counts != expected

    def test_orbit_size_with_a_remainder_raises(self):
        # three markings on vertex 0 and a swap that moves it: 3! / (2 * 3!)
        with pytest.raises(InternalConsistencyError, match="no whole orbit size"):
            enumeration._orbit_size(((0, 1), ((0, 1),), (0, 0, 0)), ((0, 1), (1, 0)))

    def test_one_marking_searches_no_automorphism(self, monkeypatch):
        def refused(*args):
            raise AssertionError("for n <= 1 each orbit is one type")

        monkeypatch.setattr(enumeration, "_orbit_size", refused)
        assert count_types(4, 1) == (1, 4, 17, 57, 161, 344, 565, 657, 534, 259, 67)
        assert count_types(2, 0) == (1, 2, 2, 2)

    def test_reads_no_labelled_sweep(self, monkeypatch):
        # the one sweep runs on orbits, and count_types labels none of them
        def refused(key):
            raise AssertionError("count_types must not label an orbit")

        monkeypatch.setattr(enumeration, "_labelled_types", refused)
        assert sum(count_types(2, 4)) == 5608
