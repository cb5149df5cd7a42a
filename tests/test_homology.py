import random
from fractions import Fraction
from math import factorial

import pytest

from tropmoduli import (
    InternalConsistencyError,
    ResourceBoundExceeded,
    WeightedMarkedGraph,
    build_chain_complex,
    enumerate_types,
    euler_characteristic,
    link_cells,
    reduced_homology,
    top_weight_cohomology,
)
from tropmoduli import enumeration, homology
from tropmoduli.complexes import is_odd
from tropmoduli.homology import (
    _coboundary_ranks,
    homology_of_chain,
    sparse_integer_rank,
)

from oracles import (
    reference_betti,
    reference_boundary_columns,
    reference_sparse_integer_rank,
)

_chains = {}


def chain_of(g, n):
    """Chain complexes shared by the tests of this module, built once."""
    if (g, n) not in _chains:
        _chains[(g, n)] = build_chain_complex(link_cells(g, n))
    return _chains[(g, n)]


def simple_weight_zero(graph):
    """Whether a cell is outside link^lw and has no repeated edge."""
    return (
        not any(graph.weights)
        and all(u != v for u, v in graph.edges)
        and len(set(graph.edges)) == len(graph.edges)
    )


def restricted_to_relative_basis(link, generators, boundaries):
    """The per-cell route's generators and columns, restricted to the simple
    weight-0 cells and reindexed; rows outside them, the augmentation row
    included, are dropped."""
    basis, columns = [], []
    rows = {}  # row of degree p - 1 in the per-cell route -> basis row
    for gens, cols in zip(generators, boundaries):
        kept = [j for j, i in enumerate(gens) if simple_weight_zero(link.cells[i].graph)]
        basis.append(tuple(gens[j] for j in kept))
        columns.append(
            tuple(tuple((rows[r], c) for r, c in cols[j] if r in rows) for j in kept)
        )
        rows = {j: k for k, j in enumerate(kept)}
    return tuple(basis), tuple(columns)


def random_columns(rng, nrows, ncols, density):
    cols = []
    for _ in range(ncols):
        entries = {
            r: rng.randint(-3, 3) for r in range(nrows) if rng.random() < density
        }
        cols.append(tuple(sorted((r, v) for r, v in entries.items() if v)))
    return cols


def dense_rank_over_q(columns, nrows):
    """Plain Gaussian elimination over Q, as an independent rank oracle."""
    matrix = [[Fraction(0)] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, value in col:
            matrix[i][j] = Fraction(value)
    rank = 0
    row = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(row, nrows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = matrix[row][col]
        for r in range(nrows):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col] / inv
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        row += 1
        rank += 1
    return rank


class TestSparseRank:
    def test_identity(self):
        cols = [((i, 1),) for i in range(5)]
        assert sparse_integer_rank(cols) == 5

    def test_zero(self):
        assert sparse_integer_rank([(), (), ()]) == 0

    def test_dependent_columns(self):
        cols = [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 1), (1, 1))]
        assert sparse_integer_rank(cols) == 2

    def test_against_dense_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            cols = []
            for _ in range(ncols):
                entries = {}
                for _ in range(rng.randint(0, nrows)):
                    entries[rng.randrange(nrows)] = rng.randint(-3, 3)
                cols.append(tuple(sorted((r, v) for r, v in entries.items() if v)))
            assert sparse_integer_rank(cols) == dense_rank_over_q(cols, nrows)

    def test_pivots_match_scan_oracle_on_random_matrices(self):
        rng = random.Random(2016)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
            cols = random_columns(rng, nrows, ncols, rng.choice((0.05, 0.15, 0.4)))
            pivots = []
            rank = sparse_integer_rank(cols, pivots)
            assert (rank, pivots) == reference_sparse_integer_rank(cols)
            assert rank == dense_rank_over_q(cols, nrows)

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (1, 5), (2, 3), (3, 0)])
    def test_pivots_match_scan_oracle_on_boundaries(self, g, n):
        chain = chain_of(g, n)
        for boundary in chain.boundaries:
            pivots = []
            rank = sparse_integer_rank(boundary, pivots)
            assert (rank, pivots) == reference_sparse_integer_rank(boundary)


class TestClearing:
    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (1, 5), (2, 2), (2, 3), (3, 0)])
    def test_cleared_coboundary_ranks_match_boundary_ranks(self, g, n):
        chain = chain_of(g, n)
        uncleared = [sparse_integer_rank(boundary) for boundary in chain.boundaries]
        assert _coboundary_ranks(chain) == uncleared
        # every boundary here has at most 105 x 105 entries
        for p, boundary in enumerate(chain.boundaries):
            nrows = chain.rank_of_basis(p - 1)
            assert uncleared[p] == dense_rank_over_q(boundary, nrows)

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (1, 5), (2, 3)])
    def test_clearing_skips_the_previous_pivot_rows(self, g, n, monkeypatch):
        chain = chain_of(g, n)
        widths = []

        def recording(columns, pivot_rows=None):
            widths.append(len(columns))
            return sparse_integer_rank(columns, pivot_rows)

        monkeypatch.setattr(homology, "sparse_integer_rank", recording)
        ranks = _coboundary_ranks(chain)
        # each degree skips exactly one column per pivot of the degree below
        expected = [
            chain.rank_of_basis(p - 1) - (ranks[p - 1] if p else 0)
            for p in range(len(ranks))
        ]
        assert widths == expected


class TestChainComplex:
    def test_single_zero_cell_for_one_marked_genus_one(self):
        chain = build_chain_complex(link_cells(1, 1))
        assert chain.rank_of_chain_group(0) == 1
        assert chain.rank_of_chain_group(1) == 0
        assert chain.rank_of_chain_group(-1) == 1

    def test_theta_cell_is_killed(self, theta):
        link = link_cells(2, 0)
        chain = build_chain_complex(link)
        killed_keys = {
            link.cells[i].graph.canonical_key()
            for i in range(len(link.cells))
            if link.cells[i].edge_group.has_odd_element
        }
        assert theta.canonical_key() in killed_keys
        # both 3-edge cells carry odd symmetries, so the top chain group dies
        assert chain.rank_of_chain_group(2) == 0
        assert chain.rank_of_chain_group(1) == 1
        assert chain.rank_of_chain_group(0) == 2

    def test_boundary_squares_to_zero_explicitly(self):
        chain = build_chain_complex(link_cells(1, 4))
        for p in range(1, chain.top_degree() + 1):
            lower = chain.boundaries[p - 1]
            for col in chain.boundaries[p]:
                acc = {}
                for mid, c1 in col:
                    for row, c2 in lower[mid]:
                        acc[row] = acc.get(row, 0) + c1 * c2
                assert all(v == 0 for v in acc.values())

    def test_augmentation_hits_every_zero_cell(self):
        chain = build_chain_complex(link_cells(0, 5))
        assert chain.rank_of_basis(-1) == 1
        assert len(chain.boundaries[0]) == 10
        for col in chain.boundaries[0]:
            assert col == ((0, 1),)

    @pytest.mark.parametrize("g,n", [(1, 4), (2, 0), (3, 0)])
    def test_no_augmentation_row_for_positive_genus(self, g, n):
        # a 1-edge type of genus g >= 1 has a loop or a positive weight
        chain = chain_of(g, n)
        assert chain.rank_of_basis(-1) == 0
        assert chain.rank_of_chain_group(-1) == 1
        assert chain.basis_by_degree[0] == chain.boundaries[0] == ()


class TestContractionTable:
    @pytest.mark.parametrize("g,n", [(1, 3), (1, 4), (2, 2), (2, 3), (0, 6)])
    def test_columns_match_per_cell_route(self, g, n):
        link = link_cells(g, n)
        chain = build_chain_complex(link)
        generators, boundaries = reference_boundary_columns(link)
        assert chain.generators_by_degree == generators
        if g > 0:
            generators, boundaries = restricted_to_relative_basis(
                link, generators, boundaries
            )
        assert chain.basis_by_degree == generators
        assert chain.boundaries == boundaries

    @pytest.mark.parametrize("g,n", [(2, 3), (1, 5), (3, 0)])
    def test_repeated_edge_parity_agrees_with_full_group(self, g, n):
        keys = enumerate_types(g, n).keys
        assert any(len(set(edges)) < len(edges) for _, edges, _ in keys)
        for key in keys:
            assert is_odd(*key) == WeightedMarkedGraph(*key).automorphisms().has_odd_element


class TestGeneratorPass:
    def test_generators_contract_only_what_the_columns_read(self, monkeypatch):
        # (2, 4): the 180 simple weight-0 generators of the pair have 1,109
        # edges in all; 358 of their contractions have no repeated edge and
        # are distinct within an edge count; the enumeration canonicalizes
        # 6,786 candidates.  Contracting all 2,915 generators would make
        # 13,773 contractions and 7,513 labelings, and the full table 27,575
        # contractions and 22,622 labelings.
        calls = {"_contract_raw": 0, "_canonical_raw": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(homology, "_contract_raw")
        counted(homology, "_canonical_raw")
        counted(enumeration, "_canonical_raw")
        link = link_cells(2, 4)
        build_chain_complex(link)
        basis_edges, distinct_contractions, enumerated = 1_109, 358, 6_786
        assert calls == {
            "_contract_raw": basis_edges,
            "_canonical_raw": enumerated + distinct_contractions,
        }
        assert not {"strata", "cells", "covers"} & set(vars(link))


class TestPublishedRanks:
    @pytest.mark.parametrize("n", [1, 2])
    def test_genus_one_contractible_cases(self, n):
        profile = reduced_homology(1, n)
        assert all(b == 0 for b in profile.reduced_betti)

    # H~_{n-1} of the link of (1, n) has rank (n - 1)!/2 for n >= 3 and is
    # its only nonzero group (Chan-Galatius-Payne, arXiv 1903.07187)
    @pytest.mark.parametrize("n,rank", [(3, 1), (4, 3), (5, 12), (6, 60)])
    def test_genus_one_top_sphere_ranks(self, n, rank):
        profile = reduced_homology(1, n)
        expected = {n - 1: rank}
        assert {p: b for p, b in profile.betti_map().items() if b} == expected
        assert profile.euler_reduced == (-1) ** (n - 1) * rank

    def test_genus_two_two_marks(self):
        profile = reduced_homology(2, 2)
        assert {p: b for p, b in profile.betti_map().items() if b} == {4: 1}

    def test_genus_two_unmarked_vanishes(self):
        profile = reduced_homology(2, 0)
        assert all(b == 0 for b in profile.reduced_betti)

    @pytest.mark.parametrize(
        "n", [4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]
    )
    def test_genus_zero_factorial_in_top_degree(self, n):
        profile = reduced_homology(0, n, max_generators=None)
        nonzero = {p: b for p, b in profile.betti_map().items() if b}
        assert nonzero == {n - 4: factorial(n - 2)}

    def test_genus_three_unmarked(self):
        profile = homology_of_chain(chain_of(3, 0))
        nonzero = {p: b for p, b in profile.betti_map().items() if b}
        assert nonzero == {5: 1}

    def test_genus_five_unmarked_wheel_class(self):
        # the wheel class W_5 of Chan-Galatius-Payne, arXiv 1805.10186
        profile = reduced_homology(5, 0)
        nonzero = {p: b for p, b in profile.betti_map().items() if b}
        assert nonzero == {9: 1}
        assert profile.chain_ranks[1:] == (
            3, 6, 12, 25, 49, 80, 105, 115, 108, 77, 30, 4
        )
        assert profile.euler_reduced == -1

    @pytest.mark.slow
    def test_genus_one_seven_marks(self):
        # H~_(n-1) of the genus-1 link has rank (n - 1)!/2 (criterion 3)
        profile = reduced_homology(1, 7, max_generators=None)
        nonzero = {p: b for p, b in profile.betti_map().items() if b}
        assert nonzero == {6: factorial(6) // 2} == {6: 360}
        assert profile.euler_reduced == 360


class TestRelativeRoute:
    @pytest.mark.parametrize(
        "g,n",
        [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1), (2, 2), (2, 3),
         (3, 0), (3, 1), (4, 0)],
    )
    def test_betti_numbers_match_the_whole_link(self, g, n):
        assert reduced_homology(g, n).reduced_betti == reference_betti(link_cells(g, n))

    def test_euler_audit_catches_a_missing_basis_cell(self, monkeypatch):
        # drop one top-degree cell of (1, 4) from the basis of the pair
        link = link_cells(1, 4)
        dropped = link.keys[chain_of(1, 4).basis_by_degree[-1][0] + 1]
        in_basis = homology._simple_weight_zero

        def one_short(*key):
            return key != dropped and in_basis(*key)

        monkeypatch.setattr(homology, "_simple_weight_zero", one_short)
        chain = build_chain_complex(link)
        assert chain.rank_of_basis(3) == chain_of(1, 4).rank_of_basis(3) - 1
        with pytest.raises(InternalConsistencyError, match="Euler characteristic"):
            homology_of_chain(chain)


class TestEuler:
    def test_examples(self):
        assert euler_characteristic(1, 3) == 1
        assert euler_characteristic(1, 2) == 0
        assert euler_characteristic(2, 2) == 1

    def test_alternating_sum_audit(self):
        for g, n in [(1, 3), (1, 4), (2, 1), (2, 2)]:
            profile = reduced_homology(g, n)
            from_betti = sum(
                (1 if (i - 1) % 2 == 0 else -1) * b
                for i, b in enumerate(profile.reduced_betti)
            )
            from_ranks = sum(
                (1 if (i - 1) % 2 == 0 else -1) * c
                for i, c in enumerate(profile.chain_ranks)
            )
            assert from_betti == from_ranks == profile.euler_reduced


class TestTopWeight:
    def test_genus_one_four_marks(self):
        ranks = top_weight_cohomology(1, 4)
        assert ranks[4] == 3
        assert all(r == 0 for k, r in ranks.items() if k != 4)

    def test_genus_two_four_marks(self):
        ranks = top_weight_cohomology(2, 4)
        assert ranks[7] == 3
        assert ranks[8] == 1
        assert all(r == 0 for k, r in ranks.items() if k not in (7, 8))

    def test_genus_two_unmarked_all_zero(self):
        assert all(r == 0 for r in top_weight_cohomology(2, 0).values())

    def test_degree_window(self):
        # weight 2d lives in cohomological degrees d .. 2d
        ranks = top_weight_cohomology(1, 3)
        d = 3
        assert sorted(ranks) == list(range(d, 2 * d + 1))


class TestResourceBound:
    def test_cap_aborts_with_partial_report(self):
        with pytest.raises(ResourceBoundExceeded) as err:
            reduced_homology(1, 5, max_generators=10)
        assert err.value.chain_ranks is not None
        assert sum(err.value.chain_ranks) > 10
        # the cap and the matrices read the same generator list
        chain = build_chain_complex(link_cells(1, 5))
        assert err.value.chain_ranks == tuple(map(len, chain.generators_by_degree))

    def test_cap_refuses_before_any_contraction(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the cap must refuse before contracting")

        monkeypatch.setattr(homology, "_contract_raw", refused)
        with pytest.raises(ResourceBoundExceeded):
            reduced_homology(1, 5, max_generators=10)

    def test_cap_allows_small_cases(self):
        profile = reduced_homology(1, 3, max_generators=10_000)
        assert profile.betti(2) == 1


class TestConsistencyChecks:
    def test_negative_betti_number_is_refused(self, monkeypatch):
        # one rank too many per degree makes b_(-1) = 1 - 0 - 2 negative
        exact = homology.sparse_integer_rank

        def one_too_many(columns, pivot_rows=None):
            return exact(columns, pivot_rows) + 1

        monkeypatch.setattr(homology, "sparse_integer_rank", one_too_many)
        with pytest.raises(InternalConsistencyError, match="negative Betti number"):
            homology_of_chain(chain_of(1, 3))
