import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from tropmoduli import (
    InternalConsistencyError,
    ResourceBoundExceeded,
    WeightedMarkedGraph,
    build_poset,
    enumerate_types,
    euler_characteristic,
    reduced_homology,
    top_weight_cohomology,
)
from tropmoduli import complexes, enumeration, graphs, homology
from tropmoduli.graphs import perm_sign
from tropmoduli.homology import (
    _coboundary_ranks,
    homology_of_chain,
    sparse_integer_rank,
)

from oracles import (
    is_odd,
    labelled_generators,
    lefschetz_number,
    reference_betti,
    reference_boundary_columns,
    reference_chain_complex,
    reference_sparse_integer_rank,
    split_action,
    split_lefschetz_number,
)

_chains = {}


def chain_of(g, n):
    """Chain complexes shared by the tests of this module, built once."""
    if (g, n) not in _chains:
        _chains[(g, n)] = reference_chain_complex(build_poset(g, n))
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
    weight-0 cells and reindexed; the augmentation row is kept exactly when
    the cone point is such a cell, and every other row outside them is
    dropped."""
    basis, columns = [], []
    # row of degree p - 1 in the per-cell route -> basis row
    rows = {0: 0} if simple_weight_zero(link.strata[0]) else {}
    for gens, cols in zip(generators, boundaries):
        kept = [j for j, i in enumerate(gens) if simple_weight_zero(link.cells[i].graph)]
        basis.append(tuple(gens[j] for j in kept))
        columns.append(
            tuple(tuple((rows[r], c) for r, c in cols[j] if r in rows) for j in kept)
        )
        rows = {j: k for k, j in enumerate(kept)}
    return tuple(basis), tuple(columns)


def cycle_type_representatives(n):
    """One permutation of range(n) per cycle type, as (cycle lengths in
    descending order, tuple of images)."""

    def partitions(m, largest):
        if m == 0:
            yield ()
        for part in range(min(m, largest), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    for lengths in partitions(n, n):
        sigma, start = [], 0
        for length in lengths:
            sigma += [start + (i + 1) % length for i in range(length)]
            start += length
        yield lengths, tuple(sigma)


def basis_lefschetz(g, n, sigma):
    """Lefschetz number of sigma on the matrix basis of (g, n), the cone
    point counted in degree -1 when it is in the basis."""
    chain = chain_of(g, n)
    cone = ((g,), (), (0,) * n)
    return lefschetz_number(
        ((cone,) * chain.rank_of_basis(-1), *chain.basis_by_degree), sigma
    )


def lie_character(m, lengths):
    """Character of Lie_m at a permutation with these cycle lengths:
    mu(d) d**(m/d - 1) (m/d - 1)! when all are d, and 0 otherwise."""
    d = lengths[0]
    if any(length != d for length in lengths):
        return 0
    primes = [
        p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))
    ]
    mobius = 0 if any(d % (p * p) == 0 for p in primes) else (-1) ** len(primes)
    return mobius * d ** (m // d - 1) * factorial(m // d - 1)


def genus_zero_character(n, lengths, sigma):
    """Character of H~_(n-4) of the genus-0 link at sigma, whose cycle
    lengths are lengths: sgn (x) (Ind Lie_(n-1) - Lie_n), the induction from
    the stabilizer of a point (Robinson and Whitehouse, "The tree
    representation of Sigma_(n+1)", JPAA 1996)."""
    fixed = lengths.count(1)  # lengths[:-1] drops one fixed point
    induced = fixed * lie_character(n - 1, lengths[:-1]) if fixed else 0
    return perm_sign(sigma) * (induced - lie_character(n, lengths))


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


def _patch_everywhere(monkeypatch, modules, names, replacement):
    """Replace each name on every module that has it; a name that no module
    has fails the test, so a deleted or renamed name cannot drop out."""
    for name in names:
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, f"no module has {name}"
        for module in holders:
            monkeypatch.setattr(module, name, replacement)


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
        chain = reference_chain_complex(build_poset(1, 1))
        assert chain.rank_of_chain_group(0) == 1
        assert chain.rank_of_chain_group(1) == 0
        assert chain.rank_of_chain_group(-1) == 1

    def test_theta_cell_is_killed(self, theta):
        link = build_poset(2, 0)
        chain = reference_chain_complex(link)
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
        chain = reference_chain_complex(build_poset(1, 4))
        for p in range(1, chain.top_degree() + 1):
            lower = chain.boundaries[p - 1]
            for col in chain.boundaries[p]:
                acc = {}
                for mid, c1 in col:
                    for row, c2 in lower[mid]:
                        acc[row] = acc.get(row, 0) + c1 * c2
                assert all(v == 0 for v in acc.values())

    @pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (0, 6), (0, 7)])
    def test_augmentation_hits_every_zero_cell(self, g, n):
        chain = chain_of(g, n)
        assert chain.basis_by_degree == chain.generators_by_degree
        assert chain.rank_of_basis(-1) == 1
        # a 1-edge tree splits the markings into two parts of two or more
        assert len(chain.boundaries[0]) == 2 ** (n - 1) - n - 1
        for col in chain.boundaries[0]:
            assert col == ((0, 1),)

    @pytest.mark.parametrize("g,n", [(1, 3), (1, 4), (2, 0), (2, 2), (3, 0)])
    def test_no_augmentation_row_for_positive_genus(self, g, n):
        # a 1-edge type of genus g >= 1 has a loop or a positive weight
        chain = chain_of(g, n)
        assert chain.rank_of_basis(-1) == 0
        assert chain.rank_of_chain_group(-1) == 1
        assert chain.basis_by_degree[0] == chain.boundaries[0] == ()


class TestContractionTable:
    @pytest.mark.parametrize("g,n", [(1, 3), (1, 4), (2, 2), (2, 3), (0, 6)])
    def test_columns_match_per_cell_route(self, g, n):
        link = build_poset(g, n)
        chain = reference_chain_complex(link)
        generators, boundaries = reference_boundary_columns(link)

        def triples(cells_by_degree):  # cell i is type i + 1
            return tuple(
                tuple(link.keys[i + 1] for i in cells) for cells in cells_by_degree
            )

        assert chain.generators_by_degree == triples(generators)
        generators, boundaries = restricted_to_relative_basis(
            link, generators, boundaries
        )
        assert chain.basis_by_degree == triples(generators)
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
        # 832 candidates in its orbit sweep and 6,586 assignments of the
        # markings as it labels the orbits, each with its group; an orbit
        # that is one type is its own key and needs none.  Contracting all
        # 2,915 generators would make 13,773 contractions and 7,513
        # labelings, and the full table 27,575 contractions and 22,622
        # labelings.
        calls = {"_contract_raw": 0, "_canonical_raw": 0, "_canonical_group": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(homology, "_contract_raw")
        counted(homology, "_canonical_raw")
        counted(enumeration, "_canonical_group")
        link = build_poset(2, 4)
        reference_chain_complex(link)
        basis_edges, distinct_contractions, enumerated = 1_109, 358, 832 + 6_586
        assert calls == {
            "_contract_raw": basis_edges,
            "_canonical_raw": distinct_contractions,
            "_canonical_group": enumerated,
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

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
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

    # H~_(n-4) is the only nonzero group of the genus-0 link
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_genus_zero_character(self, n):
        for lengths, sigma in cycle_type_representatives(n):
            character = genus_zero_character(n, lengths, sigma)
            assert basis_lefschetz(0, n, sigma) == (-1) ** (n - 4) * character

    # H~_(n-1) of the genus-1 link has a basis of the n-gons, one per cyclic
    # order of the markings up to reversal, on which S_n acts by the sign of
    # the edge permutation (Chan-Galatius-Payne, arXiv 1903.07187)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_genus_one_character(self, n):
        gons = [(0, *rest) for rest in permutations(range(1, n)) if rest[0] < rest[-1]]
        for _, sigma in cycle_type_representatives(n):
            character = 0
            for order in gons:
                edges = [frozenset((order[i - 1], order[i])) for i in range(n)]
                moved = [frozenset(sigma[k] for k in e) for e in edges]
                if set(moved) == set(edges):
                    character += perm_sign(tuple(edges.index(e) for e in moved))
            assert basis_lefschetz(1, n, sigma) == (-1) ** (n - 1) * character


class TestRelativeRoute:
    @pytest.mark.parametrize(
        "g,n",
        [(0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1),
         (2, 2), (2, 3), (3, 0), (3, 1), (4, 0)],
    )
    def test_betti_numbers_match_the_whole_link(self, g, n):
        assert reduced_homology(g, n).reduced_betti == reference_betti(build_poset(g, n))

    # link^lw is S_n-stable and its augmented chains are acyclic, so it adds
    # nothing to the Lefschetz number of any permutation of the markings
    @pytest.mark.parametrize("g,n", [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3)])
    def test_lefschetz_numbers_match_the_whole_link(self, g, n):
        link = build_poset(g, n)
        whole = ((link.keys[0],), *labelled_generators(link))
        basis = tuple(
            tuple(t for t in cells if simple_weight_zero(WeightedMarkedGraph(*t)))
            for cells in whole
        )
        for _, sigma in cycle_type_representatives(n):
            assert lefschetz_number(whole, sigma) == lefschetz_number(basis, sigma)
        identity = tuple(range(n))
        assert lefschetz_number(whole, identity) == euler_characteristic(g, n)

    def test_euler_audit_catches_a_missing_basis_cell(self, monkeypatch):
        # drop one top-degree cell of (1, 4) from the basis of the pair
        link = build_poset(1, 4)
        dropped = chain_of(1, 4).basis_by_degree[-1][0]
        in_basis = homology._simple_weight_zero

        def one_short(*key):
            return key != dropped and in_basis(*key)

        monkeypatch.setattr(homology, "_simple_weight_zero", one_short)
        chain = reference_chain_complex(link)
        assert chain.rank_of_basis(3) == chain_of(1, 4).rank_of_basis(3) - 1
        with pytest.raises(InternalConsistencyError, match="Euler characteristic"):
            homology_of_chain(chain)


class TestTreeRoute:
    """reduced_homology(0, n) builds its chain complex from splits."""

    @pytest.mark.parametrize(
        "n", [3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]
    )
    def test_profile_matches_labelled_route(self, n):
        labelled = homology_of_chain(reference_chain_complex(build_poset(0, n)))
        # chain ranks, Betti numbers and Euler characteristic; (0, 3) has
        # an empty link, so its chain ranks are (1,)
        assert reduced_homology(0, n, max_generators=None) == labelled

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_clique_counts_equal_closed_form_and_enumeration(self, n):
        cliques = tuple(map(len, homology._split_cliques(n)))
        assert cliques == homology._tree_counts(n)[1:] == enumerate_types(0, n).f_vector[1:]

    def test_route_reads_no_labelling(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("genus 0 must not enumerate or label")

        names = ("enumerate_types", "_canonical_raw", "_canonical_group")
        _patch_everywhere(monkeypatch, (enumeration, complexes, graphs, homology), names, refused)
        assert reduced_homology(0, 7).betti_map()[3] == 120

    def test_default_cap_refuses_before_listing_a_split(self, monkeypatch):
        def refused(n):
            raise AssertionError("the cap must refuse before listing splits")

        monkeypatch.setattr(homology, "_split_cliques", refused)
        with pytest.raises(ResourceBoundExceeded) as err:
            reduced_homology(0, 8)
        assert err.value.chain_ranks == (119, 1918, 9450, 17325, 10395)
        assert str(err.value) == (
            "(g, n) = (0, 8) needs 39207 generators, over the cap of 20000; "
            "chain ranks by degree: [119, 1918, 9450, 17325, 10395]"
        )

    def test_clique_counts_are_checked_against_the_closed_form(self, monkeypatch):
        listed = homology._split_cliques

        def one_short(n):
            cells = listed(n)
            return (cells[0][1:], *cells[1:])

        monkeypatch.setattr(homology, "_split_cliques", one_short)
        with pytest.raises(InternalConsistencyError, match="compatible splits"):
            reduced_homology(0, 6)

    def test_square_zero_audit_runs_once(self, monkeypatch):
        calls = []
        audit = homology._verify_square_zero

        def counting(chain):
            calls.append(chain.n)
            audit(chain)

        monkeypatch.setattr(homology, "_verify_square_zero", counting)
        reduced_homology(0, 6)
        assert calls == [6]

    def test_square_zero_audit_catches_one_flipped_sign(self, monkeypatch):
        signed = homology._simplicial_boundaries

        def one_flipped(cells):
            boundaries = list(signed(cells))
            (row, coefficient), *rest = boundaries[2][0]
            boundaries[2] = (((row, -coefficient), *rest), *boundaries[2][1:])
            return tuple(boundaries)

        monkeypatch.setattr(homology, "_simplicial_boundaries", one_flipped)
        with pytest.raises(InternalConsistencyError, match="boundary of boundary"):
            reduced_homology(0, 6)

    # sigma acts on a clique by moving its splits; the sign of sorting the
    # moved indices is the simplicial orientation the boundary uses
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_split_orientation_carries_the_genus_zero_character(self, n):
        chain = homology._tree_chain_complex(n, None)
        splits = homology._splits(n)
        for lengths, sigma in cycle_type_representatives(n):
            action = split_action(splits, chain.generators_by_degree, sigma)
            # the action commutes with the boundary; it fixes the cone point
            for p, boundary in enumerate(chain.boundaries):
                below = action[p - 1] if p else ((0, 1),)
                for (row, sign), col in zip(action[p], boundary):
                    moved = {}
                    for r, c in col:
                        image, s = below[r]
                        moved[image] = moved.get(image, 0) + s * c
                    assert moved == {r: sign * c for r, c in boundary[row]}
            lefschetz = split_lefschetz_number(splits, chain.generators_by_degree, sigma)
            character = genus_zero_character(n, lengths, sigma)
            assert lefschetz == (-1) ** (n - 4) * character

    def test_cli_refuses_forty_markings_at_once(self):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "tropmoduli.cli", "homology",
             "--genus", "0", "--markings", "40"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert time.perf_counter() - start < 1
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: (g, n) = (0, 40) needs ")
        assert result.stderr.count("\n") == 1


    def test_cli_refuses_fifteen_hundred_markings_in_one_line(self):
        # the total has more than 4,300 digits, Python's default limit for
        # converting an int to text; the cap lets the 2**1499 - 1501 splits
        # pass, so the tree counts run and the refusal reads them
        cap = 2**1500
        result = subprocess.run(
            [sys.executable, "-m", "tropmoduli.cli", "homology",
             "--genus", "0", "--markings", "1500", "--max-generators", str(cap)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: (g, n) = (0, 1500) needs a 4726-digit number of generators, "
            f"over the cap of {cap}; 1497 chain ranks by degree, too long to list\n"
        )

    def test_refusal_keeps_the_exact_ranks(self):
        # a cap that the 2**39 - 41 splits stay under, so the tree counts run
        with pytest.raises(ResourceBoundExceeded) as err:
            reduced_homology(0, 40, max_generators=2**40)
        ranks = homology._tree_counts(40)[1:]
        assert err.value.chain_ranks == ranks
        assert str(err.value) == (
            f"(g, n) = (0, 40) needs a {len(str(sum(ranks)))}-digit number of "
            f"generators, over the cap of {2**40}; 37 chain ranks by degree, too "
            "long to list"
        )

    @pytest.mark.parametrize("n", [16, 40, 3000])
    def test_cap_refuses_on_the_splits_before_the_tree_counts(self, monkeypatch, n):
        # (0, 15) has 16,368 splits and (0, 16) 32,751, over the default cap
        def refused(n):
            raise AssertionError("the splits alone are over the cap")

        monkeypatch.setattr(homology, "_tree_counts", refused)
        with pytest.raises(ResourceBoundExceeded) as err:
            reduced_homology(0, n)
        assert err.value.chain_ranks is None
        assert str(err.value) == (
            f"(g, n) = (0, {n}) needs at least 2**{n - 1} - {n + 1} generators, "
            "the splits alone, over the cap of 20000"
        )

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 118, 119, 20_000, 2**40])
    def test_splits_bound_refuses_exactly_where_the_splits_pass_the_cap(
        self, monkeypatch, cap
    ):
        # n is clamped before the splits are counted; the clamp must not
        # change which n are refused
        class Reached(Exception):
            pass

        def reached(n):
            raise Reached

        monkeypatch.setattr(homology, "_tree_counts", reached)
        for n in range(3, 64):
            refused = 2 ** (n - 1) - n - 1 > cap
            with pytest.raises(ResourceBoundExceeded if refused else Reached):
                homology._tree_chain_complex(n, cap)

    def test_digit_count_without_text(self):
        rng = random.Random(7)
        values = [1, 9, 10, 99, 100, 2**64, 10**400 - 1, 10**400, 10**4000]
        values += [rng.randrange(1, 10 ** rng.randrange(1, 4000)) for _ in range(200)]
        for x in values:
            assert homology._digits(x) == len(str(x))
            assert homology._digits_at_most(x) >= len(str(x))


class TestOrbitRoute:
    """reduced_homology(g, n) for g >= 1 counts its chain ranks on S_n-orbits
    and labels only the basis."""

    @pytest.mark.parametrize(
        "g,n",
        [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1), (2, 2), (2, 3),
         (2, 4), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)],
    )
    def test_chain_complex_matches_labelled_route(self, g, n, monkeypatch):
        built = []
        build = homology.build_chain_complex

        def kept(link):
            built.append(build(link))
            return built[-1]

        monkeypatch.setattr(homology, "build_chain_complex", kept)
        profile = reduced_homology(g, n)
        labelled = chain_of(g, n)
        assert profile == homology_of_chain(labelled)
        (chain,) = built
        assert chain.basis_by_degree == labelled.basis_by_degree
        assert chain.boundaries == labelled.boundaries
        # labelling every surviving orbit gives the labelled generators
        cells = tuple(complexes._label(c.orbits) for c in chain.generators_by_degree)
        assert cells == labelled.generators_by_degree

    @pytest.mark.parametrize(
        "g,n",
        [(g, n) for g in range(3) for n in range(8)
         if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4],
    )
    def test_orbit_sizes_sum_to_the_f_vector(self, g, n):
        catalog = enumerate_types(g, n)
        levels = [[] for _ in catalog.f_vector]
        orbits = enumeration.enumerate_orbits(g, n)
        for key in orbits.keys:
            size, _ = complexes._orbit(key, orbits.groups.get(key, ()))
            levels[len(key[1])].append((key, size))
        assert tuple(sum(size for _, size in level) for level in levels) == catalog.f_vector
        # labelling every orbit gives the catalog, level by level
        labelled = tuple(key for level in levels for key in complexes._label(level))
        assert labelled == catalog.keys

    def test_labelling_audits_the_orbit_size(self, monkeypatch):
        # without the automorphisms that move a marked vertex, every orbit
        # of a genus-1 cycle with a reflection claims twice its cells
        canonical = enumeration._canonical_group

        def identity_only(*args, **kwargs):
            key, group = canonical(*args, **kwargs)
            return key, group[:1]

        monkeypatch.setattr(enumeration, "_canonical_group", identity_only)
        with pytest.raises(InternalConsistencyError, match="labels into"):
            reduced_homology(1, 4)

    def test_square_zero_audit_catches_one_flipped_sign(self, monkeypatch):
        # the audit composes two nonzero boundaries: (2, 4) has its basis in
        # degrees 4, 5 and 6, and the first sign is read for the boundary
        # out of degree 5; (1, 4) has its basis in degrees 2 and 3 only, so
        # there no flip can be caught
        calls = []

        def first_flipped(sigma):
            calls.append(sigma)
            return -perm_sign(sigma) if len(calls) == 1 else perm_sign(sigma)

        monkeypatch.setattr(homology, "perm_sign", first_flipped)
        with pytest.raises(InternalConsistencyError, match="boundary of boundary"):
            reduced_homology(2, 4)

    def test_route_reads_no_labelled_catalog(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the orbit route must not read the labelled catalog")

        names = ("enumerate_types", "build_poset", "link_cells")
        _patch_everywhere(monkeypatch, (enumeration, complexes, homology), names, refused)
        betti = reduced_homology(2, 4).betti_map()
        assert {p: b for p, b in betti.items() if b} == {5: 1, 6: 3}

    def test_default_cap_refuses_before_labelling_or_contracting(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the cap must refuse before labelling or contracting")

        monkeypatch.setattr(complexes, "_label", refused)
        monkeypatch.setattr(homology, "_contract_raw", refused)
        with pytest.raises(ResourceBoundExceeded) as err:
            reduced_homology(2, 5)
        ranks = (43, 424, 1949, 5383, 9661, 11145, 7525, 2235)
        assert err.value.chain_ranks == ranks
        assert str(err.value) == (
            "(g, n) = (2, 5) needs 38365 generators, over the cap of 20000; "
            f"chain ranks by degree: {list(ranks)}"
        )


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
        chain = reference_chain_complex(build_poset(1, 5))
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
