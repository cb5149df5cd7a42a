"""Reduced rational homology of the link, and the top-weight translation.

Chains are the standard rational chains of a quotient cell complex: orient a
cell by a total order on its edges; relabeling acts by permutation sign, so a
cell admitting an orientation-reversing (odd) edge automorphism is the zero
chain and is dropped from the generator list.  In particular any cell with
two parallel edges or two loops at a vertex dies immediately, since swapping
them is an odd automorphism.

The boundary of a surviving cell with ordered edges e_0 < ... < e_p is the
alternating sum over i of its contraction at e_i, rewritten to the canonical
representative with the sign of the comparison permutation; summands landing
on killed cells are dropped.  Degree -1 holds the cone point: contracting
the single edge of a 0-cell lands on the edgeless type with coefficient +1.
Only the matrix basis is contracted, one degree at a time: a contraction
with a repeated edge lands on a killed cell and is dropped before it is
canonicalized, and each remaining distinct contraction of a degree is
canonicalized once, which gives its target and its sign.  The parity of
every cell is read from its orbit (below), so no graph, cone or face poset
cover is built, and the generator cap refuses a job before any contraction.

The matrices are those of the augmented chains of the link modulo those of
link^lw, the cells with a loop or a vertex of positive weight, the cone point
of degree -1 included.  For g >= 1 link^lw is contractible (Chan, Galatius
and Payne, arXiv 1805.10186 for n = 0 and arXiv 1903.07187 with marked
points), so its augmented chains are acyclic; for g = 0 it is empty.  Either
way the quotient has the reduced homology of the link, and its basis in
every degree is the surviving cells of weight 0 without a loop or a repeated
edge (Kontsevich's graph complex with legs); every genus-0 type, the cone
point included, is one.  Contracting a non-loop edge of such a graph makes no
loop and no weight; a result with a parallel pair is odd, and any other
result is again in the basis unless it is killed, so no face lands in
link^lw.

Ranks are taken in cohomology order.  The boundary out of degree p is
transposed into the coboundary delta_p, whose columns are the basis cells of
degree p - 1, and the coboundaries are reduced from the bottom degree up.
Clearing (Bauer, Kerber and Reininghaus, "Clear and Compress"; Bauer,
"Ripser"): the pivot rows of an elimination of delta_{p-1} index basis cells
of degree p - 1 whose coordinates determine every vector in the image of
delta_{p-1}, so each of those basis cells is a coboundary plus a combination
of the other basis cells.  Since d(d(x)) = 0, delta_p kills every
coboundary, so the column of such a basis cell is a combination of the others
and is skipped without changing the rank of delta_p.  The lemma is only as
good as d(d(x)) = 0, which is why build_chain_complex audits every degree
before any rank is taken: a wrong incidence sign fails loudly there, instead
of giving a wrong rank here.

The Euler characteristic is read off the chain ranks, the counts of all
surviving cells.  The alternating sum of the Betti numbers telescopes to
that of the basis ranks, and the two must agree: unless link^lw is empty
they come from different complexes, so every run checks the contractibility
step.  A negative Betti number is refused.

For g >= 1 the chain ranks come from S_n-orbits.  S_n permutes the
markings, and with them the cells; the basis test reads no marking.  So
reduced_homology reads the OrbitCatalog of enumerate_orbits, which gives
each orbit's size and parity and labels only the orbits in the basis (see
the enumeration module).  The generator cap reads the sizes.  The boundary
columns and every audit are then those of the labelled catalog, whose chain
complex the tests build cell by labelled cell as their oracle
(tests/oracles.reference_chain_complex).  Before the sweep, the cap reads a
lower bound on the one-edge cells that grows with g alone, so a genus far
past any cap is refused without sweeping.  Chan, Galatius and Payne (arXiv
1903.07187) read the top-weight cohomology of M_{g,n} off this
S_n-equivariant link, and Chan, Faber, Galatius and Payne (arXiv
1904.06367) compute its equivariant Euler characteristic from the same
orbit data.

Genus 0 takes a route of its own, from splits.  A stable genus-0 type is a
tree whose leaves are the markings, and each of its edges is a split of the
markings into two sides of two or more.  A set of splits comes from a tree
iff the splits are pairwise compatible (Buneman, 1971), so the link is the
flag simplicial complex of split compatibility: the space of phylogenetic
trees (Billera, Holmes and Vogtmann, "Geometry of the space of phylogenetic
trees", 2001).  The markings are distinct, so no cell has an automorphism
and every cell survives.  A cell is the sorted tuple of its split indices,
oriented by that order: the face without position i has coefficient
(-1)**i, the simplicial orientation, and a vertex maps to the cone point
with +1.  Nothing is enumerated or labelled.  The matrices differ from
those of the labelled trees by that change of orientation and order, so the
chain ranks, Betti numbers and Euler characteristic are the same, and the
tests' labelled oracle checks them.  The generator cap reads the number of
splits, then the chain ranks from a closed form for the number of trees,
before any split is listed; the listed cells must match it, and the
d(d(x)) = 0 and Euler audits run as on the orbit route.

All ranks are computed by exact integer elimination; no floating point
arithmetic appears anywhere in this module.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .enumeration import OrbitCatalog, enumerate_orbits, max_edges, require_stable_range
from .errors import InternalConsistencyError, ResourceBoundExceeded
from .graphs import _canonical_raw, _contract_raw, _edge_relabeling, _repeated_edge, perm_sign

#: Generator cap used when none is given.  It counts surviving cells (the
#: chain ranks), not matrix columns: (2, 4) has 2915 and 180.  (1, 6) needs
#: 14307, under the cap; (2, 5) needs 38365, so it and every larger job must
#: be opted into explicitly, although the orbit route now runs (2, 5) in
#: about a second.  The refusals the tests pin depend on this value.
DEFAULT_MAX_GENERATORS = 20_000

Column = tuple[tuple[int, int], ...]  # sorted (row, coefficient) pairs


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices for the link's rational chain complex.

    generators_by_degree[p] holds the surviving cells of dimension p; their
    number is the chain rank.  basis_by_degree[p] holds the canonical triples
    that index the matrices, in catalog order: the surviving cells outside
    link^lw (see the module docstring).  boundaries[p] holds one sparse
    column per basis cell of degree p, mapping into the basis of degree
    p - 1; the basis of degree -1 is the cone point when it passes the same
    test, and is empty otherwise.

    On the orbit route of reduced_homology (g >= 1) each generators_by_degree
    entry is an OrbitCells of enumeration.OrbitCatalog.generators, counted
    from the orbits and labelled only where read.  On the genus-0 route both
    lists hold the cells as sorted tuples of split indices instead, every
    cell in the basis.  The tests' labelled oracle,
    tests/oracles.reference_chain_complex, holds canonical triples in
    catalog order in both.
    """

    g: int
    n: int
    generators_by_degree: tuple[Sized, ...]
    basis_by_degree: tuple[tuple[tuple, ...], ...]
    boundaries: tuple[tuple[Column, ...], ...]

    def rank_of_chain_group(self, p: int) -> int:
        if p == -1:
            return 1
        if 0 <= p < len(self.generators_by_degree):
            return len(self.generators_by_degree[p])
        return 0

    def rank_of_basis(self, p: int) -> int:
        if p == -1:
            return int(_simple_weight_zero((self.g,), (), (0,) * self.n))
        if 0 <= p < len(self.basis_by_degree):
            return len(self.basis_by_degree[p])
        return 0

    def top_degree(self) -> int:
        return len(self.generators_by_degree) - 1


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers of the link, indexed from degree -1 upward."""

    g: int
    n: int
    chain_ranks: tuple[int, ...]  # degrees -1 .. 3g-4+n
    reduced_betti: tuple[int, ...]  # same indexing
    euler_reduced: int

    def betti(self, degree: int) -> int:
        i = degree + 1
        if 0 <= i < len(self.reduced_betti):
            return self.reduced_betti[i]
        return 0

    def betti_map(self) -> dict[int, int]:
        return {
            degree - 1: rank for degree, rank in enumerate(self.reduced_betti)
        }

    def top_degree(self) -> int:
        return len(self.reduced_betti) - 2

    def top_weight(self) -> dict[int, int]:
        """Top-weight cohomology ranks of the moduli space of curves.

        With d = 3g - 3 + n, the rank in cohomological degree k equals the
        reduced Betti number of the link in degree 2d - k - 1; the map covers
        every degree that can carry top weight, k = d .. 2d.
        """
        d = max_edges(self.g, self.n)
        return {k: self.betti(2 * d - k - 1) for k in range(d, 2 * d + 1)}


def build_chain_complex(link: OrbitCatalog) -> ChainComplex:
    """Assemble boundary matrices over the basis, the cells outside link^lw
    in every degree from the cone point's up, and verify d(d(x)) = 0 in
    every degree.  Orbit cells are tested by their orbits' unlabelled
    triples, which have the weights and edges of their labelled cells, and
    only the orbits that pass are labelled."""
    generators = link.generators
    cone = ((link.g,), (), (0,) * link.n)
    basis = (
        (cone,) if _simple_weight_zero(*cone) else (),
        *(cells.where(_simple_weight_zero) for cells in generators),
    )
    complex_ = ChainComplex(
        g=link.g,
        n=link.n,
        generators_by_degree=generators,
        basis_by_degree=basis[1:],
        boundaries=tuple(
            _boundary_columns(keys, {key: row for row, key in enumerate(below)})
            for below, keys in zip(basis, basis[1:])
        ),
    )
    _verify_square_zero(complex_)
    return complex_


def _simple_weight_zero(weights, edges, markings) -> bool:
    """Whether a surviving type lies outside link^lw: weight 0 and no loop.
    It has no repeated edge, since parity has already killed every type with
    one.  For g = 0 every type passes, the cone point included."""
    return not any(weights) and all(u != v for u, v in edges)


def _boundary_columns(keys, rows: dict) -> tuple[Column, ...]:
    """Boundary column of each canonical triple in keys, all with one edge
    count.

    rows maps the canonical key of each row's type to its row; summands
    landing elsewhere are dropped.  A contraction with a repeated edge lands
    on an odd type, so it is dropped before canonicalizing.  The summand of
    edge e is (-1)**e times the sign of the permutation taking the surviving
    edges, in their order, to the target's canonical edge order.  Equal
    contracted triples come only from parents with equal edge counts, so the
    memo lives for one call.  Columns are sorted (row, coefficient) pairs
    without zeros.
    """
    landing: dict = {}
    columns = []
    for triple in keys:
        entries: dict[int, int] = {}
        for e in range(len(triple[1])):
            contracted = _contract_raw(*triple, e)
            if _repeated_edge(contracted[1]):
                continue
            hit = landing.get(contracted)
            if hit is None:
                key, pos = _canonical_raw(*contracted)
                sign = perm_sign(_edge_relabeling(contracted[1], pos))
                hit = landing[contracted] = (rows.get(key), sign)
            row, sign = hit
            if row is not None:
                entries[row] = entries.get(row, 0) + (-sign if e % 2 else sign)
        columns.append(tuple(sorted((r, c) for r, c in entries.items() if c)))
    return tuple(columns)


def _verify_square_zero(chain: ChainComplex) -> None:
    for p in range(1, chain.top_degree() + 1):
        lower = chain.boundaries[p - 1]
        for col in chain.boundaries[p]:
            acc: dict[int, int] = {}
            for mid, c1 in col:
                for row, c2 in lower[mid]:
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(v != 0 for v in acc.values()):
                raise InternalConsistencyError(
                    f"boundary of boundary is nonzero in degree {p} "
                    f"for (g, n) = ({chain.g}, {chain.n})"
                )


def sparse_integer_rank(columns, pivot_rows: list[int] | None = None) -> int:
    """Exact rank of an integer matrix given as sparse columns.

    Fraction-free elimination with a fill-reducing pivot rule: pick the
    occupied row with fewest entries (ties to the lower index), then its
    shortest column.  Updated columns are divided by their content (gcd) to
    keep entries small.  The occupied rows wait in a heap keyed by
    (occupancy, row) with lazy deletion: a step re-pushes each row of its
    pivot column, the only rows whose occupancy can change, and an entry
    whose occupancy is out of date is dropped when it surfaces.  So every
    pivot is the one a scan over all occupied rows would pick.

    If pivot_rows is given, the pivot row of each step is appended to it.
    The standard basis vectors of the other rows span a complement of the
    column space; clearing in cohomology order (see the module docstring)
    reads the pivot rows of one coboundary as the columns to skip in the
    next.  The result is deterministic and uses only arbitrary-precision
    integers.
    """
    # Internally the input columns are the eliminated vectors ("rows" below,
    # keyed by column index) and occupancy maps a matrix row to the vectors
    # that have an entry in it.
    rows: dict[int, dict[int, int]] = {}
    for i, col in enumerate(columns):
        if col:
            rows[i] = dict(col)
    occupancy: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            occupancy.setdefault(c, set()).add(i)
    queue = [(len(members), c) for c, members in occupancy.items()]
    heapify(queue)
    rank = 0
    while rows:
        size, c = heappop(queue)
        members = occupancy.get(c)
        if members is None or len(members) != size:
            continue
        r = min(members, key=lambda i: (len(rows[i]), i))
        pivot_row = rows.pop(r)
        for col in pivot_row:
            occupancy[col].discard(r)
            if not occupancy[col]:
                del occupancy[col]
        a = pivot_row[c]
        for j in sorted(occupancy.get(c, ())):
            row = rows[j]
            b = row[c]
            new_row = {col: a * val for col, val in row.items()}
            for col, val in pivot_row.items():
                merged = new_row.get(col, 0) - b * val
                if merged:
                    new_row[col] = merged
                else:
                    new_row.pop(col, None)
            for col in row:
                if col not in new_row:
                    occupancy[col].discard(j)
                    if not occupancy[col]:
                        del occupancy[col]
            content = 0
            for val in new_row.values():
                content = gcd(content, val)
            if content > 1:
                new_row = {col: val // content for col, val in new_row.items()}
            for col in new_row:
                occupancy.setdefault(col, set()).add(j)
            if new_row:
                rows[j] = new_row
            else:
                del rows[j]
        for col in pivot_row:
            members = occupancy.get(col)
            if members:
                heappush(queue, (len(members), col))
        if pivot_rows is not None:
            pivot_rows.append(c)
        rank += 1
    return rank


def _coboundary_ranks(chain: ChainComplex) -> list[int]:
    """Rank of the boundary out of degree p, for p = 0 .. top degree.

    Walks the coboundaries from the bottom degree up and skips the columns
    that the previous degree's pivot rows clear (see the module docstring);
    the chain must have passed the d(d(x)) = 0 audit of build_chain_complex.
    Only one transposed degree is alive at a time.
    """
    ranks = []
    cleared: set[int] = set()
    for p, boundary in enumerate(chain.boundaries):
        kept = {
            i: [] for i in range(chain.rank_of_basis(p - 1)) if i not in cleared
        }
        for j, col in enumerate(boundary):
            for i, c in col:
                column = kept.get(i)
                if column is not None:
                    column.append((j, c))
        pivots: list[int] = []
        ranks.append(sparse_integer_rank(list(kept.values()), pivots))
        del kept
        cleared = set(pivots)
    return ranks


def reduced_homology(
    g: int, n: int, max_generators: int | None = DEFAULT_MAX_GENERATORS
) -> HomologyProfile:
    """Exact reduced rational Betti numbers of the link of (g, n)."""
    if g == 0:
        return homology_of_chain(_tree_chain_complex(n, max_generators))
    require_stable_range(g, n)
    _refuse_by_genus(g, n, max_generators)
    link = enumerate_orbits(g, n)
    chain = chain_complex_within_bounds(link, max_generators=max_generators)
    return homology_of_chain(chain)


def _refuse_by_genus(g: int, n: int, max_generators: int | None) -> None:
    """Raise ResourceBoundExceeded, before any sweep, when for g >= 1 the
    one-edge cells alone pass max_generators.  Each one-edge cell survives.
    Counted are the loop and, for each stable genus split, the separating
    edge with every marking on one side: 1 + g // 2 of them for n = 0, g
    for n = 1 and g + 1 for n >= 2, a bound that grows with g alone.  The
    cap is below the bound, which is at most g + 1, so a genus of at most
    100 digits leaves every number short; a longer one is given by its
    digit count."""
    bound = 1 + g // 2 if n == 0 else g if n == 1 else g + 1
    if max_generators is None or bound <= max_generators:
        return
    if _digits_at_most(g) > 100:
        raise ResourceBoundExceeded(
            f"(g, n) = (a {_digits(g)}-digit genus, {n}) needs more generators "
            "than the cap, its one-edge cells alone"
        )
    raise ResourceBoundExceeded(
        f"(g, n) = ({g}, {n}) needs at least {bound} generators, its one-edge "
        f"cells alone, over the cap of {max_generators}"
    )


def chain_complex_within_bounds(
    link: OrbitCatalog,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> ChainComplex:
    """Build the chain complex unless the generator cap would be exceeded;
    the cap reads only the surviving cells, so it refuses before any
    contraction."""
    _refuse_over_cap(link.g, link.n, tuple(map(len, link.generators)), max_generators)
    return build_chain_complex(link)


def _refuse_over_cap(
    g: int, n: int, sizes: tuple[int, ...], max_generators: int | None
) -> None:
    """Raise ResourceBoundExceeded when the chain ranks sizes, by degree
    from 0, sum to more than max_generators (None is no cap).

    The message lists every rank unless a bound on their digits, read from
    their bits, says the list would pass 800 characters; then it gives only
    the number of digits of the total, so it stays one short line even where
    the ranks have too many digits to convert to text.  The exception keeps
    the exact ranks either way."""
    total = sum(sizes)
    if max_generators is None or total <= max_generators:
        return
    if sum(_digits_at_most(x) + 2 for x in (total, *sizes)) <= 800:
        needs = f"{total} generators"
        ranks = f"chain ranks by degree: {list(sizes)}"
    else:
        needs = f"a {_digits(total)}-digit number of generators"
        ranks = f"{len(sizes)} chain ranks by degree, too long to list"
    raise ResourceBoundExceeded(
        f"(g, n) = ({g}, {n}) needs {needs}, over the cap of {max_generators}; {ranks}",
        chain_ranks=sizes,
    )


def _digits_at_most(x: int) -> int:
    """An upper bound on the decimal digits of x >= 0: log10(2) < 0.30103."""
    return x.bit_length() * 30103 // 100000 + 1


def _digits(x: int) -> int:
    """The decimal digits of x > 0, counted without converting x to text."""
    d = _digits_at_most(x)
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


def _tree_counts(n: int) -> tuple[int, ...]:
    """Trees with leaves 0 .. n - 1 and k internal edges, for k = 0 .. n - 3.

    Deleting leaf m from a tree on leaves 0 .. m is undone in one way: leaf
    m joins one of the k + 1 internal vertices of a tree with k internal
    edges, or subdivides one of the m + k - 1 edges of a tree with k - 1:
    T(m + 1, k) = (k + 1) T(m, k) + (m + k - 1) T(m, k - 1), T(3, 0) = 1.
    """
    counts = [1]
    for m in range(3, n):
        padded = [0, *counts, 0]
        counts = [
            (k + 1) * padded[k + 1] + (m + k - 1) * padded[k]
            for k in range(len(counts) + 1)
        ]
    return tuple(counts)


def _splits(n: int) -> tuple[int, ...]:
    """The splits of markings 0 .. n - 1 with two or more on each side, each
    the bitmask of its side without marking n - 1, in increasing order."""
    return tuple(a for a in range(1 << (n - 1)) if 2 <= a.bit_count() <= n - 2)


def _split_cliques(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The cells of the genus-0 link by degree p = 0 .. n - 4: the sets of
    p + 1 pairwise compatible splits, as sorted tuples of split indices, in
    lexicographic order.

    Two sides without marking n - 1 are compatible iff they are disjoint or
    nested.  Each clique keeps the bitmask of the later splits compatible
    with all of its own, so every extension is read off one integer.
    """
    masks = _splits(n)
    compatible = [
        sum(1 << j for j, b in enumerate(masks) if (a & b) in (0, a, b)) for a in masks
    ]
    # -(2 << i) clears the bits 0 .. i
    level = [((i,), c & -(2 << i)) for i, c in enumerate(compatible)]
    cells = []
    for _ in range(n - 3):
        cells.append(tuple(cell for cell, _ in level))
        extended = []
        for cell, candidates in level:
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                j = low.bit_length() - 1
                extended.append((cell + (j,), candidates & compatible[j]))
        level = extended
    return tuple(cells)


def _simplicial_boundaries(cells) -> tuple[tuple[Column, ...], ...]:
    """Boundary columns of sorted simplices listed by degree: the face
    without position i has coefficient (-1)**i, and a vertex maps to the
    cone point row with +1."""
    boundaries = [tuple(((0, 1),) for _ in cells[0])] if cells else []
    for below, above in zip(cells, cells[1:]):
        rows = {cell: row for row, cell in enumerate(below)}
        boundaries.append(tuple(
            tuple(sorted((rows[c[:i] + c[i + 1 :]], (-1) ** i) for i in range(len(c))))
            for c in above
        ))
    return tuple(boundaries)


def _tree_chain_complex(n: int, max_generators: int | None) -> ChainComplex:
    """The chain complex of the genus-0 link from splits (see the module
    docstring), after the generator cap reads the chain ranks off
    _tree_counts and before any split is listed; audited for d(d(x)) = 0.
    First the cap reads the 2**(n-1) - n - 1 splits, the cells of degree 0,
    since _tree_counts is quadratic in n; they grow with n, so n is clamped
    where they pass any cap."""
    require_stable_range(0, n)
    if max_generators is not None:
        m = min(n, max_generators.bit_length() + 4)
        if (1 << (m - 1)) - m - 1 > max_generators:
            raise ResourceBoundExceeded(
                f"(g, n) = (0, {n}) needs at least 2**{n - 1} - {n + 1} generators, "
                f"the splits alone, over the cap of {max_generators}"
            )
    ranks = _tree_counts(n)[1:]
    _refuse_over_cap(0, n, ranks, max_generators)
    cells = _split_cliques(n)
    if tuple(map(len, cells)) != ranks:
        raise InternalConsistencyError(
            f"(g, n) = (0, {n}) has {list(map(len, cells))} sets of compatible "
            f"splits by degree, but {list(ranks)} trees"
        )
    chain = ChainComplex(0, n, cells, cells, _simplicial_boundaries(cells))
    _verify_square_zero(chain)
    return chain


def homology_of_chain(chain: ChainComplex) -> HomologyProfile:
    """Reduced Betti numbers b_p = dim B_p - r_p - r_(p+1) from exact ranks,
    where B_p is the matrix basis of degree p.

    The Euler characteristic is read off the chain ranks, the counts of all
    surviving cells.  With r_(-1) = r_(top+1) = 0, the alternating sum of the
    Betti numbers telescopes to that of the basis ranks, the cone point
    counted in degree -1 when it is in the basis; it must equal the Euler
    characteristic, which checks that link^lw contributes nothing.  A
    negative Betti number is refused.
    """
    degrees = range(-1, chain.top_degree() + 1)
    dims = [chain.rank_of_chain_group(p) for p in degrees]

    rank = dict(enumerate(_coboundary_ranks(chain)))
    betti = [
        chain.rank_of_basis(p) - rank.get(p, 0) - rank.get(p + 1, 0)
        for p in degrees
    ]
    if any(b < 0 for b in betti):
        raise InternalConsistencyError(
            f"negative Betti number for (g, n) = ({chain.g}, {chain.n})"
        )
    euler = _alternating_sum(dims)
    from_betti = _alternating_sum(betti)
    if from_betti != euler:
        raise InternalConsistencyError(
            f"Betti numbers of (g, n) = ({chain.g}, {chain.n}) sum to "
            f"{from_betti}, but the chain ranks give Euler characteristic {euler}"
        )
    return HomologyProfile(
        g=chain.g,
        n=chain.n,
        chain_ranks=tuple(dims),
        reduced_betti=tuple(betti),
        euler_reduced=euler,
    )


def _alternating_sum(by_degree) -> int:
    """Sum of (-1)**p x_p over a sequence indexed from degree -1."""
    return sum(x if p % 2 == 0 else -x for p, x in enumerate(by_degree, -1))


def euler_characteristic(
    g: int, n: int, max_generators: int | None = DEFAULT_MAX_GENERATORS
) -> int:
    """Reduced Euler characteristic of the link, from its chain ranks."""
    profile = reduced_homology(g, n, max_generators=max_generators)
    return profile.euler_reduced


def top_weight_cohomology(
    g: int, n: int, max_generators: int | None = DEFAULT_MAX_GENERATORS
) -> dict[int, int]:
    """Top-weight cohomology ranks of the moduli space of curves; see
    HomologyProfile.top_weight."""
    profile = reduced_homology(g, n, max_generators=max_generators)
    return profile.top_weight()
