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
on killed cells are dropped.  Degree -1 holds the augmentation: contracting
the single edge of a 0-cell lands on the edgeless type with coefficient +1.
Only the matrix basis is contracted, one degree at a time: a contraction
with a repeated edge lands on a killed cell and is dropped before it is
canonicalized, and each remaining distinct contraction of a degree is
canonicalized once, which gives its target and its sign.  The parity of
every cell is read from its canonical triple, so no graph, cone or face
poset cover is built, and the generator cap refuses a job before any
contraction.

For g >= 1 the matrices are those of the pair (link, link^lw), where
link^lw is the subcomplex of cells with a loop or a vertex of positive
weight.  It is contractible (Chan, Galatius and Payne, arXiv 1805.10186 for
n = 0 and arXiv 1903.07187 with marked points), so the reduced homology of
the link equals the homology of the pair.  Its basis is the surviving cells
of weight 0 without a loop or a repeated edge (Kontsevich's graph complex
with legs).  Contracting a non-loop edge of such a graph makes no loop and no
weight; a result with a parallel pair is odd, and any other result is again
in the basis unless it is killed.  So no face lands in link^lw, and there is
no augmentation row.  For g = 0, link^lw is empty and the basis is every
surviving cell, with the augmentation.

Ranks are taken in cohomology order.  The boundary out of degree p is
transposed into the coboundary delta_p, whose columns are the basis cells
("generators" below) of degree p - 1, and the coboundaries are reduced from
the bottom degree up.  Clearing (Bauer, Kerber and Reininghaus, "Clear and Compress"; Bauer,
"Ripser"): the pivot rows of an elimination of delta_{p-1} index generators
of degree p - 1 whose coordinates determine every vector in the image of
delta_{p-1}, so each of those generators is a coboundary plus a combination
of the other generators.  Since d(d(x)) = 0, delta_p kills every coboundary,
so the column of such a generator is a combination of the others and is
skipped without changing the rank of delta_p.  The lemma is only as good as
d(d(x)) = 0, which is why build_chain_complex audits every degree before any
rank is taken: a wrong incidence sign fails loudly there, instead of giving
a wrong rank here.

The Euler characteristic is read off the chain ranks, the counts of all
surviving cells.  The alternating sum of the Betti numbers telescopes to
that of the basis ranks, and the two must agree: for g >= 1 they come from
different complexes, so every run checks the contractibility step, while for
g = 0 the check is a tautology.  A negative Betti number is refused.

All ranks are computed by exact integer elimination; no floating point
arithmetic appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .complexes import FacePoset, _repeated_edge, link_cells
from .enumeration import max_edges, require_stable_range
from .errors import InternalConsistencyError, ResourceBoundExceeded
from .graphs import _canonical_raw, _contract_raw, _edge_relabeling, perm_sign

#: Generator cap used when none is given.  It counts surviving cells (the
#: chain ranks, what enumeration and parity pay for), not matrix columns:
#: (2, 4) has 2915 and 180.  (1, 6) needs 14307, under the cap; (2, 5) needs
#: 38365 and beyond, so those long-running jobs must be opted into explicitly.
DEFAULT_MAX_GENERATORS = 20_000

Column = tuple[tuple[int, int], ...]  # sorted (row, coefficient) pairs


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices for the link's rational chain complex.

    generators_by_degree[p] lists the surviving cells of dimension p as
    cell indices of the originating FacePoset; they give the chain ranks.
    basis_by_degree[p] is the part of them that indexes the matrices: every
    generator for g = 0, the simple weight-0 ones of the pair (link,
    link^lw) for g >= 1 (see the module docstring).  boundaries[p] holds one
    sparse column per basis cell of degree p, mapping into the basis of
    degree p - 1; for g = 0, degree 0 maps to the one-dimensional
    augmentation, row 0, and for g >= 1 there is no augmentation.
    """

    g: int
    n: int
    generators_by_degree: tuple[tuple[int, ...], ...]
    basis_by_degree: tuple[tuple[int, ...], ...]
    boundaries: tuple[tuple[Column, ...], ...]

    def rank_of_chain_group(self, p: int) -> int:
        if p == -1:
            return 1
        if 0 <= p < len(self.generators_by_degree):
            return len(self.generators_by_degree[p])
        return 0

    def rank_of_basis(self, p: int) -> int:
        if p == -1:
            return int(self.g == 0)
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


def build_chain_complex(link: FacePoset) -> ChainComplex:
    """Assemble boundary matrices over the basis (the generators for g = 0,
    the simple weight-0 ones for g >= 1) and verify d(d(x)) = 0 in every
    degree."""
    generators = link.generators
    if link.g == 0:
        basis = generators
        rows = {link.keys[0]: 0}  # the cone point is the augmentation row
    else:
        basis = tuple(
            tuple(i for i in gens if _simple_weight_zero(*link.keys[i + 1]))
            for gens in generators
        )
        rows = {}
    boundaries = []
    for cells in basis:
        keys = [link.keys[i + 1] for i in cells]  # cell i is type i + 1
        boundaries.append(_boundary_columns(keys, rows))
        rows = {key: row for row, key in enumerate(keys)}
    complex_ = ChainComplex(
        g=link.g,
        n=link.n,
        generators_by_degree=generators,
        basis_by_degree=basis,
        boundaries=tuple(boundaries),
    )
    _verify_square_zero(complex_)
    return complex_


def _simple_weight_zero(weights, edges, markings) -> bool:
    """Whether a type lies outside link^lw and has no repeated edge."""
    return (
        not any(weights)
        and all(u != v for u, v in edges)
        and not _repeated_edge(edges)
    )


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
    require_stable_range(g, n)
    link = link_cells(g, n)
    chain = chain_complex_within_bounds(link, max_generators=max_generators)
    return homology_of_chain(chain)


def chain_complex_within_bounds(
    link: FacePoset,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> ChainComplex:
    """Build the chain complex unless the generator cap would be exceeded;
    the cap reads only the surviving cells, so it refuses before any
    contraction."""
    if max_generators is not None:
        sizes = tuple(map(len, link.generators))
        total = sum(sizes)
        if total > max_generators:
            raise ResourceBoundExceeded(
                f"(g, n) = ({link.g}, {link.n}) needs {total} generators, "
                f"over the cap of {max_generators}; chain ranks by degree: "
                f"{list(sizes)}",
                chain_ranks=sizes,
            )
    return build_chain_complex(link)


def homology_of_chain(chain: ChainComplex) -> HomologyProfile:
    """Reduced Betti numbers b_p = dim B_p - r_p - r_(p+1) from exact ranks,
    where B_p is the matrix basis of degree p.

    The Euler characteristic is read off the chain ranks, the counts of all
    surviving cells.  With r_(-1) = r_(top+1) = 0, the alternating sum of the
    Betti numbers telescopes to that of the basis ranks; it must equal the
    Euler characteristic, which for g >= 1 checks that link^lw contributes
    nothing.  A negative Betti number is refused.
    """
    top = max_edges(chain.g, chain.n) - 1
    degrees = range(-1, top + 1)
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
