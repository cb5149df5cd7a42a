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
Those incidence signs come with the link's faces, so assembling the matrices
canonicalizes nothing.

All ranks are computed by exact integer elimination; no floating point
arithmetic appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import LinkComplex, link_cells
from .enumeration import max_edges, require_stable_range
from .errors import InternalConsistencyError, ResourceBoundExceeded

#: Generator cap used when none is given.  (1, 6) needs 14307 generators and
#: (2, 4) needs 2915, both comfortably under the cap; (2, 5) needs 38365 and
#: beyond, so those long-running jobs must be opted into explicitly.
DEFAULT_MAX_GENERATORS = 20_000

Column = tuple[tuple[int, int], ...]  # sorted (row, coefficient) pairs


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices for the link's rational chain complex.

    generators_by_degree[p] lists the surviving cells of dimension p as
    indices into the originating LinkComplex; boundaries[p] holds one sparse
    column per generator, mapping into degree p - 1 (degree 0 maps to the
    one-dimensional augmentation, row 0).
    """

    g: int
    n: int
    generators_by_degree: tuple[tuple[int, ...], ...]
    boundaries: tuple[tuple[Column, ...], ...]

    def rank_of_chain_group(self, p: int) -> int:
        if p == -1:
            return 1
        if 0 <= p < len(self.generators_by_degree):
            return len(self.generators_by_degree[p])
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


def _generators(link: LinkComplex) -> list[list[int]]:
    """Surviving (not odd) cells of the link, by dimension, in cell order."""
    generators: list[list[int]] = [[] for _ in range(link.dimension() + 1)]
    for i, cone in enumerate(link.cells):
        if not cone.is_odd:
            generators[cone.dimension - 1].append(i)
    return generators


def build_chain_complex(link: LinkComplex) -> ChainComplex:
    """Assemble boundary matrices and verify d(d(x)) = 0 in every degree."""
    generators = _generators(link)
    position = {i: row for gens in generators for row, i in enumerate(gens)}
    columns: dict[int, dict[int, int]] = {i: {} for i in position}
    rows = {**position, -1: 0}  # the cone point is the augmentation row
    for (cell, face, _), sign in zip(link.faces, link.signs):
        entries = columns.get(cell)
        row = rows.get(face)
        if entries is not None and row is not None:
            entries[row] = entries.get(row, 0) + sign
    boundaries = tuple(
        tuple(
            tuple(sorted((r, c) for r, c in columns[i].items() if c != 0))
            for i in gens
        )
        for gens in generators
    )
    complex_ = ChainComplex(
        g=link.g,
        n=link.n,
        generators_by_degree=tuple(tuple(g) for g in generators),
        boundaries=boundaries,
    )
    _verify_square_zero(complex_)
    return complex_


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


def sparse_integer_rank(columns) -> int:
    """Exact rank of an integer matrix given as sparse columns.

    Fraction-free elimination with a fill-reducing pivot rule: pick the
    occupied column with fewest entries, then its shortest row.  Updated rows
    are divided by their content (gcd) to keep entries small.  The result is
    deterministic and uses only arbitrary-precision integers.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, col in enumerate(columns):
        if col:
            rows[i] = dict(col)
    occupancy: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            occupancy.setdefault(c, set()).add(i)
    rank = 0
    while rows:
        c = min(occupancy, key=lambda col: (len(occupancy[col]), col))
        r = min(occupancy[c], key=lambda i: (len(rows[i]), i))
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
        rank += 1
    return rank


def reduced_homology(
    g: int,
    n: int,
    threads: int = 1,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> HomologyProfile:
    """Exact reduced rational Betti numbers of the link of (g, n)."""
    require_stable_range(g, n)
    link = link_cells(g, n, threads=threads)
    chain = chain_complex_within_bounds(link, max_generators=max_generators)
    return homology_of_chain(chain)


def chain_complex_within_bounds(
    link: LinkComplex,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> ChainComplex:
    """Build the chain complex unless the generator cap would be exceeded."""
    if max_generators is not None:
        sizes = tuple(map(len, _generators(link)))
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
    top = max_edges(chain.g, chain.n) - 1
    dims = [chain.rank_of_chain_group(p) for p in range(-1, top + 1)]

    def boundary_rank(p: int) -> int:
        if 0 <= p <= chain.top_degree():
            return sparse_integer_rank(chain.boundaries[p])
        return 0

    ranks = {p: boundary_rank(p) for p in range(0, top + 2)}
    ranks[-1] = 0
    betti = [
        dims[p + 1] - ranks[p] - ranks[p + 1] for p in range(-1, top + 1)
    ]
    euler_from_betti = sum(
        (1 if (p - 1) % 2 == 0 else -1) * b for p, b in enumerate(betti)
    )
    euler_from_ranks = sum(
        (1 if (p - 1) % 2 == 0 else -1) * d for p, d in enumerate(dims)
    )
    if euler_from_betti != euler_from_ranks:
        raise InternalConsistencyError(
            f"euler characteristic mismatch for (g, n) = "
            f"({chain.g}, {chain.n}): {euler_from_betti} from Betti numbers, "
            f"{euler_from_ranks} from chain ranks"
        )
    if any(b < 0 for b in betti):
        raise InternalConsistencyError(
            f"negative Betti number for (g, n) = ({chain.g}, {chain.n})"
        )
    return HomologyProfile(
        g=chain.g,
        n=chain.n,
        chain_ranks=tuple(dims),
        reduced_betti=tuple(betti),
        euler_reduced=euler_from_betti,
    )


def euler_characteristic(
    g: int,
    n: int,
    threads: int = 1,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> int:
    """Reduced Euler characteristic, audited two ways inside the profile."""
    profile = reduced_homology(g, n, threads=threads, max_generators=max_generators)
    return profile.euler_reduced


def top_weight_cohomology(
    g: int,
    n: int,
    threads: int = 1,
    max_generators: int | None = DEFAULT_MAX_GENERATORS,
) -> dict[int, int]:
    """Top-weight cohomology ranks of the moduli space of curves; see
    HomologyProfile.top_weight."""
    profile = reduced_homology(g, n, threads=threads, max_generators=max_generators)
    return profile.top_weight()
