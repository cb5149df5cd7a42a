"""The tropical moduli space as cells glued along contractions.

Each combinatorial type spans a quotient cone (the nonnegative orthant on its
edges modulo the edge-permutation group); the face poset records which type
arises from which by contraction.  Dropping the cone point and cutting at
volume one turns cones of dimension d into link cells of dimension d - 1: the
link is the poset without its cone point, so one FacePoset carries both.

The self-gluing of a symmetric cone is not stored geometrically: it is
carried entirely by the edge group on each cell, whose parity is exactly what
the homology of the link consumes.

Every (type, edge) contraction is canonicalized once, in build_poset, which
records its target type and incidence sign; covers, link faces and boundary
columns are all read from that one table.  Purity is checked by the
enumeration sweep, so every catalog this module reads is already pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .enumeration import enumerate_types, max_edges
from .graphs import (
    EdgeAutomorphismGroup,
    WeightedMarkedGraph,
    _canonical_raw,
    _contract_raw,
    _edge_relabeling,
    perm_sign,
)


@dataclass(frozen=True)
class Cone:
    """Quotient cone of one combinatorial type."""

    graph: WeightedMarkedGraph

    @property
    def dimension(self) -> int:
        """Dimension of the cone: the number of edges."""
        return self.graph.num_edges

    @cached_property
    def edge_group(self) -> EdgeAutomorphismGroup:
        """Edge-permutation image of the automorphism group, computed once."""
        return self.graph.automorphisms()

    @property
    def is_odd(self) -> bool:
        """Whether some automorphism permutes the edges oddly.

        Two parallel edges, or two loops at one vertex, swap to a
        transposition, so only types without a repeated edge need their
        edge group for the answer.
        """
        edges = self.graph.edges
        return len(set(edges)) < len(edges) or self.edge_group.has_odd_element


@dataclass(frozen=True)
class FacePoset:
    """Types ordered by contraction, and the cells of the volume-1 link.

    covers holds (parent, child, edge) triples: contracting that edge of the
    parent type lands on the child type.  Isomorphic children reached through
    different edges are recorded once per edge, because boundary coefficients
    need the multiplicity.  The full order is the transitive closure.

    signs[k] is the incidence sign of covers[k]: (-1)**edge times the sign of
    the permutation taking the surviving edges, in their order, to the
    child's canonical edge order.

    cells[i] is the cone of type i + 1, since type 0, the cone point, is the
    only edgeless type; a type with d edges gives a cell of dimension d - 1,
    and a cover with child 0 contracts a 1-edge type to the cone point.
    """

    g: int
    n: int
    types: tuple[WeightedMarkedGraph, ...]
    covers: tuple[tuple[int, int, int], ...]
    signs: tuple[int, ...]
    cells: tuple[Cone, ...]

    def maximal_types(self) -> tuple[int, ...]:
        contracted_from = {child for _, child, _ in self.covers}
        return tuple(
            i for i in range(len(self.types)) if i not in contracted_from
        )

    def dimension(self) -> int:
        """Dimension 3g - 4 + n of the link; the enumeration checked purity."""
        return max_edges(self.g, self.n) - 1

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Cells without an odd edge automorphism (the generators of the
        rational chains), by dimension, in cell order; computed once."""
        generators: list[list[int]] = [[] for _ in range(self.dimension() + 1)]
        for i, cone in enumerate(self.cells):
            if not cone.is_odd:
                generators[cone.dimension - 1].append(i)
        return tuple(map(tuple, generators))


def build_poset(g: int, n: int) -> FacePoset:
    """Face poset of the moduli cone complex for (g, n), with incidence signs
    and link cells; edge groups are lazy.

    Catalog entries are canonical triples, so they index themselves; each
    distinct contracted triple is canonicalized once.
    """
    catalog = enumerate_types(g, n)
    index = {key: i for i, key in enumerate(catalog.keys)}
    landing: dict = {}  # contracted triple -> (target index, relabeling sign)
    covers = []
    signs = []
    for i, triple in enumerate(catalog.keys):
        for e in range(len(triple[1])):
            contracted = _contract_raw(*triple, e)
            hit = landing.get(contracted)
            if hit is None:
                key, pos = _canonical_raw(*contracted)
                hit = (index[key], perm_sign(_edge_relabeling(contracted[1], pos)))
                landing[contracted] = hit
            covers.append((i, hit[0], e))
            signs.append(-hit[1] if e % 2 else hit[1])
    del landing  # the cones below reuse the memo's memory
    types = catalog.strata
    cells = tuple(Cone(graph=t) for t in types[1:])
    return FacePoset(g, n, types, tuple(covers), tuple(signs), cells)


def link_cells(g: int, n: int) -> FacePoset:
    """The link of (g, n): its face poset, read through cells and covers."""
    return build_poset(g, n)


def complex_dimension(g: int, n: int) -> int:
    """Dimension 3g - 4 + n of the link, after verifying purity.

    Every contraction-maximal type must have exactly 3g - 3 + n edges.  The
    enumeration sweep checks this as it expands each level and raises an
    internal consistency error naming the first offending type.
    """
    enumerate_types(g, n)
    return max_edges(g, n) - 1


def hasse_dot(poset: FacePoset) -> str:
    """Graphviz source for the Hasse diagram of the face poset."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, t in enumerate(poset.types):
        lines.append(
            f'  t{i} [shape=box, label="#{i}: {t.num_edges}e g{t.genus()}"];'
        )
    seen = set()
    for parent, child, _ in poset.covers:
        if (parent, child) not in seen:
            seen.add((parent, child))
            lines.append(f"  t{child} -> t{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
