"""The tropical moduli space as cells glued along contractions.

Each combinatorial type spans a quotient cone (the nonnegative orthant on its
edges modulo the edge-permutation group); the face poset records which type
arises from which by contraction.  Dropping the cone point and cutting at
volume one turns cones of dimension d into link cells of dimension d - 1: the
link is the poset without its cone point, so one FacePoset carries both.

The self-gluing of a symmetric cone is not stored geometrically: it is
carried entirely by the edge group on each cell, whose parity is exactly what
the homology of the link consumes.

A FacePoset is the enumerated catalog, and it builds everything else on
first read, so each consumer pays only for what it reads.  The covers and
the edge groups of the complex output read the vertex automorphisms that
the catalog keeps for each type.  The cones build graph objects for callers
that want them.  The poset is unsigned: incidence signs orient the
chain complex, so they live in the homology module.  Purity is checked by
the enumeration sweep, so every catalog this module reads is already pure.
Homology reads no FacePoset: it reads S_n-orbits (enumeration.OrbitCatalog)
for g >= 1 and splits for g = 0.  The chain complex of a FacePoset, cell by
labelled cell, is the tests' oracle (tests/oracles.reference_chain_complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .enumeration import TypeCatalog, enumerate_orbits, enumerate_types, max_edges
from .errors import InternalConsistencyError
from .graphs import (
    EdgeAutomorphismGroup,
    WeightedMarkedGraph,
    _canonical_raw,
    _contract_raw,
    _start_sorted,
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


class FacePoset(TypeCatalog):
    """The enumerated catalog ordered by contraction: the face poset of the
    cone complex, and the cells of its volume-1 link.

    It is the TypeCatalog of (g, n) itself, so type i is keys[i] and its
    graph strata[i]; only the order is added, built on first read.

    covers holds (parent, child, edge) triples: contracting that edge of the
    parent type lands on the child type.  Isomorphic children reached through
    different edges are recorded once per edge, because boundary coefficients
    need the multiplicity.  The full order is the transitive closure.  A
    contraction outside the catalog is an internal consistency error.

    cells[i] is the cone of type i + 1, since type 0, the cone point, is the
    only edgeless type; a type with d edges gives a cell of dimension d - 1,
    and a cover with child 0 contracts a 1-edge type to the cone point.
    """

    @cached_property
    def cells(self) -> tuple[Cone, ...]:
        return tuple(Cone(graph=t) for t in self.strata[1:])

    @cached_property
    def covers(self) -> tuple[tuple[int, int, int], ...]:
        """Every (type, edge) contraction.  The type's group maps an edge to
        edges with isomorphic contractions, so each orbit of endpoint pairs
        contracts its first edge.  The contraction is relabeled in
        start-color order (graphs._start_sorted), which is the child's key
        whenever its start colors are pairwise distinct, and is looked up
        in the catalog as it is; only a miss is canonicalized.  Each
        distinct relabeled triple is looked up once: equal contracted
        triples come only from parents with equal edge counts, so the memo
        lives for one edge count."""
        index = {key: i for i, key in enumerate(self.keys)}
        landing: dict = {}
        level = 0
        covers = []
        for i, triple in enumerate(self.keys):
            if len(triple[1]) != level:
                level = len(triple[1])
                landing.clear()
            sigmas = self.groups.get(triple, (range(len(triple[0])),))
            orbit_child: dict = {}  # endpoint pair -> the child of its orbit
            for e, (a, b) in enumerate(triple[1]):
                child = orbit_child.get((a, b))
                if child is None:
                    contracted = _start_sorted(*_contract_raw(*triple, e))
                    child = landing.get(contracted)
                    if child is None:
                        child = index.get(contracted)
                        if child is None:
                            child = index.get(_canonical_raw(*contracted)[0])
                        if child is None:
                            raise InternalConsistencyError(
                                f"contracting edge {e} of type {i} {triple} lands "
                                "outside the catalog"
                            )
                        landing[contracted] = child
                    for sigma in sigmas:
                        u, v = sigma[a], sigma[b]
                        orbit_child[(u, v) if u <= v else (v, u)] = child
                covers.append((i, child, e))
        return tuple(covers)

    def dimension(self) -> int:
        """Dimension 3g - 4 + n of the link; the enumeration checked purity."""
        return len(self.f_vector) - 2


def build_poset(g: int, n: int) -> FacePoset:
    """Face poset of the moduli cone complex for (g, n); covers, graphs and
    cells are built on first read."""
    catalog = enumerate_types(g, n)
    return FacePoset(g, n, catalog.keys, catalog.f_vector, catalog.groups)


def link_cells(g: int, n: int) -> FacePoset:
    """The link of (g, n): its face poset, read through its keys and covers."""
    return build_poset(g, n)


def complex_dimension(g: int, n: int) -> int:
    """Dimension 3g - 4 + n of the link, after verifying purity.

    Every contraction-maximal type must have exactly 3g - 3 + n edges.  A
    type is pure exactly when its S_n-orbit is, since both have the same
    weights, edges and marking counts, so the sweep of enumerate_orbits
    checks this and raises an internal consistency error naming the first
    offending orbit; nothing is labelled.
    """
    enumerate_orbits(g, n)
    return max_edges(g, n) - 1


def hasse_dot(poset: FacePoset) -> str:
    """Graphviz source for the Hasse diagram of the face poset."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, (_, edges, _) in enumerate(poset.keys):
        # every type of the poset has genus g, so no graph is built
        lines.append(f'  t{i} [shape=box, label="#{i}: {len(edges)}e g{poset.g}"];')
    seen = set()
    for parent, child, _ in poset.covers:
        if (parent, child) not in seen:
            seen.add((parent, child))
            lines.append(f"  t{child} -> t{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
