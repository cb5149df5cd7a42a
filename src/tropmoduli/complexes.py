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

An OrbitCatalog holds the S_n-orbits of the types instead, types with
unlabelled markings.  It counts the surviving cells of each orbit from the
automorphisms that the sweep kept for the orbit, and labels only the orbits
that pass a caller's test; homology reads it for g >= 1, where the basis is a
small share of the cells.  The chain complex of a FacePoset, cell by labelled
cell, is the tests' oracle (tests/oracles.reference_chain_complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .enumeration import (
    TypeCatalog,
    _labelled_types,
    _orbit_size,
    enumerate_orbits,
    enumerate_types,
    max_edges,
)
from .errors import InternalConsistencyError
from .graphs import (
    EdgeAutomorphismGroup,
    WeightedMarkedGraph,
    _canonical_raw,
    _contract_raw,
    _edge_group,
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


def _repeated_edge(edges) -> bool:
    return len(set(edges)) < len(edges)


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
        contracts its first edge, and each distinct contracted triple is
        canonicalized once: equal contracted triples come only from parents
        with equal edge counts, so the memo lives for one edge count."""
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
                    contracted = _contract_raw(*triple, e)
                    child = landing.get(contracted)
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


def _orbit(key, group) -> tuple[int, bool]:
    """The number of labelled types in the orbit of an orbit key of
    enumerate_orbits, from enumeration._orbit_size, and whether they are
    odd, read off the automorphisms fixing every marked vertex, a labelled
    type's automorphism group."""
    fixing, size = _orbit_size(key, group)
    return size, _edge_group(key[1], fixing).has_odd_element


def _label(orbits) -> tuple[tuple, ...]:
    """The canonical triples of the labelled types in the orbits, sorted by
    encoding as in the catalog.  Each orbit is an orbit key with its size
    from _orbit, and it must label into that many types (see
    enumeration._labelled_types)."""
    cells = []
    for key, size in orbits:
        labelled = _labelled_types(key)
        if len(labelled) != size:
            raise InternalConsistencyError(
                f"orbit {key} labels into {len(labelled)} types, but its "
                f"automorphisms give {size}"
            )
        cells += labelled
    return tuple(sorted(cells, key=repr))


class OrbitCells:
    """The labelled cells of some S_n-orbits of one dimension.

    orbits holds (orbit key, size) pairs from _orbit.  The length is the sum
    of the sizes, so it is read without labelling.  where(test) labels only
    the orbits whose key passes test, a test that reads no markings, into
    their canonical triples in catalog order.
    """

    def __init__(self, orbits: tuple[tuple[tuple, int], ...]):
        self.orbits = orbits
        self._len = sum(size for _, size in orbits)

    def __len__(self) -> int:
        return self._len

    def where(self, test) -> tuple[tuple, ...]:
        return _label(tuple(orbit for orbit in self.orbits if test(*orbit[0])))


class OrbitCatalog(TypeCatalog):
    """The S_n-orbits of the stable (g, n) types: the catalog of
    enumeration.enumerate_orbits itself, its keys the canonical orbit
    triples in catalog order, each with its group.  The surviving cells are
    counted per orbit and labelled only when read."""

    @cached_property
    def generators(self) -> tuple[OrbitCells, ...]:
        """The surviving cells by dimension, those without an odd edge
        automorphism: one OrbitCells per dimension, over the orbits whose
        cells survive."""
        by_dimension: list[list] = [[] for _ in range(max_edges(self.g, self.n))]
        for key in self.keys[1:]:
            if _repeated_edge(key[1]):  # two parallel edges swap oddly, whatever the group
                continue
            size, odd = _orbit(key, self.groups.get(key, ()))
            if not odd:
                by_dimension[len(key[1]) - 1].append((key, size))
        return tuple(OrbitCells(tuple(orbits)) for orbits in by_dimension)


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
