"""Vertex-weighted, n-marked multigraphs and their exact combinatorics.

A combinatorial type is stored with vertices 0..nv-1, a weight per vertex, a
tuple of edges (unordered endpoint pairs, loops and parallel edges allowed)
and a marking tuple sending each marked point 1..n to a vertex.  Everything
is immutable; operations return new graphs.

The two nontrivial algorithms live here:

* canonical labeling by color refinement plus individualization, giving a
  certificate whose encoding is equal for two graphs iff they are isomorphic
  (weights preserved, markings matched pointwise).  Vertices start colored
  by (weight, marking set, valence, loop count).  When those start colors
  are pairwise distinct, refinement could only keep their order, so the
  labeling is read off by ranking them: no adjacency, refinement or
  search.  Otherwise refinement stops as soon as a round splits no class
  or makes the partition discrete, and a discrete partition is encoded at
  once.  A round computes neighbor signatures only in the classes with two
  or more members, and the search runs on an explicit stack.  The same
  shortcut gives _start_sorted, the triple relabeled in start-color order:
  always isomorphic to it, and the canonical key itself when the start
  colors are pairwise distinct, so the face poset's contraction table
  labels only the contractions whose relabeling misses the catalog;
* the order and parity of the edge-permutation image of the automorphism
  group, counted from the same search without listing its elements: the
  vertex automorphisms are the relabelings between its minimal leaves, and
  each class of k parallel edges adds a factor k! and, for k >= 2, a
  transposition.  _canonical_group returns a key with its vertex
  automorphisms from that one search, so a catalog can keep them; it is
  the only reader of every leaf, and WeightedMarkedGraph.automorphisms
  counts its group on the key it returns.

Loops deserve care throughout: a loop counts twice toward valence, a loop
flip is an automorphism whose induced edge permutation is the identity, and
contracting a loop raises the base vertex's weight by one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import GraphError, json_list, json_records
from .rationals import is_integer

Edge = tuple[int, int]


def _is_id(value) -> bool:
    """Whether a JSON vertex or component id is an int (not a bool) or a str."""
    return is_integer(value) or isinstance(value, str)


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..k-1."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class WeightedMarkedGraph:
    """A connected multigraph with vertex weights and n labeled markings.

    weights[v] is the weight of vertex v; edges are (u, v) with u <= v and
    (v, v) for loops; markings[k] is the vertex carrying marked point k+1.
    """

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    markings: tuple[int, ...]

    def __post_init__(self):
        nv = len(self.weights)
        if nv == 0:
            raise GraphError("graph needs at least one vertex")
        if any(w < 0 for w in self.weights):
            raise GraphError("vertex weights must be nonnegative")
        for e in self.edges:
            if not (0 <= e[0] <= e[1] < nv):
                raise GraphError(f"edge {e} does not fit {nv} vertices")
        for k, v in enumerate(self.markings):
            if not 0 <= v < nv:
                raise GraphError(f"marking {k + 1} points at missing vertex {v}")
        if not self._connected():
            raise GraphError("graph is not connected")

    def _connected(self) -> bool:
        nv = len(self.weights)
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent[find(u)] = find(v)
        root = find(0)
        return all(find(v) == root for v in range(nv))

    # -- basic invariants ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_markings(self) -> int:
        return len(self.markings)

    def genus(self) -> int:
        """First Betti number plus total vertex weight."""
        return len(self.edges) - len(self.weights) + 1 + sum(self.weights)

    def valences(self) -> tuple[int, ...]:
        """Half-edge count at each vertex; a loop contributes 2."""
        return tuple(c[2] for c in _start_colors(self.weights, self.edges, self.markings))

    def marks_at(self) -> tuple[tuple[int, ...], ...]:
        """Sorted marked-point labels (1-based) carried by each vertex."""
        marks = [[] for _ in self.weights]
        for k, v in enumerate(self.markings):
            marks[v].append(k + 1)
        return tuple(tuple(m) for m in marks)

    def is_stable(self) -> bool:
        """2w(v) - 2 + val(v) + #marks(v) > 0 at every vertex."""
        return not self.unstable_vertices()

    def unstable_vertices(self) -> tuple[int, ...]:
        """Vertices violating 2w(v) - 2 + val(v) + #marks(v) > 0."""
        start = _start_colors(self.weights, self.edges, self.markings)
        return tuple(
            v
            for v, (w, marks, val, _) in enumerate(start)
            if 2 * w - 2 + val + marks.bit_count() <= 0
        )

    # -- contraction ----------------------------------------------------------

    def contract(self, edge_index: int) -> "WeightedMarkedGraph":
        """Contract one edge, preserving genus and markings.

        A loop is deleted and its base weight raised by 1; a non-loop edge is
        deleted and its endpoints merged with added weights.  The surviving
        edges keep their relative order, so boundary maps can track them.
        """
        if not 0 <= edge_index < len(self.edges):
            raise GraphError(f"no edge with index {edge_index}")
        return WeightedMarkedGraph(
            *_contract_raw(self.weights, self.edges, self.markings, edge_index)
        )

    # -- canonical form -------------------------------------------------------

    def canonical_certificate(self) -> "GraphIsoCertificate":
        """Canonical form: equal encodings iff isomorphic graphs."""
        key, pos = _canonical_raw(self.weights, self.edges, self.markings)
        return GraphIsoCertificate(
            encoding=repr(key).encode("ascii"),
            vertex_relabeling=pos,
            edge_relabeling=_edge_relabeling(self.edges, pos),
        )

    def canonical_key(self):
        """Hashable canonical invariant (the tuple behind the encoding)."""
        return _canonical_raw(self.weights, self.edges, self.markings)[0]

    def canonical(self) -> "WeightedMarkedGraph":
        """The canonical representative of this isomorphism class."""
        weights, edges, markings = self.canonical_key()
        return WeightedMarkedGraph(weights, edges, markings)

    # -- automorphisms ----------------------------------------------------------

    def automorphisms(self) -> "EdgeAutomorphismGroup":
        """Image of the automorphism group (weights kept, markings fixed) in
        the symmetric group on edges, counted on the canonical key from the
        group its search found: relabelling keeps order and parity."""
        key, group = _canonical_group(self.weights, self.edges, self.markings)
        return _edge_group(key[1], group)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": v, "weight": w} for v, w in enumerate(self.weights)
            ],
            "edges": [[u, v] for u, v in self.edges],
            "markings": list(self.markings),
        }

    @classmethod
    def from_json_dict(cls, data) -> "WeightedMarkedGraph":
        vertices = json_records(data, "vertices", ("id", "weight"), GraphError)
        raw_edges = json_list(data, "edges", GraphError)
        raw_markings = json_list(data, "markings", GraphError)
        index = {}
        weights = []
        for vid, weight in vertices:
            if not _is_id(vid):
                raise GraphError(f"vertex id must be an integer or a string, got {vid!r}")
            if vid in index:
                raise GraphError(f"duplicate vertex id {vid!r}")
            if not is_integer(weight):
                raise GraphError(
                    f"vertex {vid!r} weight must be an integer, got {weight!r}"
                )
            index[vid] = len(weights)
            weights.append(weight)

        def known(vid) -> bool:
            return _is_id(vid) and vid in index

        edges = []
        for pair in raw_edges:
            if not (
                isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(known, pair))
            ):
                raise GraphError(f"edge {pair!r} is not a pair of known vertex ids")
            a, b = index[pair[0]], index[pair[1]]
            edges.append((min(a, b), max(a, b)))
        markings = []
        for vid in raw_markings:
            if not known(vid):
                raise GraphError(f"marking references unknown vertex {vid!r}")
            markings.append(index[vid])
        return cls(tuple(weights), tuple(edges), tuple(markings))

    def to_dot(self, name: str = "G", edge_labels: Sequence[str] | None = None) -> str:
        """Graphviz source; weights label vertices, markings hang as rays,
        and edge k carries edge_labels[k] when labels are given."""
        lines = [f"graph {name} {{"]
        for v, w in enumerate(self.weights):
            lines.append(f'  v{v} [shape=circle, label="{w}"];')
        for k, v in enumerate(self.markings):
            lines.append(
                f'  m{k + 1} [shape=none, label="{k + 1}"];\n  v{v} -- m{k + 1} [style=dashed];'
            )
        for k, (u, v) in enumerate(self.edges):
            label = "" if edge_labels is None else f' [label="{edge_labels[k]}"]'
            lines.append(f"  v{u} -- v{v}{label};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphIsoCertificate:
    """Canonical encoding plus a relabeling that realizes it."""

    encoding: bytes
    vertex_relabeling: tuple[int, ...]  # old vertex -> canonical vertex
    edge_relabeling: tuple[int, ...]  # old edge index -> canonical edge index


@dataclass(frozen=True)
class EdgeAutomorphismGroup:
    """Order and parity of the edge permutations induced by automorphisms
    of (G, m, w)."""

    order: int
    has_odd_element: bool


# ---------------------------------------------------------------------------
# canonical labeling machinery
#
# The raw functions below work on bare (weights, edges, markings) tuples so
# the enumeration hot path can canonicalize millions of candidates without
# constructing (and re-validating) graph objects.
# ---------------------------------------------------------------------------


def _contract_raw(weights, edges, markings, edge_index):
    """The raw triple of WeightedMarkedGraph.contract, without validation."""
    u, v = edges[edge_index]
    rest = edges[:edge_index] + edges[edge_index + 1:]
    if u == v:
        return weights[:u] + (weights[u] + 1,) + weights[u + 1:], rest, markings
    # merge v into u; vertices above v shift down
    remap = [x - 1 if x > v else (u if x == v else x) for x in range(len(weights))]
    merged = list(weights[:v] + weights[v + 1:])
    merged[remap[u]] += weights[v]
    return (
        tuple(merged),
        tuple(
            (remap[a], remap[b]) if remap[a] <= remap[b] else (remap[b], remap[a])
            for a, b in rest
        ),
        tuple(remap[m] for m in markings),
    )


def _positions(order) -> tuple[int, ...]:
    """Inverse permutation: a leaf's vertex order from its positions."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return tuple(pos)


def _edge_relabeling(edges, pos) -> tuple[int, ...]:
    """Old edge index -> canonical edge index under canonical positions (old
    vertex -> canonical vertex): sort the relabeled pairs, breaking ties by
    original index."""
    tagged = sorted(
        ((pos[a], pos[b]) if pos[a] <= pos[b] else (pos[b], pos[a]), idx)
        for idx, (a, b) in enumerate(edges)
    )
    relabeling = [0] * len(edges)
    for new_idx, (_, old_idx) in enumerate(tagged):
        relabeling[old_idx] = new_idx
    return tuple(relabeling)


def _start_colors(weights, edges, markings, unlabelled=False) -> list:
    """Per-vertex start colors (weight, marking bitmask, valence, loop
    count), built in one pass over the edges; a loop counts twice toward
    valence.  With unlabelled the markings are counted, not told apart: a
    vertex with c of them gets the bitmask of c low bits."""
    nv = len(weights)
    marks = [0] * nv
    for k, v in enumerate(markings):
        marks[v] = marks[v] << 1 | 1 if unlabelled else marks[v] | 1 << k
    valence = [0] * nv
    loops = [0] * nv
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
        if u == v:
            loops[u] += 1
    return list(zip(weights, marks, valence, loops))


def _refine_ranks(nv, adj, colors: list[int], count: int) -> tuple[list[int], int]:
    """Stable color refinement: split classes by the multiset of neighbor
    colors (a loop contributes the vertex's own color twice).

    Takes dense colors 0..count-1 and returns dense ranks of the stable
    partition with its class count.  A round keeps the class order and
    splits each class by its members' sorted neighbor signatures, all read
    from the previous round's colors; a singleton cannot split, so it keeps
    its place without a signature.  Once the class count stops growing, or
    reaches nv, the ranks are fixed, and no further round is needed.
    """
    while True:
        members: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            members[c].append(v)
        new = [0] * nv
        rank = 0
        for cls in members:
            if len(cls) > 1:
                sigs = [tuple(sorted([colors[u] for u in adj[v]])) for v in cls]
                distinct = sorted(set(sigs))
                if len(distinct) > 1:
                    index = {sig: rank + i for i, sig in enumerate(distinct)}
                    for v, sig in zip(cls, sigs):
                        new[v] = index[sig]
                    rank += len(distinct)
                    continue
            for v in cls:
                new[v] = rank
            rank += 1
        if rank in (count, nv):
            return new, rank
        colors, count = new, rank


def _encode_raw(weights, edges, markings, pos, unlabelled=False):
    """The triple relabeled by pos (old vertex -> new vertex), edges sorted,
    and with unlabelled the markings sorted too."""
    new_weights = [0] * len(pos)
    for v, p in enumerate(pos):
        new_weights[p] = weights[v]
    new_edges = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        new_edges.append((a, b) if a <= b else (b, a))
    new_edges.sort()
    new_markings = [pos[m] for m in markings]
    if unlabelled:
        new_markings.sort()
    return tuple(new_weights), tuple(new_edges), tuple(new_markings)


def _start_sorted(weights, edges, markings):
    """The triple relabeled in start-color order, ties in vertex order.  It
    is isomorphic to the triple, and when the start colors are pairwise
    distinct it is the canonical key, which _minimal_leaves then reads off
    the same order."""
    start = _start_colors(weights, edges, markings)
    order = sorted(range(len(weights)), key=start.__getitem__)
    return _encode_raw(weights, edges, markings, _positions(order))


def _minimal_leaves(weights, edges, markings, start=None, unlabelled=False):
    """Minimal encoding over all admissible labelings, and the positions
    (old vertex -> new vertex) of every leaf reaching it, in search order.
    With unlabelled the markings are counted and sorted, as in an S_n-orbit.

    start holds the start colors when the caller has them already; they are
    ranked once.  When they are pairwise distinct, refinement cannot reorder
    them, so their dense ranks are the only leaf.  Otherwise the search
    starts from the same ranks: refinement plus individualization of every
    vertex of the first non-singleton class, at every node, as a class of
    its own after every other.  The search runs on a stack of nodes that
    yields the children in vertex order, so the leaves come in depth-first
    order.  Automorphisms permute the leaves, and two minimal leaves differ
    by exactly one automorphism; so the leaves give the whole group only
    while the tree stays unpruned.  A pruned search must collect
    automorphism generators instead.  _canonical_raw reads the first leaf;
    _canonical_group, which the enumeration and
    WeightedMarkedGraph.automorphisms call, reads all of them.
    """
    if start is None:
        start = _start_colors(weights, edges, markings, unlabelled)
    nv = len(weights)
    distinct = sorted(set(start))
    rank = {c: i for i, c in enumerate(distinct)}
    colors = [rank[c] for c in start]
    if len(distinct) == nv:
        return _encode_raw(weights, edges, markings, colors, unlabelled), [colors]
    adj: list[list[int]] = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    leaves: list = []
    stack = [(colors, len(distinct))]
    while stack:
        colors, count = _refine_ranks(nv, adj, *stack.pop())
        if count == nv:  # discrete: the ranks are the positions
            key = _encode_raw(weights, edges, markings, colors, unlabelled)
            if best is None or key < best:
                best = key
                leaves = [colors]
            elif key == best:
                leaves.append(colors)
            continue
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        first = next(c for c in range(count) if sizes[c] > 1)
        # the last child is pushed first, so children are visited in vertex order
        for v in range(nv - 1, -1, -1):
            if colors[v] == first:
                child = colors.copy()
                child[v] = count  # a class of its own, after every other
                stack.append((child, count + 1))
    return best, leaves


def _canonical_raw(weights, edges, markings, start=None, unlabelled=False):
    """The key (the canonically relabeled triple) and the positions (old
    vertex -> canonical vertex) of one leaf realizing it; start and
    unlabelled as in _minimal_leaves."""
    key, leaves = _minimal_leaves(weights, edges, markings, start, unlabelled)
    return key, tuple(leaves[0])


def _canonical_group(weights, edges, markings, start=None, unlabelled=False):
    """The key of _canonical_raw and, from the same search, the vertex
    automorphisms of the key, as tuples of vertex images: the relabelings
    leaf_i o leaf_0^-1 between the minimal leaves, the identity first; ()
    when the identity is the only one (start and unlabelled as there)."""
    key, leaves = _minimal_leaves(weights, edges, markings, start, unlabelled)
    if len(leaves) == 1:
        return key, ()
    back = _positions(leaves[0])
    return key, tuple(tuple(leaf[v] for v in back) for leaf in leaves)


def _repeated_edge(edges) -> bool:
    """Whether two edges are parallel: they swap oddly, whatever the group."""
    return len(set(edges)) < len(edges)


def _edge_group(edges, sigmas) -> EdgeAutomorphismGroup:
    """Order and parity of the edge permutations induced by a group of
    vertex automorphisms sigmas, each once, the identity first; () stands
    for the identity alone.

    The group is counted, not listed.  Each sigma permutes the
    parallel-edge classes (the edges with one endpoint pair), and every
    permutation within the classes is an automorphism too.  So the order is
    the number of distinct induced class permutations times the product of
    k! over class sizes k, and an odd element exists iff some class has two
    edges (they swap to a transposition) or some induced class permutation
    is odd.  Loop flips induce the identity.
    """
    sizes: dict[Edge, int] = {}
    for e in edges:
        sizes[e] = sizes.get(e, 0) + 1
    index = {pair: i for i, pair in enumerate(sizes)}
    images = {tuple(range(len(sizes)))}  # the identity's
    for sigma in sigmas[1:]:
        images.add(
            tuple(
                index[(a, b) if a <= b else (b, a)]
                for a, b in ((sigma[u], sigma[v]) for u, v in sizes)
            )
        )
    return EdgeAutomorphismGroup(
        order=len(images) * math.prod(map(math.factorial, sizes.values())),
        has_odd_element=any(k > 1 for k in sizes.values())
        or any(perm_sign(p) == -1 for p in images),
    )
