"""Enumeration of all stable combinatorial types of a fixed (g, n).

One sweep generates the S_n-orbits of the types, types with unlabelled
markings: an orbit key is a canonical (weights, edges, markings) triple
whose markings are the sorted tuple of the vertices carrying them.  It runs
by reverse contraction from the one-vertex type: each level adds one edge,
either by trading a unit of vertex weight for a loop or by splitting a
vertex and distributing its half-edges, weight, and markings (k of its c,
for k = 0 .. c) between the two halves.  Contracting the new edge undoes the
move, and every stable type contracts edge-by-edge to the one-vertex type,
so the sweep is complete.

Only candidates that pass a cheap acceptance test are built and
canonicalized (the necessary-condition half of McKay's canonical
augmentation, *Isomorph-free exhaustive generation*, 1998, which holds for
any start coloring that isomorphisms preserve).  A candidate's new edge is
always its last edge, and it is accepted only when that edge carries the
largest edge invariant among all of its edges.  The invariant of an edge is
the sorted pair of its endpoints' start colors (weight, marking bitmask,
valence, loop count), where c markings give the bitmask of c low bits.  No
type is lost: take any edge e of a type T with the largest invariant.
Contracting e gives a stable type of the previous level, and expanding that
type's canonical form regrows T with e as the new edge.  (When the split
that does so is skipped as a mirror image, the mirror split is generated,
and it regrows T with e as the new edge too, its two ends swapped.)  The
isomorphism to T preserves invariants, so that candidate is accepted.  A
type can still be reached through several accepted candidates, so each
level keeps a set of canonical keys to remove the rest.

The test reads colors, not candidate tuples.  A loop move changes only v's
color; a split changes only v's and gives the new vertex one, each half with
its weight, markings, loops and half-edges plus the new edge.  Edges away
from v keep their invariants.  An invariant grows with either end's color,
so an edge re-attached to one half stays at or below the new edge iff its
far end's color is at most the other half's, and a loop on a half iff that
half's color is at most the other's.  Stability bounds the new vertex's
weight in closed form: at least 1 if at most one half-edge or marking moves,
at most w - 1 if at most one stays.  A split and its mirror (every choice
flipped) are isomorphic, and exactly one of the two keeps the last half-edge
at v, so 2**(h-1) half-edge choices are tried at a vertex with h >= 1.
Bounds on the halves' colors skip a vertex whose splits cannot beat the
largest edge away from it or the far end of an edge at it.

Purity is checked in closed form: a type below 3g - 3 + n edges is
maximal, a cone of too low a dimension, unless some vertex has positive
weight or four or more half-edges and markings.  A purity error names an
orbit key.

An orbit gives three facts, read off its key and its stored group alone.
Its size (_orbit_size): the group acts on the assignments of the markings to
the vertices through the permutations it induces on the marked vertices,
and those act freely.  There are a of them, the group's order over that of
its subgroup F fixing every marked vertex, so the orbit holds
n! / (a * prod c_v!) labelled types, where vertex v carries c_v markings.
Its parity: F is a labelled type's automorphism group, so the orbit's types
are odd, zero in the rational chains, iff some element of F permutes the
edges oddly; S_n permutes the types of an orbit, so all have one parity.
Its labelled types (_labelled_types): an orbit whose markings sit on at
most one vertex is its own labelled type, its colors and encoding the
labelled ones, and for n <= 1 every orbit is one; any other orbit gives the
distinct canonical forms of its assignments of the markings.

enumerate_types labels each level of orbits.  The catalog order (edge count,
then canonical encoding) is part of the external contract: golden files
depend on it.  count_types, which the CLI's CSV output prints, sums the
orbit sizes by edge count and labels nothing.  enumerate_orbits returns an
OrbitCatalog, which counts the surviving cells of each orbit by dimension
and labels only the orbits that pass a caller's test, checking each against
its size; homology reads it for g >= 1, where the basis is a small share of
the cells.

Each key keeps the vertex automorphisms found by the search that labelled
it (graphs._canonical_group), if there are more than the identity: an orbit
key the sweep's, a labelled type the labelling's, and an orbit that is its
own type the sweep's, since its colors are the labelled ones.  The orbit
sizes, covers, parity and edge groups read them; no key is searched twice.

The sweep and the catalog keep bare (weights, edges, markings) tuples;
graph objects are built only when the catalog's strata are read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial, prod

from .errors import InternalConsistencyError, ResourceBoundExceeded, UnstableTypeError
from .graphs import (
    WeightedMarkedGraph,
    _canonical_group,
    _edge_group,
    _repeated_edge,
    _start_colors,
)
from .parallel import parallel_map


@dataclass(frozen=True)
class TypeCatalog:
    """All stable types of genus g with n markings, up to isomorphism."""

    g: int
    n: int
    keys: tuple[tuple, ...]  # canonical (weights, edges, markings), catalog order
    f_vector: tuple[int, ...]  # counts by edge number, 0 .. 3g-3+n
    groups: dict  # key -> its group from graphs._canonical_group, if not trivial

    @cached_property
    def strata(self) -> tuple[WeightedMarkedGraph, ...]:
        """The types as graphs, built on first read."""
        return tuple(WeightedMarkedGraph(*key) for key in self.keys)

    @property
    def count(self) -> int:
        return len(self.keys)


def require_stable_range(g: int, n: int) -> None:
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise UnstableTypeError(
            f"no stable types for (g, n) = ({g}, {n}): need 2g - 2 + n > 0"
        )
    if n > sys.maxsize:  # no tuple holds the edgeless type's n markings
        raise ResourceBoundExceeded(
            f"(g, n) = ({g}, {n}): more than {sys.maxsize} markings do not fit in memory"
        )


def max_edges(g: int, n: int) -> int:
    return 3 * g - 3 + n


def cone_point(g: int, n: int) -> WeightedMarkedGraph:
    """The edgeless type: one vertex of weight g carrying every marking."""
    require_stable_range(g, n)
    return WeightedMarkedGraph((g,), (), (0,) * n)


def _expandable(colors) -> bool:
    """Whether a type with these start colors has a stable one-edge
    expansion: some vertex has weight >= 1 (trade a unit for a loop) or
    valence plus markings >= 4 (split with two of them on each side).
    Otherwise every vertex has weight 0 and carries exactly three, and any
    split leaves a side with at most one of them and no weight: unstable."""
    return any(w or val + marks.bit_count() >= 4 for w, marks, val, _ in colors)


def has_expansion(g: WeightedMarkedGraph) -> bool:
    """Whether any stable one-edge expansion exists (g is not maximal)."""
    return _expandable(_start_colors(g.weights, g.edges, g.markings))


def _pair(a, b):
    """Edge invariant: the sorted pair of its endpoints' start colors."""
    return (a, b) if a <= b else (b, a)


def _expand_to_keys(key):
    """Whether an orbit key has any stable one-edge expansion, and the
    canonical orbit keys of its accepted expansions with their groups.  Only
    accepted candidates are built, each distinct one once, and their start
    colors go to the labeling."""
    weights, edges, markings = key
    colors = _start_colors(weights, edges, markings, unlabelled=True)
    if not _expandable(colors):
        return False, {}
    nv = len(weights)
    # edges by falling invariant, to find the largest one away from a vertex
    ranked = sorted(
        ((_pair(colors[a], colors[b]), (a, b)) for a, b in edges), reverse=True
    )
    slots = [[] for _ in weights]  # edge index of each half-edge at v
    near = [[] for _ in weights]  # (slot, far end's color) of each non-loop edge
    loops = [[] for _ in weights]  # slot of each loop's first end; the second follows
    for idx, (a, b) in enumerate(edges):
        if a == b:
            loops[a].append(len(slots[a]))
            slots[a] += [idx, idx]
        else:
            near[a].append((len(slots[a]), colors[b]))
            slots[a].append(idx)
            near[b].append((len(slots[b]), colors[a]))
            slots[b].append(idx)
    accepted: dict = {}  # child triple -> its start colors
    for v, (w, marks, val, nloops) in enumerate(colors):
        # () sorts below every color and every pair: it stands for "no edge"
        away = next((inv for inv, e in ranked if v not in e), ())
        if w:
            c = (w - 1, marks, val + 2, nloops + 1)
            if away <= (c, c) and all(far <= c for _, far in near[v]):
                child = (
                    weights[:v] + (w - 1,) + weights[v + 1:],
                    edges + ((v, v),),
                    markings,
                )
                accepted.setdefault(child, colors[:v] + [c] + colors[v + 1:])
        # the larger half's color is at most upper; the smaller one has at
        # most half the weight and, at equal weights, not v's top marking
        upper = (w, marks, val + 1, nloops)
        top = 1 << marks.bit_length() >> 1
        lower = (w // 2, marks if w % 2 else marks ^ top, val + 1, nloops)
        if (lower, upper) < away or any(far > upper for _, far in near[v]):
            continue
        m = marks.bit_count()
        elsewhere = tuple([u for u in markings if u != v]) if m else markings
        h = len(slots[v])
        # with h >= 1, a split or its mirror keeps the last slot at v, not both
        for slot_bits in range(1 << (h - 1)) if h else (0,):
            moved = slot_bits.bit_count()
            kept = h - moved
            kept_far = moved_far = ()
            for j, far in near[v]:
                if slot_bits >> j & 1:
                    if far > moved_far:
                        moved_far = far
                elif far > kept_far:
                    kept_far = far
            loops_kept = loops_moved = 0
            for j in loops[v]:
                ends = slot_bits >> j & 3
                loops_kept += ends == 0
                loops_moved += ends == 3
            new_edges = None
            # k markings move; the split moving m - k mirrors it
            for k in range(m + 1):
                # the weights that leave both halves stable
                lo = 1 if moved + k <= 1 else 0
                hi = w - 1 if kept + m - k <= 1 else w
                for w_new in range(lo, hi + 1):
                    if not h and (k, w_new) > (m - k, w - w_new):
                        continue  # the edgeless type: skip the mirror here
                    cv = (w - w_new, (1 << m - k) - 1, kept + 1, loops_kept)
                    cn = (w_new, (1 << k) - 1, moved + 1, loops_moved)
                    if (
                        kept_far > cn
                        or moved_far > cv
                        or (loops_kept and cv > cn)
                        or (loops_moved and cn > cv)
                        or _pair(cv, cn) < away
                    ):
                        continue
                    if new_edges is None:
                        new_edges = list(edges)
                        for j, idx in enumerate(slots[v]):
                            if slot_bits >> j & 1:  # move one end at v to nv
                                a, b = new_edges[idx]
                                new_edges[idx] = (b, nv) if a == v else (a, nv)
                        new_edges = tuple(new_edges) + ((v, nv),)
                    child = (
                        weights[:v] + (w - w_new,) + weights[v + 1:] + (w_new,),
                        new_edges,
                        elsewhere + (v,) * (m - k) + (nv,) * k,
                    )
                    accepted.setdefault(
                        child, colors[:v] + [cv] + colors[v + 1:] + [cn]
                    )
    return True, dict(
        _canonical_group(*c, start=s, unlabelled=True) for c, s in accepted.items()
    )


def _sweep(g: int, n: int, threads: int = 1) -> tuple[list[list], dict]:
    """The canonical orbit keys of (g, n), level by level, each level sorted
    by encoding, and their nontrivial groups; see enumerate_orbits.

    Raises InternalConsistencyError for the first key, in that order, that
    has fewer than 3g - 3 + n edges and no expansion.  This reads the
    closed-form test, not the accepted expansions, which may be none.
    """
    top = max_edges(g, n)
    level_keys = [[((g,), (), (0,) * n)]]
    groups = {}
    for edges in range(top):
        # threads reaches perfbench/tracer.py, whose self-test counts pooled calls
        batches = parallel_map(_expand_to_keys, level_keys[-1], threads=threads)
        found = {}
        for key, (expandable, batch) in zip(level_keys[-1], batches):
            if not expandable:
                raise InternalConsistencyError(
                    f"purity violation at (g, n) = ({g}, {n}): maximal type "
                    f"{key} has {edges} edges, expected {top}"
                )
            found.update(batch)
        groups.update((key, group) for key, group in found.items() if group)
        # catalog order within a level follows the certificate encoding
        level_keys.append(sorted(found, key=repr))
    return level_keys, groups


def _is_type(markings) -> bool:
    """Whether an orbit with these marked vertices is a single labelled
    type, its own key: its markings sit on at most one vertex, so its colors
    and its encoding are the labelled ones."""
    return len(set(markings)) <= 1


def _labelled_types(key, group=()) -> dict:
    """The canonical keys of the labelled types in the orbit key, each with
    its group: the key itself with group, the orbit's own, when it is one
    (see _is_type), and otherwise the distinct canonical forms of the
    assignments of its markings.  A caller that reads only the keys may
    leave group out."""
    weights, edges, markings = key
    if _is_type(markings):
        return {key: group}
    return dict(_canonical_group(weights, edges, a) for a in set(permutations(markings)))


def enumerate_types(g: int, n: int, threads: int = 1) -> TypeCatalog:
    """Complete, duplicate-free and pure catalog of stable (g, n) types.

    The levels of enumerate_orbits, each orbit replaced by its labelled
    types (see _labelled_types) and each level sorted by encoding.  For
    n <= 1 every orbit is its type, so the orbit levels and groups are the
    catalog's.  A purity error names an orbit key (see _sweep).
    """
    require_stable_range(g, n)
    levels, groups = _sweep(g, n, threads)
    if n > 1:
        typed = [
            {
                t: s
                for key in level
                for t, s in _labelled_types(key, groups.get(key, ())).items()
            }
            for level in levels
        ]
        groups = {t: s for level in typed for t, s in level.items() if s}
        levels = [sorted(level, key=repr) for level in typed]
    return _catalog(g, n, levels, groups)


def _catalog(g: int, n: int, levels, groups, kind=TypeCatalog):
    keys = tuple(key for level in levels for key in level)
    return kind(g, n, keys, tuple(map(len, levels)), groups)


def enumerate_orbits(g: int, n: int) -> OrbitCatalog:
    """The S_n-orbits of the stable (g, n) types, in catalog order, as an
    OrbitCatalog whose f-vector counts orbits.

    An orbit is a type with unlabelled markings: the triple (weights, edges,
    markings) whose markings are the sorted tuple of the vertices that carry
    them, canonical under _canonical_raw with unlabelled.  Its group holds
    the automorphisms of that triple, which may move marked vertices.  For
    n <= 1 each orbit is one type, with that type's key and group.
    """
    require_stable_range(g, n)
    return _catalog(g, n, *_sweep(g, n), kind=OrbitCatalog)


def _orbit_size(key, group) -> tuple[list, int]:
    """The vertex automorphisms in an orbit key's group that fix every
    marked vertex, and the number of labelled types in the orbit (see the
    module docstring).  A division with a remainder raises
    InternalConsistencyError."""
    weights, edges, markings = key
    marked = sorted(set(markings))
    sigmas = group or [range(len(weights))]
    fixing = [sigma for sigma in sigmas if [sigma[v] for v in marked] == marked]
    size, rest = divmod(
        factorial(len(markings)) * len(fixing),
        len(sigmas) * prod([factorial(markings.count(v)) for v in marked]),
    )
    if rest:
        raise InternalConsistencyError(
            f"orbit {key}: {len(sigmas)} automorphisms, {len(fixing)} fixing "
            "the marked vertices, give no whole orbit size"
        )
    return fixing, size


def count_types(g: int, n: int) -> tuple[int, ...]:
    """Counts of stable types by edge number (the f-vector), summed over the
    S_n-orbits of enumerate_orbits without labelling any: each orbit adds
    its size (see _orbit_size) to its edge count.  An orbit that is one type
    (see _is_type) adds 1.  A purity error names an orbit key."""
    orbits = enumerate_orbits(g, n)
    counts = [0] * len(orbits.f_vector)
    for key in orbits.keys:
        counts[len(key[1])] += (
            1 if _is_type(key[2]) else _orbit_size(key, orbits.groups.get(key, ()))[1]
        )
    return tuple(counts)


class OrbitCells:
    """The labelled cells of some S_n-orbits of one dimension.

    orbits holds (orbit key, size) pairs.  The length is the sum of the
    sizes, so it is read without labelling.  where(test) labels only the
    orbits whose key passes test, a test that reads no markings, into their
    canonical triples in catalog order.  An orbit that labels into any other
    number of types than its size is an internal consistency error, which
    audits the automorphisms that the size was read from.
    """

    def __init__(self, orbits: tuple[tuple[tuple, int], ...]):
        self.orbits = orbits
        self._len = sum(size for _, size in orbits)

    def __len__(self) -> int:
        return self._len

    def where(self, test) -> tuple[tuple, ...]:
        cells = []
        for key, size in self.orbits:
            if not test(*key):
                continue
            labelled = _labelled_types(key)
            if len(labelled) != size:
                raise InternalConsistencyError(
                    f"orbit {key} labels into {len(labelled)} types, but its "
                    f"automorphisms give {size}"
                )
            cells += labelled
        return tuple(sorted(cells, key=repr))


class OrbitCatalog(TypeCatalog):
    """The S_n-orbits of the stable (g, n) types: the catalog of
    enumerate_orbits, its keys the canonical orbit triples in catalog order,
    each with its group.  The surviving cells are counted per orbit and
    labelled only when read."""

    @cached_property
    def generators(self) -> tuple[OrbitCells, ...]:
        """The surviving cells by dimension, those without an odd edge
        automorphism: one OrbitCells per dimension, over the orbits whose
        cells survive, each with its size (see the module docstring)."""
        by_dimension: list[list] = [[] for _ in range(max_edges(self.g, self.n))]
        for key in self.keys[1:]:
            if _repeated_edge(key[1]):
                continue
            fixing, size = _orbit_size(key, self.groups.get(key, ()))
            if not _edge_group(key[1], fixing).has_odd_element:
                by_dimension[len(key[1]) - 1].append((key, size))
        return tuple(OrbitCells(tuple(orbits)) for orbits in by_dimension)
