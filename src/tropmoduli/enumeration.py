"""Enumeration of all stable combinatorial types of a fixed (g, n).

Generation runs by reverse contraction from the one-vertex type: each level
adds one edge, either by trading a unit of vertex weight for a loop or by
splitting a vertex and distributing its half-edges, weight, and markings
between the two halves.  Contracting the new edge undoes the move, and every
stable type contracts edge-by-edge to the one-vertex type, so the sweep is
complete.

Only candidates that pass a cheap acceptance test are built and
canonicalized (the necessary-condition half of McKay's canonical
augmentation, *Isomorph-free exhaustive generation*, 1998).  A candidate's
new edge is always its last edge, and it is accepted only when that edge
carries the largest edge invariant among all of its edges.  The invariant of
an edge is the sorted pair of its endpoints' start colors (weight, marking
bitmask, valence, loop count), which an isomorphism preserves.  No type is
lost: take any edge e of a type T with the largest invariant.  Contracting e
gives a stable type of the previous level, and expanding that type's
canonical form regrows T with e as the new edge.  (When the split that does
so is skipped as a mirror image, the mirror split is generated, and it
regrows T with e as the new edge too, its two ends swapped.)  The
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

The catalog order (edge count, then canonical encoding) is part of the
external contract: golden files depend on it.

Purity is checked in closed form: a type below 3g - 3 + n edges is
maximal, a cone of too low a dimension, unless some vertex has positive
weight or four or more half-edges and markings.

The sweep and the catalog keep bare (weights, edges, markings) tuples;
graph objects are built only when the catalog's strata are read.

enumerate_orbits runs the same sweep on the S_n-orbits of the types, types
whose markings are unlabelled and counted per vertex in its weight; every
argument above holds for any start color that isomorphisms preserve.
count_types, which the CLI's CSV output prints, sums the orbit sizes by edge
count and never labels a type, so a purity error it raises names an orbit
key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import factorial, prod

from .errors import InternalConsistencyError, UnstableTypeError
from .graphs import (
    WeightedMarkedGraph,
    _canonical_raw,
    _start_colors,
    _vertex_automorphisms,
)
from .parallel import parallel_map


@dataclass(frozen=True)
class TypeCatalog:
    """All stable types of genus g with n markings, up to isomorphism."""

    g: int
    n: int
    keys: tuple[tuple, ...]  # canonical (weights, edges, markings), catalog order
    f_vector: tuple[int, ...]  # counts by edge number, 0 .. 3g-3+n

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


def _expand_to_keys(key, unit=1):
    """Whether a type has any stable one-edge expansion, and the canonical
    keys of its accepted expansions.  Only accepted candidates are built,
    each distinct one once, and their start colors go to the labeling.

    With unit n + 1 the key is an orbit of enumerate_orbits: its markings
    are (), and vertex weight x stands for weight x // unit with x % unit
    markings.  Its colors carry c markings as the bitmask of c low bits,
    which orders them as x does, so the acceptance test and the labeling
    read them as they read a type's.  A split then moves k of the c
    markings, for k = 0 .. c, where a type moves each subset of its marking
    bits; that is the only difference."""
    weights, edges, markings = key
    colors = _start_colors(weights, edges, markings)
    if unit > 1:
        colors = [(x // unit, (1 << x % unit) - 1, val, lp) for x, _, val, lp in colors]
    if not _expandable(colors):
        return False, []
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
                    weights[:v] + (weights[v] - unit,) + weights[v + 1:],
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
        # (markings moved, color bits kept, color bits moved, and what they
        # add to the new vertex's weight in an orbit); entry i mirrors entry
        # len - 1 - i
        if unit > 1:
            splits = [(k, (1 << m - k) - 1, (1 << k) - 1, k) for k in range(m + 1)]
        else:
            splits = [(0, marks, 0, 0)]
            for k, mv in enumerate(markings):
                if mv == v:
                    splits += [
                        (moved_m + 1, kept_bits ^ 1 << k, bits | 1 << k, 0)
                        for moved_m, kept_bits, bits, _ in splits
                    ]
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
            for i, (moved_m, kept_marks, moved_marks, added) in enumerate(splits):
                # the weights that leave both halves stable
                lo = 1 if moved + moved_m <= 1 else 0
                hi = w - 1 if kept + m - moved_m <= 1 else w
                for w_new in range(lo, hi + 1):
                    if not h and (i, w_new) > (len(splits) - 1 - i, w - w_new):
                        continue  # the edgeless type: skip the mirror here
                    cv = (w - w_new, kept_marks, kept + 1, loops_kept)
                    cn = (w_new, moved_marks, moved + 1, loops_moved)
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
                    x_new = w_new * unit + added
                    child = (
                        weights[:v] + (weights[v] - x_new,) + weights[v + 1:] + (x_new,),
                        new_edges,
                        tuple(
                            nv if moved_marks >> k & 1 else mv
                            for k, mv in enumerate(markings)
                        ),
                    )
                    accepted.setdefault(
                        child, colors[:v] + [cv] + colors[v + 1:] + [cn]
                    )
    return True, [_canonical_raw(*c, start=s)[0] for c, s in accepted.items()]


def _sweep(g: int, n: int, start_key, unit: int = 1, threads: int = 1) -> list[list]:
    """The canonical keys reached from start_key, level by level, each level
    sorted by encoding; see enumerate_types and enumerate_orbits.

    Raises InternalConsistencyError for the first key, in that order, that
    has fewer than 3g - 3 + n edges and no expansion.  This reads the
    closed-form test, not the accepted expansions, which may be none.
    """
    top = max_edges(g, n)
    expand = partial(_expand_to_keys, unit=unit)
    level_keys = [[start_key]]
    for edges in range(top):
        # threads reaches perfbench/tracer.py, whose self-test counts pooled calls
        batches = parallel_map(expand, level_keys[-1], threads=threads)
        found = set()
        for key, (expandable, batch) in zip(level_keys[-1], batches):
            if not expandable:
                raise InternalConsistencyError(
                    f"purity violation at (g, n) = ({g}, {n}): maximal type "
                    f"{key} has {edges} edges, expected {top}"
                )
            found.update(batch)
        # catalog order within a level follows the certificate encoding
        level_keys.append(sorted(found, key=repr))
    return level_keys


def enumerate_types(g: int, n: int, threads: int = 1) -> TypeCatalog:
    """Complete, duplicate-free and pure catalog of stable (g, n) types.

    Each level canonicalizes only the expansions whose new edge has the
    largest edge invariant (see the module docstring for why no type is
    lost) and keeps the distinct keys, sorted by their encoding.  A type
    below 3g - 3 + n edges without an expansion raises
    InternalConsistencyError (see _sweep).
    """
    require_stable_range(g, n)
    level_keys = _sweep(g, n, ((g,), (), (0,) * n), threads=threads)
    keys = tuple(key for level in level_keys for key in level)
    f_vector = tuple(len(level) for level in level_keys)
    return TypeCatalog(g=g, n=n, keys=keys, f_vector=f_vector)


def enumerate_orbits(g: int, n: int) -> tuple[tuple, ...]:
    """The S_n-orbits of the stable (g, n) types, in catalog order.

    An orbit is a type with unlabelled markings: the canonical triple
    (weights, edges, ()) in which vertex weight w * (n + 1) + c stands for
    weight w and c markings.  Isomorphisms preserve that color, so the sweep
    of enumerate_types, its acceptance test included, runs on these triples
    unchanged; only a split moves a number of markings instead of a subset.
    For n <= 1 each orbit is one type.  count_types and the homology of
    g >= 1 read these orbits, so a purity error they raise names an orbit
    key, not a labelled type.
    """
    require_stable_range(g, n)
    level_keys = _sweep(g, n, ((g * (n + 1) + n,), (), ()), unit=n + 1)
    return tuple(key for level in level_keys for key in level)


def _orbit_size(key, n: int) -> tuple[tuple[int, ...], list[list[int]], int]:
    """The marking counts of an orbit key of enumerate_orbits, where vertex v
    carries counts[v] markings; the vertex automorphisms of the key that fix
    every marked vertex; and the number of labelled types in the orbit.

    The vertex automorphisms of the key act on the assignments of the
    markings to the vertices through the permutations they induce on the
    marked vertices, and those act freely.  There are a of them, the
    automorphisms over the subgroup that fixes every marked vertex, so the
    orbit holds n! / (a * prod counts[v]!) labelled types.  That subgroup is
    a labelled type's automorphism group.  A division with a remainder
    raises InternalConsistencyError."""
    encoded, edges, _ = key
    counts = tuple([x % (n + 1) for x in encoded])
    marked = [v for v, c in enumerate(counts) if c]
    sigmas = _vertex_automorphisms(encoded, edges, ())
    fixing = [sigma for sigma in sigmas if [sigma[v] for v in marked] == marked]
    size, rest = divmod(
        factorial(n) * len(fixing), len(sigmas) * prod(map(factorial, counts))
    )
    if rest:
        raise InternalConsistencyError(
            f"orbit {key} of n = {n} markings: {len(sigmas)} automorphisms, "
            f"{len(fixing)} fixing the marked vertices, give no whole orbit size"
        )
    return counts, fixing, size


def count_types(g: int, n: int) -> tuple[int, ...]:
    """Counts of stable types by edge number (the f-vector), summed over the
    S_n-orbits of enumerate_orbits without labelling any: each orbit adds
    its size (see _orbit_size) to its edge count.  For n <= 1 an orbit is one
    type, and no automorphism is searched.  A purity error names an orbit
    key."""
    orbits = enumerate_orbits(g, n)
    counts = [0] * (max_edges(g, n) + 1)
    for key in orbits:
        counts[len(key[1])] += 1 if n <= 1 else _orbit_size(key, n)[2]
    return tuple(counts)
