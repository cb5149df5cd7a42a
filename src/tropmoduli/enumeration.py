"""Enumeration of all stable combinatorial types of a fixed (g, n).

Generation runs by reverse contraction from the one-vertex type: each level
adds one edge, either by trading a unit of vertex weight for a loop or by
splitting a vertex and distributing its half-edges, weight, and markings
between the two halves.  Contracting the new edge undoes the move, and every
stable type contracts edge-by-edge to the one-vertex type, so the sweep is
complete.

Only candidates that pass a cheap acceptance test are canonicalized (the
necessary-condition half of McKay's canonical augmentation, *Isomorph-free
exhaustive generation*, 1998).  A candidate's new edge is always its last
edge, and it is accepted only when that edge carries the largest edge
invariant among all of its edges.  The invariant of an edge is the sorted
pair of its endpoints' start colors (weight, marking bitmask, valence, loop
count), which an isomorphism preserves.  No type is lost: take any edge e of
a type T with the largest invariant.  Contracting e gives a stable type of
the previous level, and expanding that type's canonical form regrows T with e
as the new edge.  (When the split that does so is skipped as a mirror image,
the mirror split is generated, and it regrows T with e as the new edge too,
its two ends swapped.)  The isomorphism to T preserves invariants, so that
candidate is accepted.  A type can still be reached through several
accepted candidates, so each level keeps a set of canonical keys to remove
the rest.

The catalog order (edge count, then canonical encoding) is part of the
external contract: golden files depend on it.

The sweep also checks purity: a type with fewer than 3g - 3 + n edges and
no stable one-edge expansion would be a maximal cone of too low a dimension.
Purity is read from the expansions before the acceptance test, because many
types have expansions but none of them accepted.

The level expansion works on bare (weights, edges, markings) tuples; for a
case like (0, 9) the sweep canonicalizes hundreds of thousands of
candidates, and object construction would dominate the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError, UnstableTypeError
from .graphs import WeightedMarkedGraph, _canonical_raw, _start_colors
from .parallel import parallel_map


@dataclass(frozen=True)
class TypeCatalog:
    """All stable types of genus g with n markings, up to isomorphism."""

    g: int
    n: int
    strata: tuple[WeightedMarkedGraph, ...]
    f_vector: tuple[int, ...]  # counts by edge number, 0 .. 3g-3+n

    @property
    def count(self) -> int:
        return len(self.strata)


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


def _split_moves(weights, edges, markings, v, collect):
    """One-edge expansions splitting vertex v into an edge v -- v'.

    Chooses which incident half-edges, how much weight, and which markings
    move to the new vertex; mirror-image choices are generated once since
    swapping the two halves gives an isomorphic result.
    """
    slots = []  # (edge index, side) with that endpoint at v
    for idx, (a, b) in enumerate(edges):
        if a == v:
            slots.append((idx, 0))
        if b == v:
            slots.append((idx, 1))
    marks_here = [k for k, mv in enumerate(markings) if mv == v]
    w = weights[v]
    nv = len(weights)
    h, m = len(slots), len(marks_here)
    full_slots = (1 << h) - 1
    full_marks = (1 << m) - 1
    for slot_bits in range(1 << h):
        kept_slots = h - slot_bits.bit_count()
        for mark_bits in range(1 << m):
            kept_marks = m - mark_bits.bit_count()
            moved_marks = m - kept_marks
            for w_new in range(w + 1):
                mirror = (full_slots - slot_bits, full_marks - mark_bits, w - w_new)
                if (slot_bits, mark_bits, w_new) > mirror:
                    continue
                # stability only changes at the two halves
                if 2 * (w - w_new) - 2 + kept_slots + 1 + kept_marks <= 0:
                    continue
                if 2 * w_new - 2 + (h - kept_slots) + 1 + moved_marks <= 0:
                    continue
                new_edges = list(edges)
                edits: dict[int, int] = {}
                for bit, (idx, side) in enumerate(slots):
                    if slot_bits >> bit & 1:
                        edits[idx] = edits.get(idx, 0) | (1 << side)
                for idx, sides in edits.items():
                    a, b = edges[idx]
                    if sides & 1:
                        a = nv
                    if sides & 2:
                        b = nv
                    new_edges[idx] = (a, b) if a <= b else (b, a)
                new_edges.append((v, nv))
                new_weights = weights[:v] + (w - w_new,) + weights[v + 1:] + (w_new,)
                new_markings = list(markings)
                for bit, k in enumerate(marks_here):
                    if mark_bits >> bit & 1:
                        new_markings[k] = nv
                collect((new_weights, tuple(new_edges), tuple(new_markings)))


def _expand_raw(weights, edges, markings):
    """All stable one-edge expansions of a type, as raw tuples."""
    seen = set()
    out = []

    def collect(candidate):
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)

    for v, w in enumerate(weights):
        if w >= 1:
            collect(
                (
                    weights[:v] + (w - 1,) + weights[v + 1:],
                    edges + ((v, v),),
                    markings,
                )
            )
    for v in range(len(weights)):
        _split_moves(weights, edges, markings, v, collect)
    return out


def has_expansion(g: WeightedMarkedGraph) -> bool:
    """Whether any stable one-edge expansion exists (g is not maximal)."""
    return bool(_expand_raw(g.weights, g.edges, g.markings))


def _new_edge_is_maximal(edges, colors) -> bool:
    """Whether the last edge, the one the expansion added, carries the
    largest edge invariant: the sorted pair of its endpoints' start colors."""
    a, b = colors[edges[-1][0]], colors[edges[-1][1]]
    new = (a, b) if a <= b else (b, a)
    for u, v in edges:
        a, b = colors[u], colors[v]
        if ((a, b) if a <= b else (b, a)) > new:
            return False
    return True


def _expand_to_keys(key):
    """Whether a type has any stable one-edge expansion, and the canonical
    keys of its accepted expansions.  Each candidate's start colors are
    computed once, for the acceptance test and the labeling alike."""
    candidates = _expand_raw(*key)
    keys = []
    for c in candidates:
        colors = _start_colors(*c)
        if _new_edge_is_maximal(c[1], colors):
            keys.append(_canonical_raw(*c, start=colors)[0])
    return bool(candidates), keys


def enumerate_types(g: int, n: int, threads: int = 1) -> TypeCatalog:
    """Complete, duplicate-free and pure catalog of stable (g, n) types.

    Each level canonicalizes only the expansions whose new edge has the
    largest edge invariant (see the module docstring for why no type is
    lost) and keeps the distinct keys, sorted by their encoding.

    Raises InternalConsistencyError for the first type, in catalog order,
    that has fewer than 3g - 3 + n edges and no expansion.  This reads the
    unfiltered expansions: a type may have expansions but none accepted.
    """
    require_stable_range(g, n)
    top = max_edges(g, n)
    start_key = ((g,), (), (0,) * n)
    level_keys = [[start_key]]
    for edges in range(top):
        # threads reaches perfbench/tracer.py, whose self-test counts pooled calls
        batches = parallel_map(_expand_to_keys, level_keys[-1], threads=threads)
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
    strata = tuple(
        WeightedMarkedGraph(*key) for level in level_keys for key in level
    )
    f_vector = tuple(len(level) for level in level_keys)
    return TypeCatalog(g=g, n=n, strata=strata, f_vector=f_vector)


def count_types(g: int, n: int) -> tuple[int, ...]:
    """Counts of stable types by edge number (the f-vector)."""
    return enumerate_types(g, n).f_vector
