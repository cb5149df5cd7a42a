"""Independent brute-force oracles.

Everything here is deliberately written from the definitions, without the
package's canonical-labeling or refinement machinery, so that agreement
between the two routes is meaningful:

* generate-and-filter enumeration of stable types (all connected edge
  multisets, all weight vectors, all marking functions), deduplicated by
  trying every vertex bijection;
* exhaustive edge-permutation search over all vertex bijections and all
  matchings of parallel edges;
* vertex automorphisms by trying every bijection within the start-colour
  classes, for labelled types and for orbit keys.

One reference route does use the package's graphs: boundary columns computed
cell by cell, as the package once assembled them (contract an edge,
canonicalize the result with a certificate, take the sign of its edge
relabeling), to check the contraction table that replaced that route.
Face poset covers are computed the same way, every edge of every type
contracted and canonicalized on its own, to check the covers that contract
one edge per orbit of a type's automorphisms.

One reference keeps the labelled chain complex that the package built from
a face poset before homology read S_n-orbits for g >= 1 and splits for
g = 0: the surviving labelled cells by parity, the simple weight-0 basis,
the package's contraction table and its d(d(x)) = 0 audit.  The orbit route
must give its matrices, and both routes its chain ranks and Betti numbers.

One reference reads the vertex automorphisms off the minimal leaves of the
package's labelling search, as the package once did for each graph, to
check each catalog's stored group against a second run of that search.

One more uses the package's canonical labeling: the trace of a permutation
of the markings on the chain line of a surviving cell, read from the
definition (move the markings, and compare the canonical key and the edge
relabeling), for Lefschetz numbers that the matrices never see.  Its
genus-0 counterpart acts on splits directly: move the markings, read the
moved split sets, and take the sign of sorting the moved split indices.

One reference keeps the package's canonical labeling as it was before its
shortcuts: tuple start colors, refinement to a fixpoint and a search that
branches on every vertex of the first non-singleton class, at every node.
The package must return the same key, and as positions (old vertex ->
canonical vertex) the inverse of the same vertex order, since boundary signs
and certificate relabelings are read from the positions.

One reference keeps the package's exact rank as it was before its pivot
heap: each pivot row is found by a scan over every occupied row.  The
package must pick the same pivot rows in the same order.

One reference keeps the package's enumeration sweep as it was before the
canonical-augmentation test: every one-edge expansion of every type is
canonicalized (with the package's labeling, which the reference above
pins).  The package must produce the same levels in the same order.  The
same reference keeps the acceptance test of that time, applied to every
built candidate, so that each parent's accepted keys can be compared.

Two references keep the CLI's catalog-sized JSON as it was printed before
it was streamed: a payload tree built from graph objects (and, for
`complex`, the link's cones), dumped whole by json.dumps.  The CLI must
print the same bytes.

Graphs are plain tuples (weights, edges, markings) in the same convention
as the package: edges are sorted pairs, markings map label k to a vertex.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import gcd


def is_connected(num_vertices, edges) -> bool:
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    root = find(0)
    return all(find(v) == root for v in range(num_vertices))


def valences(num_vertices, edges):
    val = [0] * num_vertices
    for u, v in edges:
        val[u] += 1
        val[v] += 1
    return val


def is_stable_tuple(weights, edges, markings) -> bool:
    val = valences(len(weights), edges)
    marks = [0] * len(weights)
    for v in markings:
        marks[v] += 1
    return all(
        2 * w - 2 + val[i] + marks[i] > 0 for i, w in enumerate(weights)
    )


def are_isomorphic(a, b) -> bool:
    """Naive isomorphism: try every vertex bijection."""
    wa, ea, ma = a
    wb, eb, mb = b
    if len(wa) != len(wb) or len(ea) != len(eb) or len(ma) != len(mb):
        return False
    if sorted(wa) != sorted(wb):
        return False
    eb_counter = Counter(eb)
    for sigma in itertools.permutations(range(len(wa))):
        if any(wb[sigma[v]] != wa[v] for v in range(len(wa))):
            continue
        if any(sigma[ma[k]] != mb[k] for k in range(len(ma))):
            continue
        mapped = Counter(
            (sigma[u], sigma[v]) if sigma[u] <= sigma[v] else (sigma[v], sigma[u])
            for u, v in ea
        )
        if mapped == eb_counter:
            return True
    return False


def _invariant_key(weights, edges, markings):
    """Cheap isomorphism invariant used only to bucket candidates."""
    val = valences(len(weights), edges)
    labels = [[] for _ in weights]
    for k, v in enumerate(markings):
        labels[v].append(k + 1)
    per_vertex = sorted(
        (weights[v], val[v], tuple(labels[v])) for v in range(len(weights))
    )
    return (len(weights), len(edges), tuple(per_vertex))


def _weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _marking_functions(n, counts):
    """All marking tuples with the given number of labels per vertex."""
    multiset = []
    for v, c in enumerate(counts):
        multiset.extend([v] * c)
    if len(multiset) != n:
        return
    yield from set(itertools.permutations(multiset))


def brute_force_catalog(g, n):
    """All stable (g, n) types by generate-and-filter, up to naive isomorphism.

    Returns one representative tuple (weights, edges, markings) per class.
    """
    assert 2 * g - 2 + n > 0
    max_v = 2 * g - 2 + n
    max_e = 3 * g - 3 + n
    buckets: dict = {}
    reps = []
    for nv in range(1, max_v + 1):
        vertex_pairs = [
            (u, v) for u in range(nv) for v in range(u, nv)
        ]
        for ne in range(nv - 1, max_e + 1):
            betti = ne - nv + 1
            weight_total = g - betti
            if weight_total < 0:
                continue
            for edges in itertools.combinations_with_replacement(vertex_pairs, ne):
                if not is_connected(nv, edges):
                    continue
                val = valences(nv, edges)
                for weights in _weak_compositions(weight_total, nv):
                    # stability screen on marking counts before labeling
                    for counts in _weak_compositions(n, nv):
                        if any(
                            2 * weights[v] - 2 + val[v] + counts[v] <= 0
                            for v in range(nv)
                        ):
                            continue
                        for markings in _marking_functions(n, counts):
                            cand = (tuple(weights), tuple(edges), tuple(markings))
                            key = _invariant_key(*cand)
                            bucket = buckets.setdefault(key, [])
                            if not any(are_isomorphic(cand, old) for old in bucket):
                                bucket.append(cand)
                                reps.append(cand)
    return reps


def exhaustive_edge_permutations(weights, edges, markings):
    """All edge permutations induced by automorphisms, by trying every
    vertex bijection and every matching of parallel edges."""
    nv = len(weights)
    by_pair: dict = {}
    for idx, e in enumerate(edges):
        by_pair.setdefault(e, []).append(idx)
    pairs = sorted(by_pair)
    edge_counter = Counter(edges)
    result = set()
    for sigma in itertools.permutations(range(nv)):
        if any(weights[sigma[v]] != weights[v] for v in range(nv)):
            continue
        if any(sigma[m] != m for m in markings):
            continue
        mapped = Counter(
            (sigma[u], sigma[v]) if sigma[u] <= sigma[v] else (sigma[v], sigma[u])
            for u, v in edges
        )
        if mapped != edge_counter:
            continue
        target_lists = []
        for u, v in pairs:
            image = (sigma[u], sigma[v])
            if image[0] > image[1]:
                image = (image[1], image[0])
            target_lists.append(by_pair[image])
        for assignment in itertools.product(
            *[itertools.permutations(t) for t in target_lists]
        ):
            phi = [0] * len(edges)
            for pair, images in zip(pairs, assignment):
                for src, dst in zip(by_pair[pair], images):
                    phi[src] = dst
            result.add(tuple(phi))
    return result


def brute_force_vertex_automorphisms(weights, edges, markings, unlabelled=False):
    """Every vertex automorphism, as its tuple of vertex images, by trying
    every bijection within the classes of equal start colour (weight,
    valence, loop count and number of markings).  An automorphism of a
    labelled type fixes the vertex of each marking; with unlabelled (an
    orbit key) it may move markings, and keeps only the sorted tuple of
    marked vertices."""
    nv = len(weights)
    val = valences(nv, edges)
    loops = Counter(u for u, v in edges if u == v)
    marks = Counter(markings)
    classes: dict = {}
    for v in range(nv):
        classes.setdefault((weights[v], val[v], loops[v], marks[v]), []).append(v)
    blocks = list(classes.values())
    edge_counter = Counter(edges)
    found = set()
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = [0] * nv
        for block, image in zip(blocks, images):
            for v, w in zip(block, image):
                sigma[v] = w
        if unlabelled:
            if sorted(sigma[m] for m in markings) != sorted(markings):
                continue
        elif any(sigma[m] != m for m in markings):
            continue
        mapped = Counter(
            (sigma[u], sigma[v]) if sigma[u] <= sigma[v] else (sigma[v], sigma[u])
            for u, v in edges
        )
        if mapped == edge_counter:
            found.add(tuple(sigma))
    return found


def reference_vertex_automorphisms(weights, edges, markings, unlabelled=False):
    """Every vertex automorphism, as its list of vertex images, each once:
    the relabelings between the minimal leaves of the package's labelling
    search (unlabelled as there), read apart from the key and its stored
    group.  The first is the identity."""
    from tropmoduli.graphs import _minimal_leaves, _positions

    _, leaves = _minimal_leaves(weights, edges, markings, unlabelled=unlabelled)
    back = _positions(leaves[0])
    return [[back[p] for p in leaf] for leaf in leaves]


def reference_boundary_columns(link):
    """Generators and boundary columns of a link's chain complex, per cell.

    A cell survives when its full edge group has no odd element.  Column i of
    a surviving cell gets perm_sign(edge relabeling) * (-1)**i on the row of
    the canonical representative of its contraction at edge i; contractions
    onto the edgeless type land on the augmentation row 0.  Returns the pair
    (generators_by_degree, boundaries) in build_chain_complex's layout.
    """
    from tropmoduli.graphs import perm_sign

    survives = [not c.graph.automorphisms().has_odd_element for c in link.cells]
    top = max((c.dimension - 1 for c in link.cells), default=-1)
    generators = [[] for _ in range(top + 1)]
    position = {}
    for i, cone in enumerate(link.cells):
        if survives[i]:
            position[i] = len(generators[cone.dimension - 1])
            generators[cone.dimension - 1].append(i)
    key_to_cell = {c.graph.canonical_key(): i for i, c in enumerate(link.cells)}

    def column_for(cell_index):
        graph = link.cells[cell_index].graph
        entries = {}
        for i in range(graph.num_edges):
            contracted = graph.contract(i)
            if contracted.num_edges == 0:
                entries[0] = entries.get(0, 0) + 1
                continue
            target = key_to_cell[contracted.canonical_key()]
            if not survives[target]:
                continue
            relab = contracted.canonical_certificate().edge_relabeling
            row = position[target]
            entries[row] = entries.get(row, 0) + perm_sign(relab) * (-1) ** i
        return tuple(sorted((r, c) for r, c in entries.items() if c != 0))

    return (
        tuple(tuple(gens) for gens in generators),
        tuple(tuple(column_for(i) for i in gens) for gens in generators),
    )


def is_odd(weights, edges, markings) -> bool:
    """Whether some automorphism of the type permutes its edges oddly.

    Two parallel edges, or two loops at one vertex, swap to a transposition,
    so only types without a repeated edge need their edge group.
    """
    from tropmoduli.graphs import WeightedMarkedGraph

    return len(set(edges)) < len(edges) or WeightedMarkedGraph(
        weights, edges, markings
    ).automorphisms().has_odd_element


def labelled_generators(poset):
    """Canonical triples of the cells without an odd edge automorphism
    (the generators of the rational chains), by dimension, in catalog
    order."""
    generators = [[] for _ in range(poset.dimension() + 1)]
    for key in poset.keys[1:]:
        if not is_odd(*key):
            generators[len(key[1]) - 1].append(key)
    return tuple(map(tuple, generators))


def maximal_types(poset):
    """The types of a face poset that no cover contracts to, in order."""
    contracted_from = {child for _, child, _ in poset.covers}
    return tuple(i for i in range(len(poset.keys)) if i not in contracted_from)


def reference_chain_complex(poset):
    """The chain complex of a face poset's link, cell by labelled cell.

    The generators are labelled_generators, and the basis of each degree,
    the cone point's in degree -1 included, is those that pass the package's
    homology._simple_weight_zero, looked up on every call so that a test can
    replace it.  The columns come from the package's contraction table and
    pass its d(d(x)) = 0 audit.
    """
    from tropmoduli import homology

    in_basis = homology._simple_weight_zero
    generators = labelled_generators(poset)
    cone = ((poset.g,), (), (0,) * poset.n)
    basis = tuple(
        tuple(key for key in cells if in_basis(*key)) for cells in ((cone,), *generators)
    )
    chain = homology.ChainComplex(
        g=poset.g,
        n=poset.n,
        generators_by_degree=generators,
        basis_by_degree=basis[1:],
        boundaries=tuple(
            homology._boundary_columns(keys, {key: row for row, key in enumerate(below)})
            for below, keys in zip(basis, basis[1:])
        ),
    )
    homology._verify_square_zero(chain)
    return chain


def reference_covers(poset):
    """The (parent, child, edge) covers of a face poset, each edge of each
    type contracted and canonicalized on its own, in the poset's order."""
    from tropmoduli.graphs import WeightedMarkedGraph

    index = {key: i for i, key in enumerate(poset.keys)}
    return tuple(
        (i, index[WeightedMarkedGraph(*key).contract(e).canonical_key()], e)
        for i, key in enumerate(poset.keys)
        for e in range(len(key[1]))
    )


def equivariant_trace(triple, sigma):
    """Trace of sigma, a permutation of the marking labels given as a tuple
    of images, on the chain line of the surviving cell with canonical triple
    triple.

    Marking k moves to sigma[k].  The result is canonicalized: when it is
    not the cell itself the trace is 0, and otherwise it is the sign of the
    edge relabeling onto the canonical order.  That sign does not depend on
    the leaf the labeling picks, because a surviving cell has only even
    automorphisms.
    """
    from tropmoduli.graphs import _canonical_raw, _edge_relabeling, perm_sign

    weights, edges, markings = triple
    moved = [0] * len(markings)
    for k, v in enumerate(markings):
        moved[sigma[k]] = v
    key, pos = _canonical_raw(weights, edges, tuple(moved))
    if key != triple:
        return 0
    return perm_sign(_edge_relabeling(edges, pos))


def lefschetz_number(cells_by_degree, sigma):
    """Sum over p of (-1)**p times the trace of sigma on the chains of
    degree p, for canonical triples listed from degree -1 upward (the cone
    point, when it is listed, contributes -1)."""
    return sum(
        (-1) ** p * sum(equivariant_trace(t, sigma) for t in cells)
        for p, cells in enumerate(cells_by_degree, -1)
    )


def split_action(splits, cells_by_degree, sigma):
    """How sigma, a permutation of the markings given as a tuple of images,
    acts on the chains of the genus-0 link built from splits.

    splits lists each split as the bitmask of its side without the last
    marking, and a cell is a sorted tuple of split indices, listed by degree
    from 0.  Marking k moves to sigma[k]; a moved side that holds the last
    marking is replaced by its complement.  Returns, per degree and per
    cell, the row of the image cell and the sign of the permutation that
    sorts the moved indices, by counting inversions.
    """
    n = len(sigma)
    index = {mask: i for i, mask in enumerate(splits)}
    moved = []
    for mask in splits:
        image = sum(1 << sigma[k] for k in range(n) if mask >> k & 1)
        if image >> (n - 1) & 1:
            image ^= (1 << n) - 1
        moved.append(index[image])
    action = []
    for cells in cells_by_degree:
        rows = {cell: row for row, cell in enumerate(cells)}
        images = []
        for cell in cells:
            image = [moved[i] for i in cell]
            inversions = sum(
                a > b for i, a in enumerate(image) for b in image[i + 1 :]
            )
            images.append((rows[tuple(sorted(image))], (-1) ** inversions))
        action.append(tuple(images))
    return tuple(action)


def split_lefschetz_number(splits, cells_by_degree, sigma):
    """Sum over p of (-1)**p times the trace of sigma on the chains of the
    genus-0 link from splits (see split_action), the cone point included in
    degree -1."""
    return -1 + sum(
        (-1) ** p * sum(sign for j, (row, sign) in enumerate(images) if row == j)
        for p, images in enumerate(split_action(splits, cells_by_degree, sigma))
    )


def reference_betti(link):
    """Reduced Betti numbers of the whole link, from degree -1 upward.

    Reads reference_boundary_columns, augmentation row included, and takes
    every rank by plain column reduction over the rationals, so neither the
    pair (link, link^lw), nor clearing, nor the pivot heap is involved.
    """
    from fractions import Fraction

    def rank(columns):
        pivots = {}  # lowest row -> reduced column with that lowest row
        for col in columns:
            v = {r: Fraction(c) for r, c in col}
            while v and max(v) in pivots:
                p = pivots[max(v)]
                f = v[max(v)] / p[max(v)]
                for r, c in p.items():
                    x = v.get(r, 0) - f * c
                    if x:
                        v[r] = x
                    else:
                        v.pop(r, None)
            if v:
                pivots[max(v)] = v
        return len(pivots)

    generators, boundaries = reference_boundary_columns(link)
    dims = [1] + [len(gens) for gens in generators]
    ranks = [rank(columns) for columns in boundaries] + [0]
    return tuple(
        dims[p + 1] - (ranks[p] if p >= 0 else 0) - ranks[p + 1]
        for p in range(-1, len(generators))
    )


def _reference_adjacency(nv, edges):
    adj = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _reference_initial_keys(nv, adj, weights, edges, markings):
    marks = [0] * nv
    for k, v in enumerate(markings):
        marks[v] |= 1 << k
    loops = [0] * nv
    for u, v in edges:
        if u == v:
            loops[u] += 1
    return [(weights[v], marks[v], len(adj[v]), loops[v]) for v in range(nv)]


def _reference_refine_ranks(nv, adj, colors):
    while True:
        keys = [
            (colors[v], tuple(sorted([colors[u] for u in adj[v]])))
            for v in range(nv)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new_colors = [rank[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


def _reference_encode(weights, edges, markings, order):
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    new_edges = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        new_edges.append((a, b) if a <= b else (b, a))
    new_edges.sort()
    return (
        tuple(weights[v] for v in order),
        tuple(new_edges),
        tuple(pos[m] for m in markings),
    )


def reference_canonical_raw(weights, edges, markings):
    """(key, vertex order) of the full refinement-and-search labeling.

    The key is the minimal encoding over the leaves of the search; the order
    is the first leaf that reaches it.
    """
    nv = len(weights)
    if nv == 1:
        return (weights, tuple(sorted(edges)), markings), (0,)
    adj = _reference_adjacency(nv, edges)
    best = [None, None]

    def search(colors):
        colors = _reference_refine_ranks(nv, adj, colors)
        classes = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        branch = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                branch = classes[c]
                break
        if branch is None:
            order = sorted(range(nv), key=colors.__getitem__)
            key = _reference_encode(weights, edges, markings, order)
            if best[0] is None or key < best[0]:
                best[0] = key
                best[1] = order
            return
        fresh = nv
        for v in branch:
            child = list(colors)
            child[v] = fresh
            search(child)

    search(_reference_initial_keys(nv, adj, weights, edges, markings))
    return best[0], tuple(best[1])


def reference_search_kind(weights, edges, markings):
    """Which route the labeling of a graph takes: "start" when the start
    colors are already distinct, "refined" when refinement alone makes them
    distinct, "search" when the search has to branch."""
    nv = len(weights)
    adj = _reference_adjacency(nv, edges)
    colors = _reference_initial_keys(nv, adj, weights, edges, markings)
    if len(set(colors)) == nv:
        return "start"
    if len(set(_reference_refine_ranks(nv, adj, colors))) == nv:
        return "refined"
    return "search"


def reference_sparse_integer_rank(columns):
    """The scan elimination of the package's exact rank, before its heap.

    Returns the rank and the pivot rows in the order they were chosen.
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
    pivot_rows = []
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
        pivot_rows.append(c)
        rank += 1
    return rank, pivot_rows


def _reference_split_moves(weights, edges, markings, v, collect):
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


def _reference_expand_raw(weights, edges, markings):
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
        _reference_split_moves(weights, edges, markings, v, collect)
    return out


def _reference_new_edge_is_maximal(edges, colors) -> bool:
    a, b = colors[edges[-1][0]], colors[edges[-1][1]]
    new = (a, b) if a <= b else (b, a)
    for u, v in edges:
        a, b = colors[u], colors[v]
        if ((a, b) if a <= b else (b, a)) > new:
            return False
    return True


def reference_enumerate_keys(g, n):
    """Canonical keys of the stable (g, n) types, one list per edge count,
    from the sweep that canonicalizes every expansion."""
    from tropmoduli.graphs import _canonical_raw

    top = 3 * g - 3 + n
    level_keys = [[((g,), (), (0,) * n)]]
    for _ in range(top):
        found = set()
        for key in level_keys[-1]:
            batch = [_canonical_raw(*c)[0] for c in _reference_expand_raw(*key)]
            assert batch, f"maximal type {key} below the top level"
            found.update(batch)
        level_keys.append(sorted(found, key=repr))
    return level_keys


def reference_enumerate_json(g, n) -> str:
    """`enumerate --format json` from the catalog's graph objects, dumped
    whole."""
    from tropmoduli.enumeration import enumerate_types

    catalog = enumerate_types(g, n)
    payload = {
        "g": catalog.g,
        "n": catalog.n,
        "count": catalog.count,
        "f_vector": list(catalog.f_vector),
        "types": [t.to_json_dict() for t in catalog.strata],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_complex_json(g, n) -> str:
    """`complex --format json` from the link's cones and graph objects,
    dumped whole: cell i is type i + 1, and the cone point is -1."""
    from tropmoduli.complexes import build_poset

    link = build_poset(g, n)
    payload = {
        "g": g,
        "n": n,
        "link_dimension": link.dimension(),
        "num_cells": len(link.cells),
        "cells": [
            {
                "index": i,
                "dimension": cone.dimension - 1,
                "edge_group_order": cone.edge_group.order,
                "has_odd_element": cone.edge_group.has_odd_element,
                "graph": cone.graph.to_json_dict(),
            }
            for i, cone in enumerate(link.cells)
        ],
        "faces": [[p - 1, c - 1, e] for p, c, e in link.covers],
    }
    return json.dumps(payload, indent=2) + "\n"
