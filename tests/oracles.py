"""Independent brute-force oracles.

Everything here is deliberately written from the definitions, without the
package's canonical-labeling or refinement machinery, so that agreement
between the two routes is meaningful:

* generate-and-filter enumeration of stable types (all connected edge
  multisets, all weight vectors, all marking functions), deduplicated by
  trying every vertex bijection;
* exhaustive edge-permutation search over all vertex bijections and all
  matchings of parallel edges.

One reference route does use the package's graphs: boundary columns computed
cell by cell, as the package once assembled them (contract an edge,
canonicalize the result with a certificate, take the sign of its edge
relabeling), to check the contraction table that replaced that route.

One reference keeps the package's canonical labeling as it was before its
shortcuts: tuple start colors, refinement to a fixpoint and a search that
branches on every vertex of the first non-singleton class, at every node.
The package must return the same key and the same vertex order, since
boundary signs and certificate relabelings are read from the order.

Graphs are plain tuples (weights, edges, markings) in the same convention
as the package: edges are sorted pairs, markings map label k to a vertex.
"""

from __future__ import annotations

import itertools
from collections import Counter


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
