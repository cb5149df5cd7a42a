"""Dual metric graphs of stable-model special fibers.

The input is a description of the special fiber: irreducible components with
their geometric genera, nodes with exact valuations of their local smoothing
parameters, and marked components.  The output is the dual graph with one
vertex per component (weighted by genus), one edge per node (with the node's
valuation as its length), and the markings carried over.  A node valuation
of infinity records a node that persists in the generic fiber, producing an
extended tropical curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExtendedCurveError, GraphError, MalformedModelError, RejectedModelError
from .errors import json_list, json_records
from .graphs import WeightedMarkedGraph, _is_id
from .rationals import INF, Infinity, format_rational, is_integer, parse_length


@dataclass(frozen=True)
class StableModelDescription:
    """Special-fiber data: components, nodes, and marked components."""

    components: tuple[tuple[object, int], ...]  # (id, geometric genus)
    nodes: tuple[tuple[object, object, Fraction | Infinity], ...]
    markings: tuple[object, ...]  # component id per marked point

    def __post_init__(self):
        ids = [cid for cid, _ in self.components]
        ends = [end for a, b, _ in self.nodes for end in (a, b)]
        for cid in ids + ends + list(self.markings):
            if not _is_id(cid):
                raise MalformedModelError(
                    f"component id must be an integer or a string, got {cid!r}"
                )
        if len(set(ids)) != len(ids):
            raise MalformedModelError("duplicate component ids")
        if not ids:
            raise MalformedModelError("model needs at least one component")
        known = set(ids)
        for cid, genus in self.components:
            if not is_integer(genus) or genus < 0:
                raise MalformedModelError(
                    f"component {cid!r} genus must be a nonnegative integer, got {genus!r}"
                )
        for a, b, length in self.nodes:
            if a not in known or b not in known:
                raise MalformedModelError(f"node ({a!r}, {b!r}) references unknown component")
            if not isinstance(length, Infinity) and length <= 0:
                raise MalformedModelError(
                    f"node ({a!r}, {b!r}) has non-positive valuation {length}"
                )
        for cid in self.markings:
            if cid not in known:
                raise MalformedModelError(f"marking references unknown component {cid!r}")

    @classmethod
    def from_json_dict(cls, data) -> "StableModelDescription":
        error = MalformedModelError
        components = json_records(data, "components", ("id", "genus"), error)
        raw_nodes = json_records(data, "nodes", ("a", "b", "length"), error)
        markings = json_list(data, "markings", error)
        try:
            nodes = [(a, b, parse_length(length)) for a, b, length in raw_nodes]
        except ValueError as exc:
            raise MalformedModelError(f"bad model JSON: {exc}") from exc
        return cls(components=tuple(components), nodes=tuple(nodes), markings=tuple(markings))


@dataclass(frozen=True)
class MetricGraph:
    """A combinatorial type together with exact edge lengths.

    All lengths finite: an abstract tropical curve.  Any infinite length
    flags an extended tropical curve.
    """

    graph: WeightedMarkedGraph
    lengths: tuple[Fraction | Infinity, ...]

    def __post_init__(self):
        if len(self.lengths) != self.graph.num_edges:
            raise GraphError("one length per edge required")
        for q in self.lengths:
            if not isinstance(q, Infinity) and q <= 0:
                raise GraphError(f"edge lengths must be positive, got {q}")

    def is_extended(self) -> bool:
        return any(isinstance(q, Infinity) for q in self.lengths)

    def volume(self) -> Fraction:
        """Sum of the edge lengths; defined only for finite lengths."""
        if self.is_extended():
            raise ExtendedCurveError(
                "volume is undefined for an extended tropical curve"
            )
        return sum(self.lengths, Fraction(0))

    def rescale_to_volume_one(self) -> "MetricGraph":
        """Scale lengths by 1/volume, landing on the volume-1 link."""
        vol = self.volume()
        if vol == 0:
            raise GraphError("cannot rescale: the graph has no edges")
        return MetricGraph(
            graph=self.graph, lengths=tuple(q / vol for q in self.lengths)
        )

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "lengths": [format_rational(q) for q in self.lengths],
            "extended": self.is_extended(),
            "volume": "inf" if self.is_extended() else format_rational(self.volume()),
        }

    def to_dot(self, name: str = "Gamma") -> str:
        return self.graph.to_dot(name, [format_rational(q) for q in self.lengths])


def tropicalize_model(model: StableModelDescription) -> MetricGraph:
    """Dual metric graph of the described special fiber.

    Rejects models whose dual graph is unstable (naming an offending
    component) or disconnected.
    """
    index = {cid: i for i, (cid, _) in enumerate(model.components)}
    weights = tuple(genus for _, genus in model.components)
    edges = []
    lengths = []
    for a, b, length in model.nodes:
        u, v = index[a], index[b]
        edges.append((min(u, v), max(u, v)))
        lengths.append(length)
    markings = tuple(index[cid] for cid in model.markings)
    try:
        graph = WeightedMarkedGraph(weights, tuple(edges), markings)
    except GraphError as exc:
        raise MalformedModelError(f"bad component graph: {exc}") from exc
    if not graph.is_stable():
        bad = graph.unstable_vertices()[0]
        raise RejectedModelError(
            f"special fiber is not stable: component {model.components[bad][0]!r} "
            "violates 2w - 2 + val + #marks > 0"
        )
    return MetricGraph(graph=graph, lengths=tuple(lengths))
