from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmoduli import (
    INF,
    ExtendedCurveError,
    GraphError,
    MalformedModelError,
    MetricGraph,
    RejectedModelError,
    StableModelDescription,
    WeightedMarkedGraph,
    tropicalize_model,
)
from test_graphs import stable_graphs


def conic_model(length):
    # two rational components meeting at one node, marks 1,2 and 3,4
    return StableModelDescription(
        components=((0, 0), (1, 0)),
        nodes=((0, 1, length),),
        markings=(0, 0, 1, 1),
    )


class TestTropicalizeModel:
    def test_conic_degeneration(self):
        metric = tropicalize_model(conic_model(Fraction(5)))
        expected = WeightedMarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
        assert metric.graph == expected
        assert metric.lengths == (Fraction(5),)
        assert not metric.is_extended()

    def test_smooth_model_gives_cone_point(self):
        model = StableModelDescription(
            components=(("C", 3),), nodes=(), markings=("C", "C")
        )
        metric = tropicalize_model(model)
        assert metric.graph == WeightedMarkedGraph((3,), (), (0, 0))
        assert metric.volume() == 0

    def test_persistent_node_flags_extended(self):
        metric = tropicalize_model(conic_model(INF))
        assert metric.is_extended()
        assert metric.graph == WeightedMarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
        with pytest.raises(ExtendedCurveError):
            metric.volume()

    def test_unstable_model_rejected_with_component_name(self):
        model = StableModelDescription(
            components=(("a", 1), ("b", 1)), nodes=(("a", "b", Fraction(1)),), markings=()
        )
        # both components fine here; now an actually unstable one
        tropicalize_model(model)
        bad = StableModelDescription(
            components=(("a", 0), ("b", 2)), nodes=(("a", "b", Fraction(1)),), markings=()
        )
        with pytest.raises(RejectedModelError) as err:
            tropicalize_model(bad)
        assert "'a'" in str(err.value)

    def test_disconnected_model_rejected(self):
        model = StableModelDescription(
            components=((0, 1), (1, 1), (2, 1)),
            nodes=((0, 1, Fraction(1)),),
            markings=(2,),
        )
        with pytest.raises(MalformedModelError):
            tropicalize_model(model)

    def test_genus_formula(self):
        # arithmetic genus of the special fiber = sum of genera + #nodes - #components + 1
        model = StableModelDescription(
            components=((0, 1), (1, 0), (2, 2)),
            nodes=(
                (0, 1, Fraction(1)),
                (1, 2, Fraction(3, 2)),
                (0, 2, Fraction(2)),
                (2, 2, Fraction(7)),
            ),
            markings=(1, 1, 1),
        )
        metric = tropicalize_model(model)
        assert metric.graph.genus() == (1 + 0 + 2) + (4 - 3 + 1)

    def test_model_validation(self):
        with pytest.raises(MalformedModelError):
            StableModelDescription(components=((0, 0), (0, 1)), nodes=(), markings=())
        with pytest.raises(MalformedModelError):
            StableModelDescription(
                components=((0, 0),), nodes=((0, 1, Fraction(1)),), markings=()
            )
        with pytest.raises(MalformedModelError):
            StableModelDescription(
                components=((0, 0),), nodes=((0, 0, Fraction(0)),), markings=()
            )
        with pytest.raises(MalformedModelError):
            StableModelDescription(components=((0, 0),), nodes=(), markings=(5,))

    def test_json_parsing_with_monomial_lengths(self):
        data = {
            "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
            "nodes": [{"a": 0, "b": 1, "length": "t^(5/2)"}],
            "markings": [0, 0, 1, 1],
        }
        metric = tropicalize_model(StableModelDescription.from_json_dict(data))
        assert metric.lengths == (Fraction(5, 2),)

    def test_json_infinite_length(self):
        data = {
            "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
            "nodes": [{"a": 0, "b": 1, "length": "inf"}],
            "markings": [0, 0, 1, 1],
        }
        metric = tropicalize_model(StableModelDescription.from_json_dict(data))
        assert metric.is_extended()
        assert metric.to_json_dict()["volume"] == "inf"


class TestVolume:
    def test_exact_rational_sum(self, theta):
        metric = MetricGraph(theta, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert metric.volume() == 1

    def test_fig_three_with_length_five(self):
        metric = tropicalize_model(conic_model(Fraction(5)))
        assert metric.volume() == 5

    def test_edgeless_volume_zero(self):
        metric = MetricGraph(WeightedMarkedGraph((2,), (), ()), ())
        assert metric.volume() == 0
        with pytest.raises(GraphError):
            metric.rescale_to_volume_one()

    def test_rescale_preserves_type_and_ratios(self, theta):
        metric = MetricGraph(theta, (Fraction(2), Fraction(3), Fraction(5)))
        scaled = metric.rescale_to_volume_one()
        assert scaled.volume() == 1
        assert scaled.graph == metric.graph
        assert scaled.lengths == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
        for before, after in zip(metric.lengths, scaled.lengths):
            assert after == before / metric.volume()

    def test_nonpositive_lengths_rejected(self, theta):
        with pytest.raises(GraphError):
            MetricGraph(theta, (Fraction(1), Fraction(-1), Fraction(1)))
        with pytest.raises(GraphError):
            MetricGraph(theta, (Fraction(1), Fraction(1)))


node_lengths = st.one_of(
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)), st.just(INF)
)


@st.composite
def valid_models(draw):
    """A stable connected graph as a special fiber, with the graph: string
    component ids in a shuffled order, node ends in either order, each node
    a positive Fraction or INF."""
    graph = draw(stable_graphs())
    nv = graph.num_vertices
    ids = draw(st.permutations([f"c{v}" for v in range(nv)]))
    order = draw(st.permutations(range(nv)))
    nodes = []
    for u, v in graph.edges:
        if draw(st.booleans()):
            u, v = v, u
        nodes.append((ids[u], ids[v], draw(node_lengths)))
    model = StableModelDescription(
        components=tuple((ids[v], graph.weights[v]) for v in order),
        nodes=tuple(nodes),
        markings=tuple(ids[m] for m in graph.markings),
    )
    return model, graph


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_models())
def test_valid_model_tropicalizes_to_its_graph(drawn):
    model, graph = drawn
    metric = tropicalize_model(model)
    assert metric.graph.canonical_key() == graph.canonical_key()
    assert metric.graph.genus() == graph.genus()
    assert metric.lengths == tuple(length for _, _, length in model.nodes)
    if INF in metric.lengths:
        assert metric.is_extended()
    elif metric.lengths:
        assert metric.rescale_to_volume_one().volume() == 1
