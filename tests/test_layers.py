"""Unit tests for the BB/NB/NN layer partition (repro.core.layers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layers import Layer, LayerPartition
from repro.errors import GraphError
from repro.similarity.graph import ItemGraph, build_similarity_graph


def _graph(edges, isolated=()):
    items = {item for edge in edges for item in edge[:2]} | set(isolated)
    return ItemGraph.from_edges(items, edges)


def _reference_layers(graph, domain_of):
    """The per-item classification over neighbor dicts: BB when an edge
    crosses domains, NB when a same-domain edge reaches a bridge, NN
    otherwise."""
    bridge = {item for item in graph.items
              if any(domain_of[n] != domain_of[item] for n in graph.neighbors(item))}
    layers = {}
    for item in graph.items:
        if item in bridge:
            layers[item] = (domain_of[item], Layer.BB)
            continue
        touches_bridge = any(
            neighbor in bridge and domain_of[neighbor] == domain_of[item]
            for neighbor in graph.neighbors(item))
        layers[item] = (domain_of[item], Layer.NB if touches_bridge else Layer.NN)
    return layers


@st.composite
def two_domain_graphs(draw):
    """Random two-domain graphs: isolated items, same-domain-only
    components and graphs without a cross edge all occur."""
    n_m = draw(st.integers(1, 7))
    n_b = draw(st.integers(1, 7))
    domain_of = {f"m{k}": "m" for k in range(n_m)} | {f"b{k}": "b" for k in range(n_b)}
    items = sorted(domain_of)
    pairs = [(a, b) for i, a in enumerate(items) for b in items[i + 1:]]
    allow_cross = draw(st.booleans())
    pairs = [(a, b) for a, b in pairs if allow_cross or domain_of[a] == domain_of[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.sampled_from([-0.75, -0.25, 0.25, 0.5, 1.0])
    edges = [(a, b, draw(weights)) for a, b in chosen]
    return ItemGraph.from_edges(items, edges), domain_of


class TestLayerPartition:
    def test_hand_built_layers(self):
        # m2-b1 is the only cross edge; m1-m2 and b1-b2 are intra edges;
        # m0 and b0 are isolated.
        graph = _graph([("m2", "b1", 0.5), ("m1", "m2", 0.4), ("b1", "b2", 0.3)],
                       isolated=("m0", "b0"))
        domain_of = {"m0": "m", "m1": "m", "m2": "m", "b0": "b", "b1": "b", "b2": "b"}
        partition = LayerPartition.from_graph(graph, domain_of)
        assert partition.layer_of("m2") is Layer.BB
        assert partition.layer_of("b1") is Layer.BB
        assert partition.layer_of("m1") is Layer.NB
        assert partition.layer_of("b2") is Layer.NB
        assert partition.layer_of("m0") is Layer.NN
        assert partition.layer_of("b0") is Layer.NN

    def test_bridge_symmetry(self):
        # A cross edge makes BOTH endpoints bridges.
        graph = _graph([("m1", "b1", 0.2)])
        partition = LayerPartition.from_graph(graph, {"m1": "m", "b1": "b"})
        assert partition.members("m", Layer.BB) == {"m1"}
        assert partition.members("b", Layer.BB) == {"b1"}

    def test_nn_connected_only_to_non_bridges(self):
        # m3 touches m1 (NB), not any bridge -> NN.
        graph = _graph([("m2", "b1", 0.5), ("m1", "m2", 0.4), ("m3", "m1", 0.3)])
        partition = LayerPartition.from_graph(
            graph, {"m1": "m", "m2": "m", "m3": "m", "b1": "b"})
        assert partition.layer_of("m3") is Layer.NN

    def test_requires_two_domains(self):
        graph = _graph([("a", "b", 0.1)])
        with pytest.raises(GraphError, match="2 domains"):
            LayerPartition.from_graph(graph, {"a": "m", "b": "m"})

    def test_missing_domain_label(self):
        graph = _graph([("a", "b", 0.1)])
        with pytest.raises(GraphError, match="missing"):
            LayerPartition.from_graph(graph, {"a": "m"})
        # An isolated item needs its label too.
        graph = _graph([("m1", "b1", 0.2)], isolated=("b9",))
        with pytest.raises(GraphError, match="missing"):
            LayerPartition.from_graph(graph, {"m1": "m", "b1": "b"})

    def test_unknown_item_queries(self, two_domain_micro):
        graph = build_similarity_graph(two_domain_micro.merged())
        partition = LayerPartition.from_graph(graph, two_domain_micro.domain_map())
        with pytest.raises(GraphError):
            partition.layer_of("ghost")
        with pytest.raises(GraphError):
            partition.members("ghost-domain", Layer.BB)

    def test_other_domain(self, two_domain_micro):
        graph = build_similarity_graph(two_domain_micro.merged())
        partition = LayerPartition.from_graph(graph, two_domain_micro.domain_map())
        assert partition.other_domain("m") == "b"
        assert partition.other_domain("b") == "m"

    def test_counts_total_items(self, two_domain_micro):
        graph = build_similarity_graph(two_domain_micro.merged())
        partition = LayerPartition.from_graph(graph, two_domain_micro.domain_map())
        assert sum(len(partition.members(domain, layer))
                   for domain in partition.domains for layer in Layer) == len(partition)

    def test_layers_partition_each_domain(self, small_trace):
        graph = build_similarity_graph(small_trace.merged())
        partition = LayerPartition.from_graph(graph, small_trace.domain_map())
        for domain in partition.domains:
            members = [partition.members(domain, layer) for layer in Layer]
            union = set().union(*members)
            assert sum(len(m) for m in members) == len(union)

    def test_figure_1a_layers(self, scenario):
        graph = build_similarity_graph(scenario.merged())
        partition = LayerPartition.from_graph(graph, scenario.domain_map())
        # Inception is the only movie-side bridge (via Cecilia).
        assert partition.members("movies", Layer.BB) == {"inception"}
        assert partition.layer_of("interstellar") in (Layer.NB, Layer.NN)

    @settings(max_examples=150, deadline=None)
    @given(case=two_domain_graphs())
    def test_masks_equal_the_per_item_reference(self, case):
        graph, domain_of = case
        partition = LayerPartition.from_graph(graph, domain_of)
        reference = _reference_layers(graph, domain_of)
        assert len(partition) == len(reference)
        for item, (domain, layer) in reference.items():
            assert (partition.domain_of(item), partition.layer_of(item)) == (domain, layer)
        for domain in ("m", "b"):
            for layer in Layer:
                assert partition.members(domain, layer) == {
                    item for item, key in reference.items() if key == (domain, layer)}
