"""The Extender's level-synchronous kernel against the per-item DFS.

Every comparison is dict ``==`` on floats: the kernel must reproduce
:func:`repro.core.extender.extend_item_reference` bit for bit, including
which keys are absent.
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseliner import Baseliner
from repro.core.extender import (
    Extender,
    ExtenderConfig,
    count_heterogeneous_pairs,
    extend_item_reference,
)
from repro.core.layers import Layer, LayerPartition
from repro.core.metapaths import build_pruned_adjacency
from repro.core.xsim import SignificanceCache
from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.errors import ConfigError
from repro.obs import get_registry
from repro.similarity.graph import ItemGraph, build_similarity_graph


def reference_map(graph, partition, significance, source_domain, config):
    """The X-Sim map folded item by item with the reference DFS."""
    adjacency = build_pruned_adjacency(graph, partition, config.k)
    xsim_map = {}
    for item in sorted(graph.items):
        if partition.domain_of(item) != source_domain:
            continue
        values = extend_item_reference(item, partition, adjacency, significance, config)
        if values:
            xsim_map[item] = values
    return xsim_map


def assert_same_map(actual, expected):
    assert actual == expected
    # Same iteration order too: the AlterEgo generator walks these dicts.
    assert list(actual) == list(expected)
    for item, targets in expected.items():
        assert list(actual[item]) == list(targets)


class StubSignificance:
    """Hand-set ``S`` / ``Ŝ`` per undirected edge."""

    def __init__(self, edges):
        self._edges = {frozenset(pair): value for pair, value in edges.items()}

    def significance(self, item_i, item_j):
        return self._edges[frozenset((item_i, item_j))][0]

    def normalized(self, item_i, item_j):
        return self._edges[frozenset((item_i, item_j))][1]


def _counter(name):
    return get_registry().counter(name).value


# -- property: kernel == reference on generated traces ------------------

_SHAPES = ((14, 16, 4, 4.0), (24, 30, 6, 5.0), (40, 45, 8, 5.0))


@functools.lru_cache(maxsize=None)
def _fitted(seed, shape):
    n_users, n_items, n_overlap, ratings_per_user = _SHAPES[shape]
    data = amazon_like(SyntheticConfig(
        n_users_source=n_users, n_users_target=n_users, n_overlap=n_overlap,
        n_items_source=n_items, n_items_target=n_items - 2,
        ratings_per_user=ratings_per_user, min_ratings_per_user=2, seed=seed))
    baseline = Baseliner().compute(data)
    partition = LayerPartition.from_graph(baseline.graph, data.domain_map())
    return data, baseline.graph, partition, data.merged()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5), shape=st.integers(0, len(_SHAPES) - 1),
       k=st.sampled_from([1, 3, 8, 50]),
       max_paths=st.sampled_from([1, 7, 5000, None]),
       weight_by_certainty=st.booleans(),
       weight_by_significance=st.booleans(),
       reverse=st.booleans())
def test_kernel_equals_reference(seed, shape, k, max_paths, weight_by_certainty,
                                 weight_by_significance, reverse):
    data, graph, partition, merged = _fitted(seed, shape)
    config = ExtenderConfig(
        k=k, max_paths_per_item=max_paths,
        weight_by_certainty=weight_by_certainty,
        weight_by_significance=weight_by_significance)
    source = data.target.name if reverse else data.source.name
    actual = Extender(config).extend(graph, partition, merged, source)
    expected = reference_map(
        graph, partition, SignificanceCache(merged), source, config)
    assert_same_map(actual, expected)


@pytest.mark.parametrize("k, max_paths", [(8, 40), (50, 5000)])
def test_kernel_equals_reference_where_the_cap_bites(small_trace, k, max_paths):
    baseline = Baseliner().compute(small_trace)
    partition = LayerPartition.from_graph(baseline.graph, small_trace.domain_map())
    merged = small_trace.merged()
    source = small_trace.source.name

    def enumerated(config):
        before = _counter("extender_paths_total")
        xsim_map = Extender(config).extend(baseline.graph, partition, merged, source)
        return xsim_map, _counter("extender_paths_total") - before

    config = ExtenderConfig(k=k, max_paths_per_item=max_paths)
    actual, n_capped = enumerated(config)
    assert_same_map(actual, reference_map(
        baseline.graph, partition, SignificanceCache(merged), source, config))
    _, n_uncapped = enumerated(ExtenderConfig(k=k, max_paths_per_item=None))
    assert n_capped < n_uncapped


# -- hand-built graph: the cap is the DFS-preorder cap ------------------

def _hand_graph():
    """s: n1(NN) – b1(NB) – s1(BB) ⇌ t: t1, t2 (BB) – u1, u2 (NB) – v1 (NN).

    DFS from s1 emits, in order: t1, u1, v1, u2, v1, t2, u1, v1.
    """
    graph = ItemGraph()
    for item_i, item_j, sim in (
            ("n1", "b1", 0.4), ("b1", "s1", 0.6),
            ("s1", "t1", 0.9), ("s1", "t2", 0.5),
            ("t1", "u1", 0.8), ("t1", "u2", 0.3), ("t2", "u1", 0.7),
            ("u1", "v1", 0.6), ("u2", "v1", 0.2)):
        graph.add_edge(item_i, item_j, sim)
    partition = LayerPartition({
        "n1": ("s", Layer.NN), "b1": ("s", Layer.NB), "s1": ("s", Layer.BB),
        "t1": ("t", Layer.BB), "t2": ("t", Layer.BB),
        "u1": ("t", Layer.NB), "u2": ("t", Layer.NB),
        "v1": ("t", Layer.NN)}, ("s", "t"))
    # (S, Ŝ): s1–t1 and t1–u1 carry no agreement evidence, so the paths
    # s1→t1 and s1→t1→u1 have zero total significance.
    significance = StubSignificance({
        ("n1", "b1"): (0, 0.5), ("b1", "s1"): (0, 0.5),
        ("s1", "t1"): (0, 0.5), ("s1", "t2"): (4, 0.8),
        ("t1", "u1"): (0, 0.5), ("t1", "u2"): (3, 0.6), ("t2", "u1"): (2, 0.4),
        ("u1", "v1"): (2, 0.25), ("u2", "v1"): (1, 0.125)})
    return graph, partition, significance


def _definition_6(paths):
    """Certainty-weighted mean over (s_p, c_p) pairs, added in order."""
    total = weighted = 0.0
    for similarity, certainty in paths:
        total += certainty
        weighted += certainty * similarity
    return weighted / total


def test_cap_lands_mid_subtree_and_dropped_paths_consume_slots():
    graph, partition, significance = _hand_graph()
    config = ExtenderConfig(k=5, max_paths_per_item=4)
    paths_before = _counter("extender_paths_total")
    actual = Extender(config).extend(
        graph, partition, RatingTable([]), "s", significance=significance)
    assert _counter("extender_paths_total") - paths_before == 3 * 4
    assert_same_map(actual, reference_map(graph, partition, significance, "s", config))
    # Slots 0 and 1 (t1, u1) are zero-significance paths: dropped, yet
    # they count toward the cap, which then cuts t1's subtree after u2
    # — v1 is reached once (via u1), t2 never.
    for origin in ("n1", "b1", "s1"):
        assert list(actual[origin]) == ["v1", "u2"]
    via_u1 = ((0.9 * 0 + 0.8 * 0 + 0.6 * 2) / 2, 0.5 * 0.5 * 0.25)
    assert actual["s1"]["v1"] == _definition_6([via_u1])
    assert actual["s1"]["u2"] == _definition_6([((0.9 * 0 + 0.3 * 3) / 3, 0.5 * 0.6)])

    uncapped = Extender(ExtenderConfig(k=5, max_paths_per_item=None)).extend(
        graph, partition, RatingTable([]), "s", significance=significance)
    assert list(uncapped["s1"]) == ["v1", "u2", "t2", "u1"]
    # v1 aggregates three paths in DFS order: via t1·u1, t1·u2, t2·u1.
    assert uncapped["s1"]["v1"] == _definition_6([
        via_u1,
        ((0.9 * 0 + 0.3 * 3 + 0.2 * 1) / 4, 0.5 * 0.6 * 0.125),
        ((0.5 * 4 + 0.7 * 2 + 0.6 * 2) / 8, 0.8 * 0.4 * 0.25)])


def test_cap_of_one_keeps_only_the_strongest_first_path():
    graph, partition, significance = _hand_graph()
    config = ExtenderConfig(k=5, max_paths_per_item=1)
    actual = Extender(config).extend(
        graph, partition, RatingTable([]), "t", significance=significance)
    assert_same_map(actual, reference_map(graph, partition, significance, "t", config))
    # Mapping t → s, every origin's one slot goes to its strongest
    # route into s1. t1 and u1 spend it on a zero-significance path
    # (u1 prefers t1 at 0.8 over t2 at 0.7), so they get no value.
    assert actual == {
        "t2": {"s1": _definition_6([(0.5 * 4 / 4, 0.8)])},
        "u2": {"s1": _definition_6([((0.3 * 3 + 0.9 * 0) / 3, 0.6 * 0.5)])},
        "v1": {"s1": _definition_6(
            [((0.6 * 2 + 0.8 * 0 + 0.9 * 0) / 2, 0.25 * 0.5 * 0.5)])}}


# -- degenerate partitions ---------------------------------------------

def _micro(ratings, domain_of):
    table = RatingTable([
        Rating(user, item, value, step)
        for step, (user, item, value) in enumerate(ratings)])
    graph = build_similarity_graph(table)
    partition = LayerPartition.from_graph(graph, domain_of)
    return graph, partition, table


def _check_micro(graph, partition, table, source):
    config = ExtenderConfig(k=3)
    actual = Extender(config).extend(graph, partition, table, source)
    assert_same_map(actual, reference_map(
        graph, partition, SignificanceCache(table), source, config))
    return actual


def test_no_bridge_items_gives_an_empty_map():
    ratings = [("a", "m1", 5.0), ("a", "m2", 2.0), ("b", "m1", 1.0), ("b", "m2", 4.0),
               ("c", "k1", 5.0), ("c", "k2", 1.0), ("d", "k1", 2.0), ("d", "k2", 4.0)]
    domain_of = {"m1": "m", "m2": "m", "k1": "k", "k2": "k"}
    graph, partition, table = _micro(ratings, domain_of)
    assert not partition.bridge_items("m")
    assert _check_micro(graph, partition, table, "m") == {}


def test_no_nn_layer_and_a_source_item_without_an_up_edge():
    # x straddles (m2 + k1): m2/k1 are bridges, m1/k2 touch them (NB).
    # m9 is rated by a loner only: no edge at all, so no UP edge.
    ratings = [("s", "m1", 5.0), ("s", "m2", 2.0), ("r", "m1", 1.0), ("r", "m2", 4.0),
               ("x", "m2", 5.0), ("x", "k1", 4.0), ("y", "m2", 2.0), ("y", "k1", 1.0),
               ("t", "k1", 5.0), ("t", "k2", 2.0), ("q", "k1", 1.0), ("q", "k2", 5.0),
               ("z", "m9", 3.0)]
    domain_of = {"m1": "m", "m2": "m", "m9": "m", "k1": "k", "k2": "k"}
    graph, partition, table = _micro(ratings, domain_of)
    assert partition.members("k", Layer.NN) == frozenset()
    assert partition.layer_of("m9") is Layer.NN and not graph.neighbors("m9")
    forward = _check_micro(graph, partition, table, "m")
    assert "m9" not in forward
    assert "m2" in forward
    _check_micro(graph, partition, table, "k")


def test_unknown_source_domain_is_a_config_error(small_trace):
    baseline = Baseliner().compute(small_trace)
    partition = LayerPartition.from_graph(baseline.graph, small_trace.domain_map())
    with pytest.raises(ConfigError, match="'music'.*'books', 'movies'"):
        Extender(ExtenderConfig(k=3)).extend(
            baseline.graph, partition, small_trace.merged(), "music")


# -- significance source -------------------------------------------------

def test_a_significance_cache_gives_the_same_map(small_trace):
    merged = small_trace.merged()
    baseline = Baseliner(keep_state=True).compute(small_trace, merged=merged)
    partition = LayerPartition.from_graph(baseline.graph, small_trace.domain_map())
    config = ExtenderConfig(k=8, max_paths_per_item=500)
    source = small_trace.source.name
    lazy = Extender(config).extend(baseline.graph, partition, merged, source)
    cached = Extender(config).extend(
        baseline.graph, partition, merged, source,
        significance=SignificanceCache(merged))
    assert_same_map(cached, lazy)
    assert_same_map(lazy, reference_map(
        baseline.graph, partition, SignificanceCache(merged), source, config))


# -- telemetry -----------------------------------------------------------

def _stage_sums():
    samples = get_registry().snapshot().get(
        "extender_stage_seconds", {}).get("samples", {})
    return {key: cell["sum"] for key, cell in samples.items()}


@pytest.mark.slow
def test_stage_seconds_explain_the_extend_wall():
    # The bench's xmap_fit trace (the default config at scale 1) at the
    # pipeline's Extender settings.
    data = amazon_like(SyntheticConfig(ratings_per_user=15.0, seed=7))
    merged = data.merged()
    baseline = Baseliner().compute(data, merged=merged)
    partition = LayerPartition.from_graph(baseline.graph, data.domain_map())
    before = _stage_sums()
    pairs_before = _counter("extender_pairs_total")
    paths_before = _counter("extender_paths_total")
    started = time.perf_counter()
    xsim_map = Extender(ExtenderConfig(k=50, max_paths_per_item=5000)).extend(
        baseline.graph, partition, merged, data.source.name)
    wall = time.perf_counter() - started
    after = _stage_sums()
    staged = sum(after[key] - before.get(key, 0.0) for key in after)
    assert {'["prune"]', '["expand"]'} <= set(after)
    assert 0.9 * wall <= staged <= wall
    assert (_counter("extender_pairs_total") - pairs_before
            == count_heterogeneous_pairs(xsim_map))
    assert (_counter("extender_paths_total") - paths_before
            >= count_heterogeneous_pairs(xsim_map))


# -- the whole-row test's boundary ---------------------------------------


@pytest.mark.parametrize("source", ["s", "t"])
def test_every_cap_on_the_hand_graph_equals_the_reference(source):
    # 8 paths leave each source-side origin (see _hand_graph), so caps
    # 1..9 put `last_prefix − (cap − first)` on both sides of 0 for
    # every row — the whole-row test's off-by-one.
    graph, partition, significance = _hand_graph()
    for cap in range(1, 10):
        config = ExtenderConfig(k=5, max_paths_per_item=cap)
        actual = Extender(config).extend(
            graph, partition, RatingTable([]), source, significance=significance)
        assert_same_map(
            actual, reference_map(graph, partition, significance, source, config))


def test_every_small_cap_on_a_generated_trace_equals_the_reference():
    data, graph, partition, merged = _fitted(1, 0)
    significance = SignificanceCache(merged)
    for cap in range(1, 41):
        config = ExtenderConfig(k=3, max_paths_per_item=cap)
        actual = Extender(config).extend(graph, partition, merged, data.source.name)
        assert_same_map(actual, reference_map(
            graph, partition, significance, data.source.name, config))


# -- one significance path, any graph backing ----------------------------


@pytest.mark.parametrize("keep_state", [False, True])
def test_extend_equals_the_reference_on_either_graph_backing(small_trace, keep_state):
    # Both legs in one process: the stateful graph carries a ranked
    # NeighborIndex, the stateless one none; extend reads per-edge
    # S / Ŝ from the store either way.
    merged = small_trace.merged()
    baseline = Baseliner(keep_state=keep_state).compute(small_trace, merged=merged)
    partition = LayerPartition.from_graph(baseline.graph, small_trace.domain_map())
    config = ExtenderConfig(k=8, max_paths_per_item=500)
    source = small_trace.source.name
    actual = Extender(config).extend(baseline.graph, partition, merged, source)
    assert_same_map(actual, reference_map(
        baseline.graph, partition, SignificanceCache(merged), source, config))


def test_hand_built_graph_without_an_index_gives_the_same_map(small_trace):
    merged = small_trace.merged()
    baseline = Baseliner(keep_state=True).compute(small_trace, merged=merged)
    plain = ItemGraph()
    for item in baseline.graph.items:
        plain.add_item(item)
    plain.add_edges(baseline.graph.edges())
    partition = LayerPartition.from_graph(plain, small_trace.domain_map())
    config = ExtenderConfig(k=8, max_paths_per_item=500)
    source = small_trace.source.name
    actual = Extender(config).extend(plain, partition, merged, source)
    assert actual
    assert_same_map(actual, Extender(config).extend(
        baseline.graph, partition, merged, source))
    assert_same_map(actual, reference_map(
        plain, partition, SignificanceCache(merged), source, config))


def test_an_item_the_table_never_saw_carries_no_evidence():
    # k9 is a graph vertex with no rating: S = 0 and Ŝ = 0 / |Y_k1| on
    # its edge, as the per-pair store lookups say, so paths through it
    # are dropped and the rest of the map is untouched.
    ratings = [("s", "m1", 5.0), ("s", "m2", 2.0), ("r", "m1", 1.0), ("r", "m2", 4.0),
               ("x", "m2", 5.0), ("x", "k1", 4.0), ("y", "m2", 2.0), ("y", "k1", 1.0),
               ("t", "k1", 5.0), ("t", "k2", 2.0), ("q", "k1", 1.0), ("q", "k2", 5.0)]
    domain_of = {"m1": "m", "m2": "m", "k1": "k", "k2": "k", "k9": "k"}
    graph, _, table = _micro(ratings, domain_of)
    graph.add_edge("k1", "k9", 0.5)
    partition = LayerPartition.from_graph(graph, domain_of)
    forward = _check_micro(graph, partition, table, "m")
    assert forward and all("k9" not in targets for targets in forward.values())
