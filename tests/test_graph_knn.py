"""Unit tests for the item graph, top-k selection and the serving
index."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.matrix import MatrixRatingStore, _key_census
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import GraphError
from repro.similarity.adjusted_cosine import all_pairs_adjusted_cosine_reference
from repro.similarity.graph import ItemGraph, build_similarity_graph
from repro.similarity.knn import merge_ranked_entries, ranked_entries, top_k


class TestTopK:
    def test_orders_by_value_then_id(self):
        sims = {"b": 0.5, "a": 0.5, "c": 0.9, "d": 0.1}
        assert top_k(sims, 3) == [("c", 0.9), ("a", 0.5), ("b", 0.5)]

    def test_k_zero_or_negative(self):
        assert top_k({"a": 1.0}, 0) == []
        assert top_k({"a": 1.0}, -3) == []

    def test_exclude(self):
        assert top_k({"a": 1.0, "b": 0.5}, 2, exclude=["a"]) == [("b", 0.5)]

    def test_minimum_inclusive(self):
        sims = {"a": 0.5, "b": 0.2, "c": -0.1}
        assert top_k(sims, 5, minimum=0.2) == [("a", 0.5), ("b", 0.2)]

    def test_fewer_candidates_than_k(self):
        assert top_k({"a": 1.0}, 10) == [("a", 1.0)]

    def test_deterministic(self):
        sims = {f"i{n}": 0.5 for n in range(20)}
        assert top_k(sims, 5) == top_k(dict(reversed(list(sims.items()))), 5)


class TestItemGraph:
    def test_add_edge_is_undirected(self):
        graph = ItemGraph.from_edges("ab", [("a", "b", 0.7)])
        assert graph.similarity("a", "b") == 0.7
        assert graph.similarity("b", "a") == 0.7
        assert graph.has_edge("b", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            ItemGraph.from_edges("a", [("a", "a", 1.0)])

    def test_edges_yielded_once(self):
        graph = ItemGraph.from_edges("abc", [("a", "b", 0.5), ("c", "b", 0.2)])
        edges = list(graph.edges())
        assert sorted(edges) == [("a", "b", 0.5), ("b", "c", 0.2)]
        assert graph.n_edges() == 2

    def test_isolated_items_kept(self):
        graph = ItemGraph.from_edges(["lonely"], [])
        assert "lonely" in graph
        assert graph.degree("lonely") == 0
        assert len(graph) == 1

    def test_top_neighbors_with_restriction(self):
        graph = ItemGraph.from_edges(
            "qabc", [("q", "a", 0.9), ("q", "b", 0.8), ("q", "c", 0.7)])
        assert graph.top_neighbors("q", 2, among={"b", "c"}) == [("b", 0.8), ("c", 0.7)]


class TestFromEdges:
    """``ItemGraph.from_edges``, the one builder of hand-made graphs."""

    @pytest.mark.parametrize("edges", [
        [("a", "b", 0.5), ("a", "b", 0.7)],
        [("a", "b", 0.5), ("b", "a", 0.5)],
        [("a", "b", 0.0), ("b", "a", 0.3)],
    ])
    def test_a_pair_given_twice_is_rejected(self, edges):
        with pytest.raises(GraphError, match="given twice"):
            ItemGraph.from_edges("ab", edges)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_weight_is_rejected(self, weight):
        with pytest.raises(GraphError, match="non-finite"):
            ItemGraph.from_edges("ab", [("a", "b", weight)])

    def test_an_endpoint_outside_items_is_rejected(self):
        with pytest.raises(GraphError, match="'ghost' is not an item"):
            ItemGraph.from_edges("ab", [("a", "ghost", 0.5)])

    def test_zero_weights_are_dropped(self):
        graph = ItemGraph.from_edges(
            "abc", [("a", "b", 0.0), ("b", "c", -0.0), ("a", "c", 0.25)])
        assert graph.n_edges() == 1
        assert not graph.has_edge("a", "b")
        assert graph.degree("b") == 0
        assert graph.neighbors("a") == {"c": 0.25}

    def test_rows_are_ranked_over_sorted_ids(self):
        graph = ItemGraph.from_edges(
            ["c", "b", "a", "d"], [("c", "a", 0.5), ("a", "b", 0.5), ("d", "a", 0.9)])
        items, ptr, ids, weights = graph.ranked_rows()
        assert items == ["a", "b", "c", "d"]
        assert ptr.tolist() == [0, 3, 4, 5, 6]
        assert ids[:3].tolist() == [3, 1, 2]
        assert weights[:3].tolist() == [0.9, 0.5, 0.5]
        assert graph.top_neighbors("a", 3) == [("d", 0.9), ("b", 0.5), ("c", 0.5)]

    def test_reference_pairs_agree_with_the_sweep(self, small_trace):
        table = small_trace.merged()
        built = build_similarity_graph(table)
        hand = ItemGraph.from_edges(table.items, all_pairs_adjusted_cosine_reference(table))
        assert hand.items == built.items
        for item in sorted(table.items):
            got, want = built.neighbors(item), hand.neighbors(item)
            for neighbor in got.keys() | want.keys():
                assert got.get(neighbor, 0.0) == pytest.approx(
                    want.get(neighbor, 0.0), abs=1e-9), (item, neighbor)


class TestBuildSimilarityGraph:
    def test_every_item_is_a_vertex(self, tiny_table):
        graph = build_similarity_graph(tiny_table)
        assert graph.items == tiny_table.items

    def test_edges_need_common_users(self, scenario):
        graph = build_similarity_graph(scenario.merged())
        assert not graph.has_edge("interstellar", "forever-war")
        assert graph.has_edge("inception", "forever-war")  # via cecilia

    def test_min_abs_similarity_filters(self, tiny_table):
        loose = build_similarity_graph(tiny_table)
        strict = build_similarity_graph(tiny_table, min_abs_similarity=0.99)
        assert strict.n_edges() <= loose.n_edges()

    def test_zero_similarity_never_creates_edge(self, tiny_table):
        graph = ItemGraph.from_edges(tiny_table.items, [("a", "b", 0.0)])
        assert graph.n_edges() == 0


class TestNeighborIndex:
    """The precomputed serving index: rank-ordered flat rows."""

    def test_rows_are_topk_of_adjacency(self, tiny_table):
        # Oracle: the per-pair reference pairs, not a second assembly.
        reference = {item: {} for item in tiny_table.items}
        for item_i, item_j, sim in all_pairs_adjusted_cosine_reference(tiny_table):
            reference[item_i][item_j] = reference[item_j][item_i] = sim
        index = MatrixRatingStore(tiny_table).neighbor_index()
        for item, want in reference.items():
            row = index.neighbor_dict(item)
            assert row.keys() == want.keys()
            assert list(row.values()) == pytest.approx(
                [want[neighbor] for neighbor in row], abs=1e-9)
            assert index.degree(item) == len(want)
            assert index.top(item, len(want) + 1) == top_k(row, len(want) + 1)

    def test_minimum_cuts_the_scan(self, tiny_table):
        index = tiny_table.matrix().neighbor_index()
        for item in index.items:
            expected = top_k(index.neighbor_dict(item), 10, minimum=0.0)
            assert index.top(item, 10, minimum=0.0) == expected

    def test_unknown_item(self, tiny_table):
        index = tiny_table.matrix().neighbor_index()
        assert index.top("ghost", 5) == []
        assert index.degree("ghost") == 0
        assert index.neighbor_dict("ghost") == {}


def test_merge_ranked_entries_equals_a_full_rerank():
    """Kept rows arrive as sizes + concatenated rank-ordered entries;
    placed entries are bisected in on (−weight, id), ties by id, into
    rows that kept some, all or none of their entries."""
    rng = random.Random(11)
    for _ in range(200):
        n_items = rng.randint(1, 6)
        rows = [{} for _ in range(n_items)]
        placed = []
        for owner in range(n_items):
            for neighbor in rng.sample(range(n_items + 4), rng.randint(0, 5)):
                weight = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0])
                if rng.random() < 0.4:
                    placed.append((owner, -weight, neighbor))
                else:
                    rows[owner][neighbor] = weight
        kept_sizes = np.array([len(row) for row in rows], dtype=np.int64)
        kept = sorted((owner, -w, nid) for owner, row in enumerate(rows)
                      for nid, w in row.items())
        placed.sort()
        ptr, ids, wts = merge_ranked_entries(
            kept_sizes,
            (np.array([nid for *_, nid in kept], dtype=np.int64),
             np.array([-w for _, w, _ in kept], dtype=np.float64)),
            (np.array([owner for owner, *_ in placed], dtype=np.int64),
             np.array([nid for *_, nid in placed], dtype=np.int64),
             np.array([-w for _, w, _ in placed], dtype=np.float64)))
        want = sorted(kept + placed)
        assert np.diff(ptr).tolist() == np.bincount(
            [owner for owner, *_ in want], minlength=n_items).tolist()
        assert ids.tolist() == [nid for *_, nid in want]
        assert wts.tolist() == [-w for _, w, _ in want]


#: Few distinct weights, so most pairs tie; ``-0.0 == 0.0`` ties too.
_TIED_WEIGHTS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _pairs(draw, n_items=st.integers(1, 12)):
    """``(n_items, left, right, weights)``: distinct undirected pairs."""
    n = draw(n_items)
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1])
                          .map(lambda p: (min(p), max(p))),
                          unique=True, max_size=40))
    weights = draw(st.lists(_TIED_WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    return (n, np.array([a for a, _ in pairs], dtype=np.int64),
            np.array([b for _, b in pairs], dtype=np.int64),
            np.array(weights, dtype=np.float64))


def _assert_ranked_like_lexsort(n_items, left, right, weights):
    src = np.concatenate([left, right])
    tgt = np.concatenate([right, left])
    wts = np.concatenate([weights, weights])
    order = np.lexsort((tgt, -wts, src))
    rows, neighbors, ranked = ranked_entries(left, right, weights, n_items)
    assert rows.tolist() == src[order].tolist()
    assert neighbors.tolist() == tgt[order].tolist()
    assert ranked.tobytes() == wts[order].tobytes()
    assert (rows.dtype, neighbors.dtype, ranked.dtype) == (src.dtype, tgt.dtype, wts.dtype)


@_PROPERTY
@given(_pairs())
def test_ranked_entries_equal_the_float_lexsort(case):
    _assert_ranked_like_lexsort(*case)


@_PROPERTY
@given(_pairs(n_items=st.integers(65_536, 70_000)))
def test_ranked_entries_equal_the_float_lexsort_past_16_bit_rows(case):
    """At 2**16 items and up the row sort is not a 16-bit radix sort."""
    _assert_ranked_like_lexsort(*case)


@pytest.mark.parametrize("n_items, pairs", [
    (1, []),
    (5, []),
    (2, [(0, 1)]),
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),   # one row holds them all
    (70_000, [(3, 69_999), (65_535, 65_536), (0, 65_536), (3, 65_535)]),
])
def test_ranked_entries_edge_cases(n_items, pairs):
    weights = np.array([0.5] * len(pairs), dtype=np.float64)
    _assert_ranked_like_lexsort(
        n_items, np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64), weights)


@_PROPERTY
@given(st.data())
def test_merge_ranked_entries_equals_np_insert(data):
    """The scatter places each entry where ``np.insert`` at its bisected
    position would, bit for bit."""
    n_items = data.draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, n_items - 1), _TIED_WEIGHTS, st.integers(0, 9))
    entries = data.draw(st.lists(entry, unique_by=lambda e: (e[0], e[2]), max_size=30))
    placed_mask = data.draw(st.lists(st.booleans(), min_size=len(entries),
                                     max_size=len(entries)))
    rank = lambda e: (e[0], -e[1], e[2])  # noqa: E731
    kept = sorted((e for e, p in zip(entries, placed_mask) if not p), key=rank)
    placed = sorted((e for e, p in zip(entries, placed_mask) if p), key=rank)
    kept_sizes = np.bincount([e[0] for e in kept], minlength=n_items).astype(np.int64)
    kept_ids = np.array([e[2] for e in kept], dtype=np.int64)
    kept_wts = np.array([e[1] for e in kept], dtype=np.float64)
    at = [sum(1 for k in kept if rank(k) < rank(e)) for e in placed]
    ptr, ids, wts = merge_ranked_entries(
        kept_sizes, (kept_ids, kept_wts),
        (np.array([e[0] for e in placed], dtype=np.int64),
         np.array([e[2] for e in placed], dtype=np.int64),
         np.array([e[1] for e in placed], dtype=np.float64)))
    at = np.array(at, dtype=np.int64)
    assert ids.tolist() == np.insert(
        kept_ids, at, np.array([e[2] for e in placed], dtype=np.int64)).tolist()
    assert wts.tobytes() == np.insert(
        kept_wts, at, np.array([e[1] for e in placed], dtype=np.float64)).tobytes()
    assert ptr[-1] == len(entries)


@_PROPERTY
@given(st.sets(st.integers(0, 400), max_size=60), st.sets(st.integers(0, 400), max_size=60))
def test_key_census_equals_setdiff1d(old, new):
    """The splice's edge census: one ``searchsorted`` of the dropped
    keys (in index order, not sorted) into the ascending placed keys
    gives what the two ``setdiff1d`` gave."""
    old_keys = np.array(sorted(old, key=lambda k: (k * 7919) % 401), dtype=np.int64)
    new_keys = np.array(sorted(new), dtype=np.int64)
    added, removed = _key_census(old_keys, new_keys)
    assert added.tolist() == np.setdiff1d(new_keys, old_keys, assume_unique=True).tolist()
    assert removed.tolist() == np.sort(
        np.setdiff1d(old_keys, new_keys, assume_unique=True)).tolist()


class TestRankedServing:
    """top_neighbors over the index's ranked rows."""

    def _random_graph(self, seed):
        rng = random.Random(seed)
        items = [f"i{n}" for n in range(12)]
        edges = [(items[a], items[b], round(rng.uniform(-1, 1), 2))
                 for a in range(len(items)) for b in range(a + 1, len(items))
                 if rng.random() < 0.4]
        return ItemGraph.from_edges(items, edges), items

    def _legacy_top_neighbors(self, graph, item, k, among=None, minimum=None):
        nbrs = graph.neighbors(item)
        if among is None:
            return top_k(nbrs, k, minimum=minimum)
        candidates = [(n, s) for n, s in nbrs.items() if n in set(among)]
        return top_k(candidates, k, minimum=minimum)

    def test_matches_legacy_selection(self):
        graph, items = self._random_graph(3)
        rng = random.Random(7)
        for item in items:
            for k in (0, 1, 3, 50):
                for minimum in (None, 0.0, 0.5):
                    among = None
                    if rng.random() < 0.5:
                        among = frozenset(rng.sample(items, 6))
                    assert graph.top_neighbors(
                        item, k, among=among, minimum=minimum) == \
                        self._legacy_top_neighbors(
                            graph, item, k, among=among, minimum=minimum)

    def test_index_backed_graph_serves_ranked_rows(self, tiny_table):
        # The stateful and the stateless build assemble the same index,
        # and the graph serves its arrays as they are.
        sweep = IncrementalSweep(tiny_table)
        stateless = build_similarity_graph(tiny_table)
        assert sweep.graph.index is sweep.index
        got, want = sweep.graph.ranked_rows(), stateless.ranked_rows()
        assert got[0] == want[0]
        for got_array, want_array in zip(got[1:], want[1:]):
            assert got_array.tolist() == want_array.tolist()
        assert got[1] is sweep.index.ptr
        for item in stateless.items:
            assert sweep.graph.top_neighbors(item, 3) == stateless.top_neighbors(item, 3)

    def test_index_backed_graph_matches_adjacency_scan(self, tiny_table):
        """Every (k, among, minimum) query answered off the flat index
        rows equals ``top_k`` over the item's neighbor dict."""
        graph = build_similarity_graph(tiny_table)
        items = sorted(graph.items)
        among_sets = [None] + [frozenset(items[:n]) for n in (1, 2, 3)]
        for item in items:
            assert graph.top_neighbors(item, graph.degree(item)) == \
                top_k(graph.neighbors(item), graph.degree(item))
            for k in (1, 2, 3, 10):
                for among in among_sets:
                    for minimum in (None, 0.0, 0.5):
                        got = graph.top_neighbors(item, k, among=among, minimum=minimum)
                        want = self._legacy_top_neighbors(
                            graph, item, k, among=among, minimum=minimum)
                        assert got == want, (item, k, among, minimum)
