"""Unit tests for the item graph, top-k selection and the serving
index."""

import random

import numpy as np
import pytest

from repro.data.matrix import MatrixRatingStore
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import GraphError
from repro.similarity.graph import ItemGraph, build_similarity_graph
from repro.similarity.knn import merge_ranked_entries, top_k


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
        graph = ItemGraph()
        graph.add_edge("a", "b", 0.7)
        assert graph.similarity("a", "b") == 0.7
        assert graph.similarity("b", "a") == 0.7
        assert graph.has_edge("b", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            ItemGraph().add_edge("a", "a", 1.0)

    def test_edges_yielded_once(self):
        graph = ItemGraph()
        graph.add_edge("a", "b", 0.5)
        graph.add_edge("b", "c", 0.2)
        edges = list(graph.edges())
        assert len(edges) == 2
        assert graph.n_edges() == 2

    def test_remove_edge(self):
        graph = ItemGraph()
        graph.add_edge("a", "b", 0.5)
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.n_edges() == 0

    def test_isolated_items_kept(self):
        graph = ItemGraph()
        graph.add_item("lonely")
        assert "lonely" in graph
        assert graph.degree("lonely") == 0

    def test_top_neighbors_with_restriction(self):
        graph = ItemGraph()
        graph.add_edge("q", "a", 0.9)
        graph.add_edge("q", "b", 0.8)
        graph.add_edge("q", "c", 0.7)
        assert graph.top_neighbors("q", 2, among={"b", "c"}) == [("b", 0.8), ("c", 0.7)]

    def test_copy_is_independent(self):
        graph = ItemGraph()
        graph.add_edge("a", "b", 0.5)
        clone = graph.copy()
        clone.add_edge("a", "c", 0.1)
        assert not graph.has_edge("a", "c")


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

    def test_pair_source_injection(self, tiny_table):
        graph = build_similarity_graph(
            tiny_table, pair_source=lambda table: [("a", "b", 0.42)])
        assert graph.n_edges() == 1
        assert graph.similarity("a", "b") == 0.42

    def test_zero_similarity_never_creates_edge(self, tiny_table):
        graph = build_similarity_graph(
            tiny_table, pair_source=lambda table: [("a", "b", 0.0)])
        assert graph.n_edges() == 0


class TestNeighborIndex:
    """The precomputed serving index: rank-ordered flat rows."""

    def test_rows_are_topk_of_adjacency(self, tiny_table):
        store = MatrixRatingStore(tiny_table)
        adjacency = store.build_adjacency()
        index = store.neighbor_index()
        for item in store.items:
            full = index.top(item, len(adjacency[item]) + 1)
            assert full == top_k(adjacency[item], len(adjacency[item]) + 1)
            assert index.degree(item) == len(adjacency[item])
            assert index.neighbor_dict(item) == adjacency[item]

    def test_minimum_cuts_the_scan(self, tiny_table):
        store = tiny_table.matrix()
        index = store.neighbor_index()
        adjacency = store.build_adjacency()
        for item in store.items:
            expected = top_k(adjacency[item], 10, minimum=0.0)
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


class TestRankedServing:
    """top_neighbors over memoized / index-backed ranked rows."""

    def _random_graph(self, seed):
        rng = random.Random(seed)
        graph = ItemGraph()
        items = [f"i{n}" for n in range(12)]
        for item in items:
            graph.add_item(item)
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                if rng.random() < 0.4:
                    graph.add_edge(items[a], items[b], round(rng.uniform(-1, 1), 2))
        return graph, items

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

    def test_ranked_rows_memoized(self):
        graph, items = self._random_graph(5)
        first = graph.ranked_neighbors(items[0])
        assert graph.ranked_neighbors(items[0]) is first

    def test_mutation_invalidates_memo(self):
        graph = ItemGraph()
        graph.add_edge("a", "b", 0.5)
        assert graph.top_neighbors("a", 1) == [("b", 0.5)]
        graph.add_edge("a", "c", 0.9)
        assert graph.top_neighbors("a", 1) == [("c", 0.9)]
        graph.remove_edge("a", "c")
        assert graph.top_neighbors("a", 1) == [("b", 0.5)]

    def test_index_backed_graph_serves_ranked_rows(self, tiny_table):
        # The stateful build hands the index selected during assembly
        # over with the graph; the memoized stateless build must serve
        # the same rankings, bit for bit (one sweep, one layout).
        indexed = IncrementalSweep(tiny_table).graph
        memoized = build_similarity_graph(tiny_table)
        assert indexed._index is not None
        assert memoized._index is None
        for item in memoized.items:
            assert indexed.top_neighbors(item, 3) == memoized.top_neighbors(item, 3)

    def test_index_backed_graph_invalidates_on_mutation(self, tiny_table):
        graph = IncrementalSweep(tiny_table).graph
        assert graph._index is not None
        before = graph.top_neighbors("a", 1)
        graph.add_edge("a", "zzz-new", 2.0)
        assert graph._index is None
        assert graph.top_neighbors("a", 1) == [("zzz-new", 2.0)]
        graph.remove_edge("a", "zzz-new")
        assert graph.top_neighbors("a", 1) == before

    def test_index_backed_graph_matches_adjacency_scan(self, tiny_table):
        """Every (k, among, minimum) query answered off the flat index
        rows equals the memoized adjacency scan of an index-free graph
        over the same adjacency."""
        store = tiny_table.matrix()
        adjacency = store.build_adjacency()
        indexed = ItemGraph.from_adjacency(
            {item: dict(nbrs) for item, nbrs in adjacency.items()},
            index=store.neighbor_index())
        reference = ItemGraph.from_adjacency(adjacency)
        items = sorted(reference.items)
        among_sets = [None] + [frozenset(items[:n]) for n in (1, 2, 3)]
        for item in items:
            assert indexed.ranked_neighbors(item) == reference.ranked_neighbors(item)
            for k in (1, 2, 3, 10):
                for among in among_sets:
                    for minimum in (None, 0.0, 0.5):
                        got = indexed.top_neighbors(
                            item, k, among=among, minimum=minimum)
                        want = reference.top_neighbors(
                            item, k, among=among, minimum=minimum)
                        assert got == want, (item, k, among, minimum)

    def test_copy_carries_backing_index(self, tiny_table):
        store = tiny_table.matrix()
        graph = ItemGraph.from_adjacency(
            store.build_adjacency(), index=store.neighbor_index())
        clone = graph.copy()
        assert clone._index is graph._index
        for item in sorted(graph.items):
            assert clone.top_neighbors(item, 2) == \
                graph.top_neighbors(item, 2)
        # First mutation on the clone drops its reference only.
        clone.add_edge("a", "zzz-new", 2.0)
        assert clone._index is None
        assert graph._index is not None
