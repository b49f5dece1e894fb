"""The item similarity graph ``G`` of §3.1.

Vertices are items, undirected edges carry a similarity weight. The
Baseliner builds the initial graph ``G_ac`` from adjusted-cosine
similarities (two items are connected iff they share a user); the
Extender then adds meta-path-derived X-Sim edges across domains.

The class is a thin adjacency-dict wrapper, but it is the shared
vocabulary between the layer partitioner, the meta-path enumerator and
the extender, so it lives in one place with a validated API.
:func:`build_similarity_graph` is the Baseliner's stateless build: the
store's Eq-6 sweep (:mod:`repro.engine.sharded_sweep`), adjacency only.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, Mapping

from repro.data.ratings import RatingTable
from repro.errors import GraphError
from repro.obs import get_registry
from repro.similarity.knn import NeighborIndex, rank_rows, row_dicts

_M_VIEWS_BUILT = get_registry().counter(
    "item_graph_views_built_total",
    "item graphs built as dict views of a NeighborIndex")
_M_VIEW_SECONDS = get_registry().counter(
    "item_graph_view_build_seconds_total",
    "wall seconds spent building those views")


class ItemGraph:
    """Undirected weighted item–item graph.

    Serve-path queries (:meth:`top_neighbors`) run over *ranked* rows —
    neighbors ordered by descending similarity with the ascending-id
    tie-break. A row is ranked at most once: either it comes straight
    from a :class:`~repro.similarity.knn.NeighborIndex` the graph is a
    view of (:meth:`from_index`), or it is sorted lazily and memoized.
    Mutations (:meth:`add_edge` and friends) invalidate both, so the
    Extender's working copies stay correct.
    """

    __slots__ = ("_adjacency", "_index", "_ranked_cache")

    def __init__(self) -> None:
        self._adjacency: dict[str, dict[str, float]] = {}
        self._index: NeighborIndex | None = None
        self._ranked_cache: dict[str, list[tuple[str, float]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_item(self, item: str) -> None:
        """Ensure *item* exists as an (initially isolated) vertex."""
        self._adjacency.setdefault(item, {})

    @classmethod
    def from_adjacency(cls,
                       adjacency: dict[str, dict[str, float]],
                       index: NeighborIndex | None = None) -> "ItemGraph":
        """Adopt a prebuilt adjacency mapping without copying.

        The mapping must already be symmetric (``j in adjacency[i]`` iff
        ``i in adjacency[j]``, equal weights) and self-loop free; the
        caller keeps no reference. This is the bulk construction path the
        Baseliner uses with
        :meth:`~repro.data.matrix.MatrixRatingStore.build_adjacency`.

        *index* is a :class:`~repro.similarity.knn.NeighborIndex`
        assembled from the **same** adjacency: :meth:`top_neighbors`
        then serves ranked rows straight from its flat arrays instead
        of sorting lazily.
        """
        graph = cls()
        graph._adjacency = adjacency
        graph._index = index
        return graph

    @classmethod
    def from_index(cls, index: NeighborIndex) -> "ItemGraph":
        """The graph whose adjacency *index* holds, as a string-keyed
        view: row ``i`` is index row ``i`` as a dict (every item a
        vertex), and *index* stays attached for ranked reads.

        The write path keeps only the index; this builds the dicts for
        a caller that asks for them (an
        :class:`~repro.engine.sharded_sweep.IncrementalSweep`'s
        ``graph``, :meth:`~repro.serving.snapshot.ModelSnapshot.graph`)
        and counts each build in ``item_graph_views_built_total`` /
        ``item_graph_view_build_seconds_total``.
        """
        started = time.perf_counter()
        graph = cls.from_adjacency(
            row_dicts(index.items, index.ptr, index.neighbor_ids, index.weights),
            index=index)
        _M_VIEWS_BUILT.inc()
        _M_VIEW_SECONDS.inc(time.perf_counter() - started)
        return graph

    def _invalidate(self) -> None:
        """Drop ranked-row state after a mutation."""
        self._index = None
        if self._ranked_cache:
            self._ranked_cache.clear()

    def add_edge(self, item_i: str, item_j: str, similarity: float) -> None:
        """Add (or overwrite) the undirected edge ``{i, j}``.

        Self-loops are meaningless for item similarity and raise
        :class:`~repro.errors.GraphError`.
        """
        if item_i == item_j:
            raise GraphError(f"self-loop on {item_i!r} is not allowed")
        self._invalidate()
        self._adjacency.setdefault(item_i, {})[item_j] = similarity
        self._adjacency.setdefault(item_j, {})[item_i] = similarity

    def add_edges(self, edges: Iterable[tuple[str, str, float]]) -> None:
        """Bulk-add undirected edges from ``(i, j, sim)`` triples.

        Equivalent to calling :meth:`add_edge` per triple but keeps the
        per-endpoint neighbor dict in a local instead of paying two
        ``setdefault`` lookups per edge — this is what the Baseliner uses
        to materialise the millions of Eq-6 edges of ``G_ac``.
        """
        self._invalidate()
        adjacency = self._adjacency
        get = adjacency.get
        for item_i, item_j, similarity in edges:
            if item_i == item_j:
                raise GraphError(f"self-loop on {item_i!r} is not allowed")
            neighbors = get(item_i)
            if neighbors is None:
                neighbors = adjacency[item_i] = {}
            neighbors[item_j] = similarity
            neighbors = get(item_j)
            if neighbors is None:
                neighbors = adjacency[item_j] = {}
            neighbors[item_i] = similarity

    def remove_edge(self, item_i: str, item_j: str) -> None:
        """Remove the edge ``{i, j}`` if present."""
        self._invalidate()
        self._adjacency.get(item_i, {}).pop(item_j, None)
        self._adjacency.get(item_j, {}).pop(item_i, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def items(self) -> frozenset[str]:
        """All vertices (including isolated ones)."""
        return frozenset(self._adjacency)

    def __contains__(self, item: str) -> bool:
        return item in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def neighbors(self, item: str) -> Mapping[str, float]:
        """Neighbor → similarity for *item* (empty mapping if unknown)."""
        return self._adjacency.get(item, {})

    def similarity(self, item_i: str, item_j: str, default: float = 0.0) -> float:
        """Edge weight, or *default* when the edge is absent."""
        return self._adjacency.get(item_i, {}).get(item_j, default)

    def has_edge(self, item_i: str, item_j: str) -> bool:
        """Whether the undirected edge ``{i, j}`` exists."""
        return item_j in self._adjacency.get(item_i, {})

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield each undirected edge once as ``(i, j, sim)`` with i < j."""
        for item, nbrs in self._adjacency.items():
            for other, sim in nbrs.items():
                if item < other:
                    yield item, other, sim

    def ranked_neighbors(self, item: str) -> list[tuple[str, float]]:
        """The full neighbor row of *item* in serving rank order
        (descending similarity, ascending id — :func:`top_k`'s
        tie-break).

        Served from the backing
        :class:`~repro.similarity.knn.NeighborIndex` when one was
        assembled with the graph; otherwise the adjacency row is sorted
        once. Memoized either way, so repeated serve-path calls never
        re-sort. Callers must not mutate the returned list.
        """
        cached = self._ranked_cache.get(item)
        if cached is None:
            index = self._index
            if index is not None:
                cached = index.top(item, index.degree(item))
            else:
                cached = sorted(
                    self._adjacency.get(item, {}).items(),
                    key=lambda pair: (-pair[1], pair[0]))
            self._ranked_cache[item] = cached
        return cached

    def ranked_rows(self):
        """Every row at once, in :meth:`ranked_neighbors` order, as
        ``(items, ptr, neighbor ids, weights)`` over the **sorted** item
        ids: the backing index's own arrays when it covers every vertex,
        one sort of the adjacency otherwise. Read-only either way.
        """
        index = self._index
        if index is not None and len(index.items) == len(self._adjacency):
            return index.items, index.ptr, index.neighbor_ids, index.weights
        items = sorted(self._adjacency)
        ids = {item: position for position, item in enumerate(items)}
        return items, *rank_rows([self._adjacency[item] for item in items], ids)

    def top_neighbors(self, item: str, k: int,
                      among: Iterable[str] | None = None,
                      minimum: float | None = None) -> list[tuple[str, float]]:
        """Top-k neighbors of *item*, optionally restricted to *among*.

        One scan in rank order: the *minimum* floor cuts the scan short
        (rows are similarity-descending, so qualifying entries are a
        prefix), an *among* restriction — the layer partitioner hands
        in frozensets, used as-is — filters in stride, and the scan
        stops as soon as k survivors are collected. Results are
        identical to ``top_k`` over the same candidates: the row rank
        *is* the top-k order. Index-backed graphs scan the flat arrays
        directly (no per-item row materialisation); others scan the
        memoized :meth:`ranked_neighbors` row.
        """
        if k <= 0:
            return []
        allowed = None
        if among is not None:
            allowed = among if isinstance(among, (set, frozenset)) \
                else set(among)
        index = self._index
        if index is not None:
            return index.top(item, k, minimum=minimum, among=allowed)
        ranked = self.ranked_neighbors(item)
        if allowed is None and minimum is None:
            return ranked[:k]
        selected: list[tuple[str, float]] = []
        for name, similarity in ranked:
            if minimum is not None and similarity < minimum:
                break
            if allowed is not None and name not in allowed:
                continue
            selected.append((name, similarity))
            if len(selected) == k:
                break
        return selected

    def degree(self, item: str) -> int:
        """Number of incident edges."""
        return len(self._adjacency.get(item, {}))

    def copy(self) -> "ItemGraph":
        """Deep copy (the Extender mutates its working graph).

        The backing :class:`~repro.similarity.knn.NeighborIndex` is
        immutable and rides along, so an unmutated copy keeps O(k)
        serving; the first mutation on the clone invalidates its
        reference without touching the original. The lazily-memoized
        ranked rows are not carried — the copy re-ranks on demand.
        """
        clone = ItemGraph()
        clone._adjacency = {item: dict(nbrs) for item, nbrs in self._adjacency.items()}
        clone._index = self._index
        return clone


def build_similarity_graph(
        table: RatingTable,
        min_common_users: int = 1,
        min_abs_similarity: float = 0.0,
        pair_source: Callable[[RatingTable], Iterable[tuple[str, str, float]]]
        | None = None,
) -> ItemGraph:
    """Build the baseline graph ``G_ac`` from a rating table (§3.1).

    Args:
        table: ratings over the aggregated (source ∪ target) domain.
        min_common_users: minimum co-raters for an edge to exist.
        min_abs_similarity: drop edges with ``|sim|`` below this (0 keeps
            every nonzero edge, as the paper does).
        pair_source: override the pair generator (tests inject handcrafted
            similarities; default is adjusted cosine, Eq 6).

    Every item in *table* becomes a vertex even if isolated — the layer
    partitioner needs to see isolated items to classify them NN. The
    default path is the store's Eq-6 sweep
    (:func:`~repro.engine.sharded_sweep.run_sweep`), adjacency only: no
    eager ranking pass (the speedup bar of
    ``benchmarks/test_similarity_bench.py`` guards it) —
    :meth:`ItemGraph.ranked_neighbors` ranks rows lazily and memoizes.
    A graph that must carry its serving index is a view of one
    (:meth:`ItemGraph.from_index`).
    """
    if pair_source is None:
        from repro.engine.sharded_sweep import run_sweep

        _, assembled = run_sweep(
            table.matrix(),
            min_common_users=min_common_users,
            min_abs_similarity=min_abs_similarity)
        return ItemGraph.from_adjacency(assembled.adjacency)
    graph = ItemGraph()
    for item in table.items:
        graph.add_item(item)
    graph.add_edges(
        (item_i, item_j, sim) for item_i, item_j, sim in pair_source(table)
        if abs(sim) >= min_abs_similarity and sim != 0.0)
    return graph
