"""The item similarity graph ``G`` of §3.1.

Vertices are items, undirected edges carry a similarity weight. The
Baseliner builds the baseline graph ``G_ac`` from adjusted-cosine
similarities (two items are connected iff they share a user); the
layer partitioner, the meta-path enumerator and the Extender read it.

The graph has one stored form, a
:class:`~repro.similarity.knn.NeighborIndex` — rank-ordered flat rows
over the sorted item ids — and :class:`ItemGraph` is its name-keyed
face. :func:`build_similarity_graph` is the Baseliner's stateless
build (the store's Eq-6 sweep, :mod:`repro.engine.sharded_sweep`);
:meth:`ItemGraph.from_edges` builds a graph from hand-made edges.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as _np

from repro.data.ratings import RatingTable
from repro.errors import GraphError
from repro.similarity.knn import NeighborIndex


class ItemGraph:
    """Undirected weighted item–item graph over one
    :class:`~repro.similarity.knn.NeighborIndex`, its only state.

    Every query reads the index arrays: rows are already in serving
    rank order (descending similarity, ascending id — :func:`top_k`'s
    tie-break), so nothing is sorted or memoized here. The graph is
    immutable; a new version is a new index.
    """

    __slots__ = ("index",)

    def __init__(self, index: NeighborIndex) -> None:
        self.index = index

    @classmethod
    def from_edges(cls, items: Iterable[str],
                   edges: Iterable[tuple[str, str, float]]) -> "ItemGraph":
        """The graph over *items* (isolated ones included) whose
        undirected edges are the ``(i, j, sim)`` triples of *edges*.

        Raises :class:`~repro.errors.GraphError` on a self-loop, a pair
        given twice (in either orientation), a non-finite weight or an
        endpoint not in *items*. Zero weights are dropped: index rows
        hold nonzero edges only.
        """
        names = sorted(set(items))
        item_index = {name: position for position, name in enumerate(names)}
        triples = list(edges)
        try:
            left = _np.fromiter(
                (item_index[i] for i, _, _ in triples), _np.int64, len(triples))
            right = _np.fromiter(
                (item_index[j] for _, j, _ in triples), _np.int64, len(triples))
        except KeyError as exc:
            raise GraphError(f"edge endpoint {exc.args[0]!r} is not an item") from None
        weights = _np.fromiter((w for *_, w in triples), _np.float64, len(triples))
        loops = _np.flatnonzero(left == right)
        if len(loops):
            raise GraphError(f"self-loop on {triples[loops[0]][0]!r} is not allowed")
        bad = _np.flatnonzero(~_np.isfinite(weights))
        if len(bad):
            raise GraphError(
                f"edge {triples[bad[0]][:2]} has non-finite weight {weights[bad[0]]}")
        keys = _np.minimum(left, right) * len(names) + _np.maximum(left, right)
        order = _np.argsort(keys, kind="stable")
        repeats = _np.flatnonzero(keys[order][1:] == keys[order][:-1])
        if len(repeats):
            raise GraphError(f"edge {triples[order[repeats[0] + 1]][:2]} is given twice")
        keep = weights != 0.0
        return cls(NeighborIndex.from_pairs(
            names, item_index, left[keep], right[keep], weights[keep]))

    @property
    def items(self) -> frozenset[str]:
        """All vertices (including isolated ones)."""
        return frozenset(self.index.items)

    def __contains__(self, item: str) -> bool:
        return item in self.index.item_index

    def __len__(self) -> int:
        return self.index.n_items

    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.index.n_entries // 2

    def neighbors(self, item: str) -> dict[str, float]:
        """Neighbor → similarity for *item*, in rank order (empty if
        unknown) — a new dict per call."""
        return self.index.neighbor_dict(item)

    def similarity(self, item_i: str, item_j: str, default: float = 0.0) -> float:
        """Edge weight, or *default* when the edge is absent."""
        return self.neighbors(item_i).get(item_j, default)

    def has_edge(self, item_i: str, item_j: str) -> bool:
        """Whether the undirected edge ``{i, j}`` exists."""
        return item_j in self.neighbors(item_i)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield each undirected edge once as ``(i, j, sim)`` with i < j."""
        index = self.index
        owner = index.owners()
        upper = owner < index.neighbor_ids  # sorted ids: index order is id order
        items = index.items
        for i, j, sim in zip(owner[upper].tolist(), index.neighbor_ids[upper].tolist(),
                             index.weights[upper].tolist()):
            yield items[i], items[j], sim

    def ranked_rows(self):
        """Every row at once, in rank order, as ``(items, ptr, neighbor
        ids, weights)`` over the sorted item ids: the index's own
        arrays. Read-only."""
        index = self.index
        return index.items, index.ptr, index.neighbor_ids, index.weights

    def top_neighbors(self, item: str, k: int,
                      among: Iterable[str] | None = None,
                      minimum: float | None = None) -> list[tuple[str, float]]:
        """Top-k neighbors of *item*, optionally restricted to *among*.

        One scan of the index row
        (:meth:`~repro.similarity.knn.NeighborIndex.top`): the *minimum*
        floor cuts it short (rows are similarity-descending, so
        qualifying entries are a prefix), an *among* restriction — the
        layer partitioner hands in frozensets, used as-is — filters in
        stride, and the scan stops at k survivors. Results are identical
        to ``top_k`` over the same candidates: the row rank *is* the
        top-k order. ``top_neighbors(item, degree(item))`` is the whole
        ranked row.
        """
        if k <= 0:
            return []
        allowed = None
        if among is not None:
            allowed = among if isinstance(among, (set, frozenset)) \
                else set(among)
        return self.index.top(item, k, minimum=minimum, among=allowed)

    def degree(self, item: str) -> int:
        """Number of incident edges."""
        return self.index.degree(item)


def build_similarity_graph(
        table: RatingTable,
        min_common_users: int = 1,
        min_abs_similarity: float = 0.0,
) -> ItemGraph:
    """Build the baseline graph ``G_ac`` from a rating table (§3.1).

    Args:
        table: ratings over the aggregated (source ∪ target) domain.
        min_common_users: minimum co-raters for an edge to exist.
        min_abs_similarity: drop edges with ``|sim|`` below this (0 keeps
            every nonzero edge, as the paper does).

    Every item in *table* becomes a vertex even if isolated — the layer
    partitioner needs to see isolated items to classify them NN. The
    build is the store's Eq-6 sweep
    (:func:`~repro.engine.sharded_sweep.run_sweep`), which assembles
    the index the graph reads.
    """
    from repro.engine.sharded_sweep import run_sweep

    _, index = run_sweep(
        table.matrix(),
        min_common_users=min_common_users,
        min_abs_similarity=min_abs_similarity)
    return ItemGraph(index)
