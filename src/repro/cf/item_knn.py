"""Item-based collaborative filtering — Algorithm 2 of the paper.

Phase 1 ranks items by adjusted-cosine similarity (Eq 3) and keeps the
top-k; Phase 2 predicts
``Pred[i] = r̄_i + Σ_j τ(i,j)(r_{A,j} − r̄_j) / Σ_j |τ(i,j)|`` (Eq 4)
over the similar items *j* that the query user has rated.

This is the engine behind ``X-Map-ib`` / ``NX-Map-ib`` and the
Item-based-kNN linked-domain competitor (which simply runs it over the
aggregated two-domain table). The temporal variant of Eq 7 lives in
:mod:`repro.cf.temporal` and subclasses this.

Serving runs over a precomputed
:class:`~repro.similarity.knn.NeighborIndex` (built lazily from the
table's interned store on first prediction): the query item's neighbors
are already ranked by (descending similarity, ascending id), so Phase 1
is one scan that keeps the first k entries the user has rated — no
per-pair profile intersections, no per-call sort. The private X-Map-ib
recommender (:mod:`repro.privacy.pncf`) scans the same row, so both
variants read one Eq-6 computation.
"""

from __future__ import annotations

import numpy as _np

from repro.cf.predictor import BaseRecommender
from repro.data.ratings import RatingTable
from repro.errors import ConfigError
from repro.similarity.knn import NeighborIndex


class ItemKNNRecommender(BaseRecommender):
    """Algorithm 2 (item-based CF) over a single-domain rating table.

    Args:
        table: training ratings.
        k: neighborhood size (paper: k = 50).
        positive_only: keep only positively-similar neighbors (default).
            Eq 4's ``|τ|`` denominator admits negative similarities, but
            classical item-based deployments [29] neighbor on positive
            similarity: on sparse data a negative-similarity term flips
            the user-bias component of the deviation destructively.
            Disable for the faithful-to-the-formula ablation.
        index: a prebuilt (same item universe) serving
            index to adopt instead of building one lazily — what a
            loaded :class:`~repro.serving.snapshot.ModelSnapshot`
            injects so a restarted server's first prediction never
            pays a sweep.

    For a prediction (A, i), only items in ``X_A`` can contribute to the
    Eq 4 sum (the term needs ``r_{A,j}``), so Phase 1 selects the top-k
    similar items *among the user's rated items* — the standard
    item-based CF formulation of [29] that the paper builds on.
    """

    def __init__(self, table: RatingTable, k: int = 50,
                 positive_only: bool = True,
                 index: NeighborIndex | None = None) -> None:
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        if index is not None and list(index.items) != table.matrix().items:
            # A foreign index would slice another universe's rows —
            # plausible-looking, silently wrong neighborhoods.
            raise ConfigError(
                "the injected serving index was built over a "
                "different item universe than the table")
        super().__init__(table)
        self.k = k
        self.positive_only = positive_only
        self._index: NeighborIndex | None = index
        self._rated_cache: dict[str, object] = {}

    def neighbor_index(self) -> NeighborIndex:
        """The serving index: every nonzero-similarity neighbor of every
        item, rank-ordered, in flat arrays. Built once, lazily."""
        if self._index is None:
            self._index = self.table.matrix().neighbor_index()
        return self._index

    def _rated_lookup(self, user: str):
        """Cached boolean mask over the user's rated item *indexes*."""
        cached = self._rated_cache.get(user)
        if cached is None:
            store = self.table.matrix()
            u = store.user_index.get(user)
            if u is None:
                # Empty-list fancy indexing (not an empty tuple, which
                # numpy reads as "the whole array") keeps the mask false.
                row = []
            else:
                start, end = int(store.user_ptr[u]), int(store.user_ptr[u + 1])
                row = store.user_item_idx[start:end]
            cached = _np.zeros(store.n_items, dtype=bool)
            cached[_np.asarray(row, dtype=_np.int64)] = True
            self._rated_cache[user] = cached
        return cached

    def rated_neighbors(self, user: str, item: str) -> list[tuple[str, float]]:
        """Phase 1 restricted to ``X_A``: the top-k items the user rated,
        ranked by |similarity| > 0 to *item*.

        This is one scan of the query item's ranked row — the first k
        rated entries *are* the top-k (the row order is the ``top_k``
        order) — instead of one profile intersection per rated item.
        """
        store = self.table.matrix()
        idx = store.item_index.get(item)
        if idx is None:
            return []
        ids, weights = self.neighbor_index().row(idx)
        if len(ids) == 0:
            return []
        rated = self._rated_lookup(user)
        items = store.items
        k = self.k
        selected = rated[ids]
        if self.positive_only:
            selected &= weights > 0.0
        positions = _np.nonzero(selected)[0][:k]
        return [(items[j], weight)
                for j, weight in zip(ids[positions].tolist(),
                                     weights[positions].tolist())]

    def _predict_raw(self, user: str, item: str) -> float | None:
        neighbors = self.rated_neighbors(user, item)
        numerator = 0.0
        denominator = 0.0
        for rated, sim in neighbors:
            rating = self.table.get(user, rated)
            if rating is None:  # pragma: no cover - neighbors come from X_A
                continue
            numerator += sim * (rating.value - self.table.item_mean(rated))
            denominator += abs(sim)
        if denominator == 0.0:
            return None
        return self.table.item_mean(item) + numerator / denominator
