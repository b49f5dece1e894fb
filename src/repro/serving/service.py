"""The batched multi-user recommendation service.

:class:`RecommendationService` is the request-facing front end over a
:class:`~repro.serving.registry.ModelRegistry` (or a bare snapshot,
wrapped in a private registry). Every request pins one model version
for its whole duration, so a concurrent publish never tears a response.

Two serving paths answer Top-N:

* **per-request** — :meth:`recommend` delegates to the pinned
  snapshot's :class:`~repro.cf.item_knn.ItemKNNRecommender`, one
  Python-level candidate loop per user (the reference path);
* **batched** — :meth:`recommend_batch` serves many users per call:
  each user is one vectorized pass over the pinned
  index's flat arrays (the contributing entries are gathered through a
  per-version transposed entry index — only the user's rated items'
  rows are touched — rank-capped at k per row, then Eq-4
  numerators/denominators scatter-add with ``bincount``), with
  candidate ranking a single stable argsort. Results are **identical**
  to the per-request path — same IEEE operations in the same order,
  same (-score, ascending id) tie-break — just without the
  per-candidate Python loop (``benchmarks/test_service_bench.py`` pins
  the ≥5× throughput bar at the largest size).

Two LRU caches sit in front, with a delta-targeted invalidation
contract wired to the registry's update census
(:class:`~repro.engine.sharded_sweep.IncrementalUpdateStats`):

* the **ranked-row cache** (:meth:`similar_items`) keys materialised
  neighbor rows by item; an incremental update evicts **only the rows
  of the items its census names** (``affected_items`` — exact:
  a stored row and its item mean can only move for an affected item),
  so row hit rates survive online appends;
* the **response cache** (Top-N answers) is version-scoped: any
  publish clears it wholesale, because an update that moves one item
  mean can reorder any user's candidate ranking — partial eviction
  here would serve stale rankings. Repeated requests within a version
  hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as _np

from repro.errors import ServingError, StaleModelError
from repro.serving.registry import ModelRegistry
from repro.serving.snapshot import ModelSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded_sweep import IncrementalUpdateStats


class LRUCache:
    """A small LRU map with hit/miss counters and targeted eviction.

    Thread-safe: every operation holds one lock (the critical sections
    are dict probes — the recency reshuffle must not interleave with a
    concurrent eviction). Invalidation bumps a :attr:`generation`
    counter under the same lock, and :meth:`put_if` inserts only when
    the caller's recorded generation still holds — the atomic
    "cache unless an invalidation raced my computation" primitive the
    service's publish contract needs.
    """

    __slots__ = ("maxsize", "hits", "misses", "generation", "_data", "_lock")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ServingError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: bumped by every invalidation (:meth:`evict` / :meth:`clear`).
        self.generation = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The cached value (promoted to most-recent) or ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def _put_locked(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._put_locked(key, value)

    def put_if(self, key, value, generation: int) -> bool:
        """Insert unless an invalidation has run since *generation* was
        read. The check and the insert share the lock, so a value
        computed from a superseded model can never land *after* the
        eviction that was meant to cover it."""
        if self.maxsize == 0:
            return False
        with self._lock:
            if generation != self.generation:
                return False
            self._put_locked(key, value)
            return True

    def evict(self, keys: Iterable) -> int:
        """Drop the given keys; returns how many were present."""
        with self._lock:
            self.generation += 1
            dropped = 0
            for key in keys:
                if self._data.pop(key, None) is not None:
                    dropped += 1
            return dropped

    def clear(self) -> None:
        with self._lock:
            self.generation += 1
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:  # no LRU promotion, no counters
        return key in self._data


def _slice_row(
    row: list[tuple[str, float]],
    k: int,
    minimum: float | None,
) -> list[tuple[str, float]]:
    """Slice a materialised weight-descending neighbor row to a
    (k, minimum) request — the per-request half of the row cache."""
    if k <= 0:
        return []
    if minimum is None:
        return row[:k]
    selected = []
    for name, weight in row:
        if weight < minimum:
            break  # rows are weight-descending
        selected.append((name, weight))
        if len(selected) == k:
            break
    return selected


class RecommendationService:
    """Batched multi-user Top-N serving over pinned model versions.

    Args:
        model: a :class:`~repro.serving.registry.ModelRegistry` (shared
            with a writer — the service subscribes for cache
            invalidation) or a bare
            :class:`~repro.serving.snapshot.ModelSnapshot` (wrapped in
            a private read-only registry).
        row_cache_size: LRU capacity of the per-item ranked-row cache.
        response_cache_size: LRU capacity of the Top-N response cache.
    """

    def __init__(
        self,
        model: ModelRegistry | ModelSnapshot,
        row_cache_size: int = 4096,
        response_cache_size: int = 1024,
    ) -> None:
        if isinstance(model, ModelSnapshot):
            model = ModelRegistry(snapshot=model)
        self.registry = model
        self._row_cache = LRUCache(row_cache_size)
        self._response_cache = LRUCache(response_cache_size)
        #: (version, layout) pair — read and replaced as one tuple, so
        #: a request pinned to another version never mixes layouts.
        self._layout: tuple[int, tuple] | None = None
        self.n_requests = 0
        self.n_users_served = 0
        self.registry.subscribe(self._on_publish)

    def close(self) -> None:
        """Detach from the registry and drop the caches.

        Call when discarding a service built over a long-lived shared
        registry — otherwise the subscriber list keeps the service (and
        its caches) alive and every publish still walks its callback.
        Idempotent; a closed service can keep serving, uncached.
        """
        self.registry.unsubscribe(self._on_publish)
        self._row_cache.clear()
        self._response_cache.clear()
        # No subscription means no invalidation: caching must stop too,
        # or continued use would serve stale entries across publishes.
        self._row_cache.maxsize = 0
        self._response_cache.maxsize = 0

    # ------------------------------------------------------------------
    # Cache invalidation (registry subscriber)
    # ------------------------------------------------------------------

    def _on_publish(
        self,
        version: int,
        snapshot: ModelSnapshot,
        stats: "IncrementalUpdateStats | None",
    ) -> None:
        """Invalidate after a publish — delta-targeted when the census
        is known, wholesale otherwise (see the module docstring for the
        contract). Both invalidations bump their cache's generation
        under the cache lock, and every request path inserts through
        :meth:`LRUCache.put_if` with the generation it read before
        pinning — so a value computed under a superseded pin can never
        land *behind* the eviction that was meant to cover it."""
        self._response_cache.clear()
        if stats is None:
            self._row_cache.clear()
        else:
            self._row_cache.evict(stats.affected_items)

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------

    def predict(self, user: str, item: str) -> float:
        """One predicted rating from the current version."""
        with self.registry.pin() as pinned:
            return pinned.snapshot.recommender().predict(user, item)

    def recommend(self, user: str, n: int = 10) -> list[tuple[str, float]]:
        """Top-N for one user (the per-request reference path), served
        through the response cache."""
        self.n_requests += 1
        key = (user, n)
        cached = self._response_cache.get(key)
        if cached is not None:
            self.n_users_served += 1
            return cached
        generation = self._response_cache.generation
        with self.registry.pin() as pinned:
            result = pinned.snapshot.recommender().recommend(user, n)
        self._response_cache.put_if(key, result, generation)
        self.n_users_served += 1
        return result

    def recommend_batch(
        self, users: Sequence[str], n: int = 10
    ) -> list[list[tuple[str, float]]]:
        """Top-N for many users against **one** pinned version.

        Returns one result list per user, aligned with *users* —
        identical to ``[service.recommend(u, n) for u in users]``
        except that every user is answered from the same version (a
        mid-batch publish cannot split the batch across models) and
        the uncached users are scored by the vectorized pass.
        """
        self.n_requests += 1
        results: list[list[tuple[str, float]] | None] = [None] * len(users)
        missing: list[tuple[int, str]] = []
        for position, user in enumerate(users):
            cached = self._response_cache.get((user, n))
            if cached is not None:
                results[position] = cached
            else:
                missing.append((position, user))
        if missing:
            generation = self._response_cache.generation
            with self.registry.pin() as pinned:
                snapshot = pinned.snapshot
                computed = self._batch_topn(snapshot, [user for _, user in missing], n)
            for (position, user), result in zip(missing, computed):
                self._response_cache.put_if((user, n), result, generation)
                results[position] = result
        self.n_users_served += len(users)
        return results

    def similar_items(
        self, item: str, k: int = 10, minimum: float | None = None
    ) -> list[tuple[str, float]]:
        """The rank-ordered neighbor row of *item* (a related-items
        endpoint), served through the ranked-row cache.

        The full materialised row is cached per item and sliced per
        request, so any (k, minimum) combination hits the same entry.
        Asking for more than a truncated index stores raises, exactly
        like :meth:`~repro.similarity.knn.NeighborIndex.top`.
        """
        generation = self._row_cache.generation
        with self.registry.pin() as pinned:
            snapshot = pinned.snapshot
            index = snapshot.index
            if k > 0:
                index._check_k(k)
            row = self._row_cache.get(item)
            if row is None:
                row = index.top(item, index.degree(item))
                # Guarded put: had a publish evicted this item while we
                # computed its row from the pinned (now superseded)
                # version, caching it would outlive the eviction.
                self._row_cache.put_if(item, row, generation)
        return _slice_row(row, k, minimum)

    # ------------------------------------------------------------------
    # Version-pinned request paths (the gateway's entry points)
    # ------------------------------------------------------------------
    #
    # The plain paths above answer "the current version, whichever that
    # is". A networked fleet needs two stronger properties per request:
    # the caller must LEARN which version answered (so a gateway can
    # enforce monotonic reads across workers), and a request must be
    # REFUSABLE when the local model is known-behind (``min_version``)
    # so the caller can refresh-and-retry instead of silently reading
    # stale data. Cache keys on these paths are version-scoped — the
    # 3-tuple/2-tuple shapes cannot collide with the plain paths' keys
    # — so a response can never mix entries from two versions, even
    # when a publish lands mid-request.

    def recommend_batch_pinned(
        self,
        users: Sequence[str],
        n: int = 10,
        min_version: int = 0,
    ) -> tuple[int, list[list[tuple[str, float]]]]:
        """Top-N for many users against one pinned version, reported.

        Returns ``(version, results)`` where every result — including
        cache hits — was computed under exactly that version. Raises
        :class:`~repro.errors.StaleModelError` when the current version
        is behind *min_version* (the caller polls its watcher and
        retries).
        """
        self.n_requests += 1
        generation = self._response_cache.generation
        with self.registry.pin() as pinned:
            version = pinned.version
            if version < min_version:
                raise StaleModelError(version, min_version)
            snapshot = pinned.snapshot
            results: list[list[tuple[str, float]] | None] = [None] * len(users)
            missing: list[tuple[int, str]] = []
            for position, user in enumerate(users):
                cached = self._response_cache.get((version, user, n))
                if cached is not None:
                    results[position] = cached
                else:
                    missing.append((position, user))
            if missing:
                computed = self._batch_topn(snapshot, [user for _, user in missing], n)
                for (position, user), result in zip(missing, computed):
                    self._response_cache.put_if((version, user, n), result, generation)
                    results[position] = result
        self.n_users_served += len(users)
        return version, results

    def similar_items_pinned(
        self,
        item: str,
        k: int = 10,
        minimum: float | None = None,
        min_version: int = 0,
    ) -> tuple[int, list[tuple[str, float]]]:
        """:meth:`similar_items`, version-reported and refusable — the
        gateway-facing twin of :meth:`recommend_batch_pinned`."""
        self.n_requests += 1
        generation = self._row_cache.generation
        with self.registry.pin() as pinned:
            version = pinned.version
            if version < min_version:
                raise StaleModelError(version, min_version)
            index = pinned.snapshot.index
            if k > 0:
                index._check_k(k)
            key = (version, item)
            row = self._row_cache.get(key)
            if row is None:
                row = index.top(item, index.degree(item))
                self._row_cache.put_if(key, row, generation)
        return version, _slice_row(row, k, minimum)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for dashboards and the service benchmark."""
        return {
            "version": self.registry.current_version(),
            "n_requests": self.n_requests,
            "n_users_served": self.n_users_served,
            "row_cache": {
                "size": len(self._row_cache),
                "hits": self._row_cache.hits,
                "misses": self._row_cache.misses,
                "hit_rate": self._row_cache.hit_rate,
            },
            "response_cache": {
                "size": len(self._response_cache),
                "hits": self._response_cache.hits,
                "misses": self._response_cache.misses,
                "hit_rate": self._response_cache.hit_rate,
            },
        }

    def export_metrics(self, registry) -> None:
        """Bridge the service's counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` (counters adopt the
        externally-maintained counts monotonically). Called by the
        gateway worker on every health frame — export-on-scrape, so
        the request hot path pays nothing for the bridge."""
        registry.counter(
            "service_requests_total", "requests the service answered"
        ).set(self.n_requests)
        registry.counter(
            "service_users_served_total", "users scored across all requests"
        ).set(self.n_users_served)
        registry.counter(
            "service_cache_hits_total", "LRU cache hits, by cache",
            labels=("cache",),
        ).labels("row").set(self._row_cache.hits)
        registry.counter(
            "service_cache_hits_total", "LRU cache hits, by cache",
            labels=("cache",),
        ).labels("response").set(self._response_cache.hits)
        registry.counter(
            "service_cache_misses_total", "LRU cache misses, by cache",
            labels=("cache",),
        ).labels("row").set(self._row_cache.misses)
        registry.counter(
            "service_cache_misses_total", "LRU cache misses, by cache",
            labels=("cache",),
        ).labels("response").set(self._response_cache.misses)
        registry.gauge(
            "service_version", "model version the service currently serves"
        ).set(self.registry.current_version())

    # ------------------------------------------------------------------
    # The vectorized batched pass
    # ------------------------------------------------------------------

    def _index_layout(self, snapshot: ModelSnapshot):
        """Per-version serving layout over the snapshot's index flat
        arrays: the entry → owning-row map plus the transposed entry
        index (for each neighbor *j*, the flat positions of the entries
        ``(i, j)``, in (owner, rank) order). Pure functions of the
        immutable index. The cache slot is read and written as one
        (version, layout) tuple and the local value is returned, so a
        concurrent request pinned to a different version can at worst
        overwrite the slot — never hand this request its layout."""
        version = snapshot.version
        cached = self._layout
        if cached is not None and cached[0] == version:
            return cached[1]
        index = snapshot.index
        owners = index.row_owners()
        # Stable sort by neighbor groups positions per neighbor and
        # keeps them (owner, rank)-ascending within each group.
        transpose = _np.argsort(index.neighbor_ids, kind="stable")
        transpose_ptr = _np.searchsorted(
            index.neighbor_ids[transpose], _np.arange(index.n_items + 1)
        )
        layout = (owners, transpose, transpose_ptr)
        self._layout = (version, layout)
        return layout

    def _batch_topn(
        self, snapshot: ModelSnapshot, users: Sequence[str], n: int
    ) -> list[list[tuple[str, float]]]:
        store = snapshot.store
        if snapshot.index.k is not None:
            # Top-N over a truncated index is unservable:
            # snapshot.recommender() raises the explanatory ServingError.
            recommender = snapshot.recommender()
            return [recommender.recommend(user, n) for user in users]

        index = snapshot.index
        neighbor_ids = index.neighbor_ids
        weights = index.weights
        owners, transpose, transpose_ptr = self._index_layout(snapshot)
        n_items = store.n_items
        items = store.items
        item_means = _np.asarray(store.item_means, dtype=_np.float64)
        lo, hi = snapshot.scale
        k = snapshot.cf_k
        positive_only = snapshot.positive_only

        results: list[list[tuple[str, float]]] = []
        for user in users:
            u = store.user_index.get(user)
            rated = _np.zeros(n_items, dtype=bool)
            values = _np.zeros(n_items, dtype=_np.float64)
            if u is not None:
                start, end = int(store.user_ptr[u]), int(store.user_ptr[u + 1])
                row_idx = store.user_item_idx[start:end]
                rated[row_idx] = True
                values[row_idx] = store.user_values[start:end]
                # Only entries whose neighbor the user rated can
                # contribute — gather exactly those via the transposed
                # index (Σ_j |row(j)| work, not one pass over every
                # entry) and restore flat order, which is (owner, rank)
                # order: the same sequence the per-request scan visits.
                if end > start:
                    positions = _np.concatenate(
                        [
                            transpose[transpose_ptr[j] : transpose_ptr[j + 1]]
                            for j in row_idx.tolist()
                        ]
                    )
                else:
                    positions = _np.zeros(0, dtype=_np.int64)
                positions.sort()
            else:
                positions = _np.zeros(0, dtype=_np.int64)
            if positive_only and len(positions):
                positions = positions[weights[positions] > 0.0]

            # Phase 1's "first k selected per row": positions are
            # owner-grouped and rank-ascending, so the within-row rank
            # of each surviving entry is its offset from the start of
            # its owner's run.
            if len(positions):
                position_owners = owners[positions]
                offsets = _np.arange(len(positions), dtype=_np.int64)
                breaks = _np.concatenate(
                    ([True], position_owners[1:] != position_owners[:-1])
                )
                run_start = _np.where(breaks, offsets, 0)
                rank = offsets - _np.maximum.accumulate(run_start)
                keep = rank < k
                kept = positions[keep]
                kept_owners = position_owners[keep]
            else:
                kept = positions
                kept_owners = positions
            kept_neighbors = neighbor_ids[kept]
            kept_weights = weights[kept]
            # Eq 4, scatter-added per candidate row. bincount adds in
            # input order — flat rank order within each row — so every
            # per-row sum sees the same addends in the same sequence as
            # the per-request predict loop: bit-identical numerators.
            deviations = values[kept_neighbors] - item_means[kept_neighbors]
            numerators = _np.bincount(
                kept_owners, weights=kept_weights * deviations, minlength=n_items
            )
            denominators = _np.bincount(
                kept_owners, weights=_np.abs(kept_weights), minlength=n_items
            )

            # Prediction with the fallback chain: candidates without
            # signal fall back to their item mean (every catalogue item
            # has one), then everything clips into the scale.
            scores = _np.array(item_means, dtype=_np.float64, copy=True)
            signal = denominators != 0.0
            scores[signal] = (
                item_means[signal] + numerators[signal] / denominators[signal]
            )
            scores = _np.minimum(hi, _np.maximum(lo, scores))

            # Top-N with the (-score, ascending id) tie-break: interning
            # is lexicographic, so a stable descending-score argsort
            # breaks ties by id exactly like the per-request sort.
            order = _np.argsort(-scores, kind="stable")
            candidates = order[~rated[order]][:n]
            scores_list = scores[candidates].tolist()
            results.append(
                [
                    (items[int(idx)], score)
                    for idx, score in zip(candidates.tolist(), scores_list)
                ]
            )
        return results
