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
  each uncached user is one vectorized pass over the pinned
  version's serving layout (:meth:`RecommendationService._index_layout`).
  Results are ``==`` the per-request path — not merely close — because:
  (1) *same entry set*: the layout's transposed index holds exactly the
  entries the per-request filter admits, and the pass gathers those
  whose neighbor the user rated; (2) *same order*: sorting the gathered
  flat positions restores (owner, rank) order, so every ``bincount`` bin
  adds the same Eq-4 addends in the same sequence as the per-request
  loop; (3) *the cap*: a row holds each neighbor once, so "first k per
  row" can only drop an entry when ``len(profile) > cf_k`` — it runs
  then and is skipped (vacuous) otherwise; (4) *selection*: every
  unrated item at or above the n-th best score is kept — no tie is cut
  — and stably sorted by descending score over ascending ids, the
  (-score, ascending id) order of the per-request sort
  (``benchmarks/test_service_bench.py`` pins the ≥5× throughput bar at
  the largest size).

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
import time
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


def _plain(values) -> "_np.ndarray":
    """A base-class ``ndarray`` view of *values* (no copy): slicing a
    ``np.memmap`` runs its Python-level subclass hook every time."""
    return _np.asarray(values).view(_np.ndarray)


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
        self.n_layout_builds = 0
        self.layout_build_seconds = 0.0
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
        """
        generation = self._row_cache.generation
        with self.registry.pin() as pinned:
            snapshot = pinned.snapshot
            index = snapshot.index
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
        registry.counter(
            "service_layout_builds_total", "per-version serving layouts built"
        ).set(self.n_layout_builds)
        registry.counter(
            "service_layout_build_seconds_total",
            "seconds the first scoring pass of each version spent on its layout",
        ).set(self.layout_build_seconds)
        registry.gauge(
            "service_version", "model version the service currently serves"
        ).set(self.registry.current_version())

    # ------------------------------------------------------------------
    # The vectorized batched pass
    # ------------------------------------------------------------------

    def _index_layout(self, snapshot: ModelSnapshot) -> tuple:
        """Per-version serving layout: everything the per-user pass
        reads, as plain ``ndarray`` views of the snapshot's (possibly
        memory-mapped) arrays — no copy, and no ``np.memmap`` subclass
        hook on a slice — plus the entry → owner map and the transposed
        entry index over the **admitted** entries only (``weights > 0``
        when ``positive_only``, all otherwise; the per-request filter,
        applied once per version): for each neighbor *j*, the flat
        positions of the admitted entries ``(i, j)``. The sort by
        neighbor is stable, so each group ascends in flat position,
        i.e. in (owner, rank) order — a sorted union of groups is the
        sequence the per-request scan visits. Owner and position arrays
        take the narrowest dtype that holds them. Pure functions of the
        immutable snapshot. The cache slot is read and written as one
        (version, layout) tuple and the local value is returned, so a
        concurrent request pinned to a different version can at worst
        overwrite the slot — never hand this request its layout."""
        version = snapshot.version
        cached = self._layout
        if cached is not None and cached[0] == version:
            return cached[1]
        started = time.perf_counter()
        store, index = snapshot.store, snapshot.index
        neighbor_ids = _plain(index.neighbor_ids)
        weights = _plain(index.weights)
        n_items = index.n_items
        owners = _np.repeat(
            _np.arange(n_items, dtype=_np.min_scalar_type(n_items)),
            _np.diff(_plain(index.ptr)),
        )
        admitted = (
            _np.flatnonzero(weights > 0.0)
            if snapshot.positive_only
            else _np.arange(len(weights))
        ).astype(_np.min_scalar_type(len(weights)))
        # narrow keys: NumPy's stable sort of 16-bit integers is a radix sort
        groups = neighbor_ids[admitted].astype(owners.dtype)
        transpose = admitted[_np.argsort(groups, kind="stable")]
        transpose_ptr = _np.concatenate(
            ([0], _np.cumsum(_np.bincount(groups, minlength=n_items)))
        ).tolist()
        by_entry = (neighbor_ids, weights, owners, transpose, transpose_ptr)
        by_user = (
            _plain(store.user_ptr).tolist(),
            _plain(store.user_item_idx),
            _plain(store.user_values),
            _plain(store.item_means).astype(_np.float64, copy=False),
        )
        layout = (by_entry, by_user)
        self._layout = (version, layout)
        self.n_layout_builds += 1
        self.layout_build_seconds += time.perf_counter() - started
        return layout

    def _batch_topn(
        self, snapshot: ModelSnapshot, users: Sequence[str], n: int
    ) -> list[list[tuple[str, float]]]:
        store = snapshot.store
        by_entry, by_user = self._index_layout(snapshot)
        neighbor_ids, weights, owners, transpose, transpose_ptr = by_entry
        user_ptr, user_item_idx, user_values, item_means = by_user
        n_items = store.n_items
        items = store.items
        user_index = store.user_index
        lo, hi = snapshot.scale
        k = snapshot.cf_k

        results: list[list[tuple[str, float]]] = []
        for user in users:
            u = user_index.get(user)
            start, end = (0, 0) if u is None else (user_ptr[u], user_ptr[u + 1])
            row_idx = user_item_idx[start:end]
            scores = item_means
            # (1) the admitted entries whose neighbor the user rated
            # (the empty head keeps dtype and shape for an empty profile)
            positions = _np.concatenate(
                [transpose[:0]]
                + [
                    transpose[transpose_ptr[j] : transpose_ptr[j + 1]]
                    for j in row_idx.tolist()
                ]
            )
            if len(positions):
                positions.sort()  # (2) flat order == (owner, rank) order
                # sorted narrow, indexed wide: fancy indexing converts
                # a non-intp index array on every gather.
                positions = positions.astype(_np.intp)
                position_owners = owners[positions]
                if end - start > k:
                    # (3) the within-row rank of an entry is its offset
                    # from the start of its owner's run.
                    offsets = _np.arange(len(positions))
                    breaks = _np.concatenate(
                        ([True], position_owners[1:] != position_owners[:-1])
                    )
                    run_start = _np.maximum.accumulate(_np.where(breaks, offsets, 0))
                    keep = offsets - run_start < k
                    positions = positions[keep]
                    position_owners = position_owners[keep]
                kept_weights = weights[positions]
                deviations = _np.zeros(n_items, dtype=_np.float64)
                deviations[row_idx] = user_values[start:end] - item_means[row_idx]
                numerators = _np.bincount(
                    position_owners,
                    weights=kept_weights * deviations[neighbor_ids[positions]],
                    minlength=n_items,
                )
                denominators = _np.bincount(
                    position_owners, weights=_np.abs(kept_weights), minlength=n_items
                )
                # Candidates without signal keep their item mean (every
                # catalogue item has one); everything clips into the scale.
                signal = denominators != 0.0
                scores = item_means.copy()
                scores[signal] += numerators[signal] / denominators[signal]
            scores = _np.minimum(hi, _np.maximum(lo, scores))

            # (4) rated items drop to -inf; *take* is what slicing the
            # ranked candidates with ``[:n]`` keeps, for any n.
            scores[row_idx] = -_np.inf
            take = len(range(n_items - (end - start))[:n])
            if take == 0:
                results.append([])
                continue
            threshold = _np.partition(scores, n_items - take)[n_items - take]
            candidates = _np.flatnonzero(scores >= threshold)
            top = candidates[_np.argsort(-scores[candidates], kind="stable")[:take]]
            results.append(
                [
                    (items[idx], score)
                    for idx, score in zip(top.tolist(), scores[top].tolist())
                ]
            )
        return results
