"""Service microbenchmark: batched vs per-request Top-N, and cache
behaviour across incremental updates.

Two claims under measurement:

* **batched throughput** — :meth:`RecommendationService.recommend_batch`
  answers many users against one pinned version with a vectorized pass
  per user (transposed-entry gather + ``bincount`` scatter-add),
  against the per-request reference (one
  :meth:`~repro.cf.item_knn.ItemKNNRecommender.recommend` call per
  user, a Python candidate loop each). Responses are asserted
  **identical** before timings count, and the
  largest size must show ≥5× batched throughput — the acceptance bar
  for the serving-service PR. Response caches are disabled for the
  throughput comparison so both paths really recompute.

* **cache hit rate across updates** — a second service keeps its
  caches on while the registry publishes incremental updates
  (:meth:`~repro.serving.registry.ModelRegistry.update`): the
  ranked-row cache only evicts the rows each update's census touched,
  so the measured hit rate over a steady query stream stays high
  across versions (a wholesale flush would pin it near the cold rate).

Results go to ``benchmarks/results/service_{backend}.txt`` and the
machine-readable ``BENCH_service.json`` (full-size runs only; CI's
bench-smoke leg runs the smallest size for correctness).
"""

from __future__ import annotations

import random

from conftest import _timed, record_json, write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.serving.registry import ModelRegistry
from repro.serving.service import RecommendationService

#: users per batched request — large enough that per-call overhead
#: vanishes, small enough that the per-request reference stays
#: tractable.
N_BATCH_USERS = 200
TOP_N = 10

#: incremental-update rounds for the cache section, and queries per
#: round (a steady related-items stream between version publishes).
N_UPDATE_ROUNDS = 5
N_QUERIES_PER_ROUND = 400


def _update_batch(rng: random.Random, round_id: int):
    """An onboarding-shaped batch: a brand-new user rating a handful of
    brand-new items. Its census touches exactly those rows, so the
    eviction stays surgical. (A batch rating *well-connected existing*
    items legitimately evicts their whole blast radius — the census is
    exact either way, and on these dense synthetic tables that radius
    is most of the catalogue; ``tests/test_serving.py`` covers that
    shape's exactness.)"""
    user = f"newu{round_id:03d}"
    return [Rating(user, f"newi{round_id:03d}x{j}", float(rng.randint(1, 5)))
            for j in range(4)]


def test_service_batched_throughput_and_cache():
    backend = "numpy"
    lines = [f"{'size':<8} {'users':>6} {'per_req_s':>10} {'batched_s':>10} "
             f"{'qps(req)':>9} {'qps(batch)':>10} {'speedup':>8} "
             f"{'build_s':>8} {'row_hit%':>9} {'evicted/upd':>12}"]
    payload_sizes = []
    speedups = {}
    for name, n_users, n_items, per_user in selected_sizes():
        table = RatingTable(_random_ratings(n_users, n_items, per_user, seed=7))
        sweep, build_s = _timed(lambda: IncrementalSweep(table))
        registry = ModelRegistry(sweep=sweep, cf_k=50)

        # -- throughput: batched vs per-request, caches off ------------
        service = RecommendationService(registry, response_cache_size=0)
        users = sorted(table.users)[:N_BATCH_USERS]
        service.recommend_batch(users[:2], TOP_N)  # warm the layout
        per_request, per_request_s = _timed(
            lambda: [service.recommend(user, TOP_N) for user in users])
        batched, batched_s = _timed(lambda: service.recommend_batch(users, TOP_N))
        assert batched == per_request, name
        service.close()  # transient service over a shared registry

        # -- cache hit rate across incremental updates -----------------
        cached_service = RecommendationService(registry)
        items = sorted(table.items)
        rng = random.Random(23)
        for item in items:  # cold fill
            cached_service.similar_items(item, k=20)
        fill_misses = cached_service.stats()["row_cache"]["misses"]
        evicted_total = 0
        for round_id in range(N_UPDATE_ROUNDS):
            _, stats = registry.update(_update_batch(rng, round_id))
            evicted_total += len(stats.affected_items)
            # Fresh content joins the query stream immediately — the
            # per-round misses are exactly the census-evicted rows.
            items = items + list(stats.affected_items)
            for _ in range(N_QUERIES_PER_ROUND):
                cached_service.similar_items(rng.choice(items), k=20)
        row_stats = cached_service.stats()["row_cache"]
        warm_queries = N_UPDATE_ROUNDS * N_QUERIES_PER_ROUND
        warm_hits = row_stats["hits"]
        warm_misses = row_stats["misses"] - fill_misses
        hit_rate = warm_hits / (warm_hits + warm_misses)

        speedup = per_request_s / batched_s
        speedups[name] = speedup
        qps_request = len(users) / per_request_s
        qps_batched = len(users) / batched_s
        lines.append(
            f"{name:<8} {len(users):>6} {per_request_s:>10.3f} "
            f"{batched_s:>10.3f} {qps_request:>9.0f} {qps_batched:>10.0f} "
            f"{speedup:>7.1f}x {build_s:>8.3f} {hit_rate * 100:>8.1f}% "
            f"{evicted_total / N_UPDATE_ROUNDS:>12.1f}")
        payload_sizes.append({
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": n_users * per_user,
            "n_request_users": len(users),
            "top_n": TOP_N,
            "per_request_seconds": round(per_request_s, 6),
            "batched_seconds": round(batched_s, 6),
            "qps_per_request": round(qps_request, 1),
            "qps_batched": round(qps_batched, 1),
            "batched_speedup": round(speedup, 2),
            "build_seconds": round(build_s, 6),
            "n_update_rounds": N_UPDATE_ROUNDS,
            "queries_per_round": N_QUERIES_PER_ROUND,
            "row_cache_hit_rate": round(hit_rate, 4),
            "rows_evicted_per_update": round(evicted_total / N_UPDATE_ROUNDS, 1),
        })
        assert warm_hits + warm_misses == warm_queries

    rendered = "\n".join(
        [f"recommendation service: batched vs per-request Top-{TOP_N} "
         f"(backend: {backend}, k=50)", ""] + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"service_{backend}.txt", rendered)
        record_json("service", backend, {"k": 50, "sizes": payload_sizes,})
    print()
    print(rendered)
    # The wall-clock acceptance bar only means something at full scale
    # on a quiet machine — size-filtered smoke runs check correctness.
    if "large" in speedups:
        assert speedups["large"] >= 5.0, (
            f"batched throughput {speedups['large']:.1f}x below the 5x "
            f"target at the largest size")
