"""Serve-time microbenchmark: per-pair intersections vs NeighborIndex.

Measures ``ItemKNNRecommender.predict`` over a stream of sampled
(user, item) pairs on two paths:

* **pairwise** — the pre-index reference (``use_index=False``): every
  prediction intersects the query item's rating column with each of the
  user's rated items' columns, then sorts the candidates;
* **indexed** — the serving path: one scan of the query item's
  precomputed rank-ordered neighbor row
  (:class:`~repro.similarity.knn.NeighborIndex`).

The one-off index build (a bulk Eq-6 sweep — the same job the offline
pipeline already runs) is timed *outside* the serve loop and reported
in its own column: the serve-time claim is about the steady state a
recommender answering heavy traffic lives in. Each path predicts a
fresh stream of distinct pairs, so the pairwise path's per-pair
similarity cache never coasts on a previous repeat.

Predictions are cross-checked (≤1e-9 — the two paths differ only in
Eq-6 numerator summation order) before timings are reported.
The largest size must show ≥5× per-predict speedup — the
acceptance bar for the serving-index PR. Results go to
``benchmarks/results/serving_{backend}.txt`` and the machine-readable
``BENCH_serving.json`` (full-size runs only).
"""

from __future__ import annotations

import gc
import random
import time

from conftest import record_json, write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.cf.item_knn import ItemKNNRecommender
from repro.data.ratings import RatingTable

#: predictions per timed run — enough to dominate per-call overhead,
#: small enough that the pairwise reference stays tractable at "large".
N_PREDICTIONS = 2000


def _sample_queries(table: RatingTable, n: int, seed: int):
    """Deterministic (user, item) serve stream over the full catalogue
    (rated and unrated pairs alike, as Top-N scoring would issue)."""
    rng = random.Random(seed)
    users = sorted(table.users)
    items = sorted(table.items)
    return [(rng.choice(users), rng.choice(items)) for _ in range(n)]


def _timed(fn):
    """One GC-quiesced wall-time measurement (the serve loop itself
    iterates thousands of predictions, so a single run is stable)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return result, elapsed


def test_serving_speedup():
    """Per-item predict latency: pairwise intersections vs index scans."""
    backend = "numpy"
    lines = [f"{'size':<8} {'predicts':>8} {'pairwise_s':>11} "
             f"{'indexed_s':>10} {'us/pred(pair)':>14} "
             f"{'us/pred(idx)':>13} {'speedup':>8} {'index_build_s':>14}"]
    payload_sizes = []
    speedups = {}
    for name, n_users, n_items, per_user in selected_sizes():
        ratings = _random_ratings(n_users, n_items, per_user, seed=7)
        table = RatingTable(ratings)
        queries = _sample_queries(table, N_PREDICTIONS, seed=23)

        pairwise = ItemKNNRecommender(table, k=50, use_index=False)
        indexed = ItemKNNRecommender(table, k=50, use_index=True)
        _, build_s = _timed(indexed.neighbor_index)

        got_pairwise, pairwise_s = _timed(
            lambda: [pairwise.predict(u, i) for u, i in queries])
        got_indexed, indexed_s = _timed(
            lambda: [indexed.predict(u, i) for u, i in queries])
        for q, (a, b) in zip(queries, zip(got_indexed, got_pairwise)):
            assert abs(a - b) < 1e-9, (name, q, a, b)

        speedup = pairwise_s / indexed_s
        speedups[name] = speedup
        pairwise_us = pairwise_s / N_PREDICTIONS * 1e6
        indexed_us = indexed_s / N_PREDICTIONS * 1e6
        lines.append(f"{name:<8} {N_PREDICTIONS:>8} {pairwise_s:>11.3f} "
                     f"{indexed_s:>10.3f} {pairwise_us:>14.1f} "
                     f"{indexed_us:>13.1f} {speedup:>7.1f}x "
                     f"{build_s:>14.3f}")
        payload_sizes.append({
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": n_users * per_user,
            "n_predictions": N_PREDICTIONS,
            "pairwise_seconds": round(pairwise_s, 6),
            "indexed_seconds": round(indexed_s, 6),
            "pairwise_us_per_predict": round(pairwise_us, 3),
            "indexed_us_per_predict": round(indexed_us, 3),
            "speedup": round(speedup, 2),
            "index_build_seconds": round(build_s, 6),
        })

    rendered = "\n".join(
        [f"serve-time predict latency: pairwise vs NeighborIndex "
         f"(backend: {backend}, k=50)", ""] + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"serving_{backend}.txt", rendered)
        record_json("serving", backend, {"k": 50, "sizes": payload_sizes,})
    print()
    print(rendered)
    # The wall-clock acceptance bar only means something at full scale
    # on a quiet machine — size-filtered smoke runs check correctness.
    if "large" in speedups:
        assert speedups["large"] >= 5.0, (
            f"serve-time speedup {speedups['large']:.1f}x below the 5x "
            f"target at the largest size")
