"""Shard-scaling microbenchmark for the partitioned Eq-6 sweep.

Measures ``sharded_adjacency`` against the single-process store path
(``MatrixRatingStore.build_adjacency``) across shard counts, on the
same synthetic tables as ``test_similarity_bench``.

One caveat the numbers must be read with: shards run one after another
in the driver, so ``seconds`` grows with the shard count — the column to
watch is ``max_shard_s``, the slowest single shard of the run: it is the
accumulation-stage critical path a parallel executor would be bound by
on real cores (merge + adjacency assembly stay on the driver), and it
shrinks roughly linearly with the shard count.

Every configuration is checked against the store path (1e-9; the
one-shard run bit-identical) before its timing is reported. Timings are
printed (run with ``-s``) and persisted to
``benchmarks/results/sharded_sweep_*.txt`` on full-size runs.
"""

from __future__ import annotations

import gc
import time

from conftest import write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.data.ratings import RatingTable
from repro.engine.sharded_sweep import sharded_adjacency


def _timed(fn, repeats: int = 3):
    """Best-of-*repeats* wall time for ``fn()`` with the cyclic GC
    paused per run (same discipline as test_similarity_bench)."""
    best = None
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def _max_abs_diff(left: dict, right: dict) -> float:
    worst = 0.0
    for item, nbrs in left.items():
        other = right[item]
        for j in set(nbrs) | set(other):
            worst = max(worst, abs(nbrs.get(j, 0.0) - other.get(j, 0.0)))
    return worst


def test_shard_scaling():
    """Store path vs the sharded sweep at 1, 2 and 4 shards, per size."""
    configs = [
        ("x1", dict(n_shards=1)),
        ("x2", dict(n_shards=2)),
        ("x4", dict(n_shards=4)),
    ]
    lines = [f"{'size':<8} {'config':<16} {'seconds':>9} {'vs_store':>9} "
             f"{'max_shard_s':>12}"]
    for name, n_users, n_items, per_user in selected_sizes():
        ratings = _random_ratings(n_users, n_items, per_user, seed=7)
        table = RatingTable(ratings)
        store = table.matrix()
        baseline, store_s = _timed(lambda: store.build_adjacency())
        lines.append(f"{name:<8} {'store path':<16} {store_s:>9.3f} "
                     f"{'1.00x':>9} {'—':>12}")
        for label, kwargs in configs:
            result, seconds = _timed(
                lambda kwargs=kwargs: sharded_adjacency(store, **kwargs))
            if kwargs["n_shards"] == 1:
                assert result.adjacency == baseline, (
                    f"{name}/{label}: one shard must be bit-identical")
            else:
                diff = _max_abs_diff(result.adjacency, baseline)
                assert diff < 1e-9, f"{name}/{label}: diff {diff}"
            max_shard = max(result.stats.durations)
            lines.append(f"{name:<8} {label:<16} {seconds:>9.3f} "
                         f"{store_s / seconds:>8.2f}x {max_shard:>12.3f}")
        lines.append("")
    backend = "numpy"
    rendered = "\n".join(
        [f"sharded Eq-6 sweep scaling (backend: {backend})", ""]
        + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"sharded_sweep_{backend}.txt", rendered)
    print()
    print(rendered)
