"""Incremental-update microbenchmark: batch append vs full rebuild.

Measures what an online AlterEgo append costs once the similarity
backbone is maintained incrementally (``IncrementalSweep.update``)
against what it used to cost (rebuild the store, re-run the Eq-6 sweep,
re-assemble the graph and serving index from scratch).

The sizes here are the *online-append* workload shape, not the shared
``SIZES`` of the sweep benchmarks: those pack dense profiles into a
small catalogue to stress the quadratic pair fan-out, which makes every
item a neighbor of every other — and on such a graph *any* append
legitimately moves every adjacency row, so "incremental" degenerates to
"rebuild the back half". A serving catalogue is the opposite regime
(many items, each co-rated with a bounded neighborhood), and that is
where the ROADMAP's incremental-update item lives. Same generator, same
names (so ``REPRO_BENCH_SIZES`` filtering works), sparser shape. The
batch is one new user's full profile, a few new ratings from an
existing user, and one brand-new item — well under 1% of the rating
rows at every size.

Before any timing is reported the two paths are checked **equal**: the
updated adjacency and ``NeighborIndex`` must match the rebuilt ones bit
for bit (the incremental path's standing contract, property-tested in
``tests/test_incremental.py``). The largest size
must show ≥5× lower wall-clock for the update — the acceptance bar for
the incremental-update PR. Results go to
``benchmarks/results/incremental_{backend}.txt`` and the
machine-readable ``BENCH_incremental.json`` (full-size runs only).
"""

from __future__ import annotations

import os
import random

from conftest import record_json, write_result
from test_serving_bench import _timed
from test_similarity_bench import _random_ratings

from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep

#: (name, users, items, ratings per user) — catalogue-heavy shapes:
#: bounded item neighborhoods, so an append's blast radius is a small
#: fraction of the rows (the online regime the update path targets).
SIZES = [
    ("small", 400, 3000, 10),
    ("medium", 1500, 16000, 20),
    ("large", 4000, 50000, 24),
]


def selected_sizes():
    """``REPRO_BENCH_SIZES`` filtering over this module's shapes (same
    size names as the shared benchmark sizes, so CI's bench-smoke
    ``small`` leg applies here unchanged)."""
    raw = os.environ.get("REPRO_BENCH_SIZES", "")
    if not raw:
        return SIZES
    wanted = {name.strip() for name in raw.split(",")}
    unknown = wanted - {name for name, *_ in SIZES}
    if unknown:
        raise ValueError(f"unknown REPRO_BENCH_SIZES entries: "
                         f"{sorted(unknown)}")
    return [size for size in SIZES if size[0] in wanted]


def _append_batch(n_users: int, n_items: int, per_user: int, seed: int) -> list[Rating]:
    """A small online-shaped batch: one new user's full profile, new
    ratings from one existing user, and one brand-new item."""
    rng = random.Random(seed)
    batch: list[Rating] = []
    for i in rng.sample(range(n_items), per_user):
        batch.append(Rating("zzz-new-user", f"i{i:05d}",
                            float(rng.randint(1, 5)), 10 ** 6))
    existing = rng.randrange(n_users)
    for i in rng.sample(range(n_items), max(2, per_user // 2)):
        batch.append(Rating(f"u{existing:05d}", f"i{i:05d}",
                            float(rng.randint(1, 5)), 10 ** 6))
    batch.append(Rating(f"u{existing:05d}", "zzz-new-item",
                        float(rng.randint(1, 5)), 10 ** 6))
    batch.append(Rating("zzz-new-user", "zzz-new-item",
                        float(rng.randint(1, 5)), 10 ** 6))
    # Dedupe on (user, item), keeping the last value — the batch may
    # override an existing rating, which is part of the contract.
    return list({(r.user, r.item): r for r in batch}.values())


def _index_tuple(index):
    def flat(values):
        return values.tolist() if hasattr(values, "tolist") else list(values)
    return (flat(index.ptr), flat(index.neighbor_ids), flat(index.weights))


def test_incremental_update_speedup():
    """Batch append via IncrementalSweep.update vs a full rebuild."""
    backend = "numpy"
    lines = [f"{'size':<8} {'ratings':>8} {'batch':>6} {'rebuild_s':>10} "
             f"{'update_s':>9} {'speedup':>8} {'affected_rows':>14} "
             f"{'delta_pairs':>12}"]
    payload_sizes = []
    speedups = {}
    for name, n_users, n_items, per_user in selected_sizes():
        base_ratings = _random_ratings(n_users, n_items, per_user, seed=7)
        batch = _append_batch(n_users, n_items, per_user, seed=13)
        base_table = RatingTable(base_ratings)
        all_ratings = list({(r.user, r.item): r for r in base_ratings + batch}.values())

        sweep = IncrementalSweep(base_table)
        stats_box = {}
        _, update_s = _timed(lambda: stats_box.setdefault("stats", sweep.update(batch)))
        rebuilt_box = {}
        _, rebuild_s = _timed(
            lambda: rebuilt_box.setdefault(
                "sweep", IncrementalSweep(RatingTable(all_ratings))))

        # Equal-or-bust before any timing is believed: the update must
        # land on exactly the rebuild's index (the graph's one form).
        rebuilt = rebuilt_box["sweep"]
        assert _index_tuple(sweep.index) == _index_tuple(rebuilt.index), name

        stats = stats_box["stats"]
        speedup = rebuild_s / update_s
        speedups[name] = speedup
        lines.append(
            f"{name:<8} {len(all_ratings):>8} {stats.n_batch:>6} "
            f"{rebuild_s:>10.3f} {update_s:>9.3f} {speedup:>7.1f}x "
            f"{stats.n_affected_rows:>14} {stats.delta_pairs:>12}")
        payload_sizes.append({
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": len(all_ratings),
            "n_batch": stats.n_batch,
            "n_touched_users": stats.n_touched_users,
            "n_touched_items": stats.n_touched_items,
            "n_affected_rows": stats.n_affected_rows,
            "delta_pairs": stats.delta_pairs,
            "rebuild_seconds": round(rebuild_s, 6),
            "update_seconds": round(update_s, 6),
            "append_seconds": round(stats.append_seconds, 6),
            "delta_seconds": round(stats.delta_seconds, 6),
            "fold_seconds": round(stats.fold_seconds, 6),
            "refresh_seconds": round(stats.refresh_seconds, 6),
            "speedup": round(speedup, 2),
        })

    rendered = "\n".join(
        [f"incremental batch append vs full rebuild "
         f"(backend: {backend}, store + Eq-6 sweep + graph + index)",
         ""] + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"incremental_{backend}.txt", rendered)
        record_json("incremental", backend, {"sizes": payload_sizes})
    print()
    print(rendered)
    # The wall-clock acceptance bar only means something at full scale
    # on a quiet machine — size-filtered smoke runs check correctness.
    if "large" in speedups:
        assert speedups["large"] >= 5.0, (
            f"incremental update speedup {speedups['large']:.1f}x below "
            f"the 5x target at the largest size")
