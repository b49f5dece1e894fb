"""Assembly microbenchmark: driver-pass vs item-partitioned back half.

PR 2's numbers (``benchmarks/results/sharded_sweep_*``) showed the
sweep's *back half* — merging the per-shard bincounts and assembling
the adjacency on the driver — had become the larger half of graph
build. This benchmark isolates that back half across edge-partition
counts: each shard's pairs are routed to the item partition owning
their left item, every partition merges and assembles only its own
rows, and the serving index is selected in the same pass.

The timings come from the sweep's own :class:`SweepStats` fields
(``split_seconds`` + per-partition merge seconds +
``assembly_seconds``), so the accumulation front half — identical on
every row — never pollutes the comparison. Two columns matter:

* ``back_half_s`` — the driver's total wall time for split + merge +
  assembly (on this single-CPU container every partition runs
  sequentially, so expect parity-ish totals: partitioning is about
  *structure*, smaller per-partition sorts offsetting the split cost);
* ``max_merge_s`` — the slowest single partition merge, the critical
  path a partitioned driver would be bound by on real cores (the
  assembly stage partitions the same way).

Every configuration's adjacency is checked bit-identical to the
driver pass before its timing is reported — partitioning must never
move a float. Results go to ``benchmarks/results/assembly_{backend}.txt``
and the machine-readable ``BENCH_assembly.json`` (full-size runs only).
"""

from __future__ import annotations

import gc

from conftest import record_json, write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.data.ratings import RatingTable
from repro.engine.sharded_sweep import sharded_adjacency

N_SHARDS = 4


def _best_run(store, n_edge_partitions: int, repeats: int = 3):
    """Best-of-*repeats* sharded sweep (GC paused), judged by the back
    half the partitioning targets."""
    best = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            result = sharded_adjacency(
                store, n_shards=N_SHARDS,
                n_edge_partitions=n_edge_partitions, with_index=True)
        finally:
            gc.enable()
        stats = result.stats
        back_half = (stats.split_seconds + sum(stats.partition_merge_seconds)
                     + stats.assembly_seconds)
        if best is None or back_half < best[1]:
            best = (result, back_half)
    return best


def test_assembly_partitioning():
    """Back-half seconds per edge-partition count, equality-checked."""
    backend = "numpy"
    lines = [f"{'size':<8} {'partitions':>10} {'back_half_s':>12} "
             f"{'split_s':>8} {'merge_s':>8} {'assembly_s':>11} "
             f"{'max_merge_s':>12}"]
    payload_sizes = []
    for name, n_users, n_items, per_user in selected_sizes():
        ratings = _random_ratings(n_users, n_items, per_user, seed=7)
        table = RatingTable(ratings)
        store = table.matrix()
        reference = None
        rows = []
        for n_partitions in (1, 2, 4, 8):
            result, back_half = _best_run(store, n_partitions)
            if reference is None:
                reference = result.adjacency
            else:
                assert result.adjacency == reference, (
                    f"{name}: {n_partitions}-partition assembly moved "
                    f"a float")
            stats = result.stats
            merge_s = sum(stats.partition_merge_seconds)
            max_merge_s = max(stats.partition_merge_seconds)
            lines.append(
                f"{name:<8} {n_partitions:>10} {back_half:>12.3f} "
                f"{stats.split_seconds:>8.3f} {merge_s:>8.3f} "
                f"{stats.assembly_seconds:>11.3f} {max_merge_s:>12.3f}")
            rows.append({
                "n_edge_partitions": n_partitions,
                "back_half_seconds": round(back_half, 6),
                "split_seconds": round(stats.split_seconds, 6),
                "merge_seconds": round(merge_s, 6),
                "assembly_seconds": round(stats.assembly_seconds, 6),
                "max_partition_merge_seconds": round(max_merge_s, 6),
                "partition_pairs": list(stats.partition_pairs),
            })
        lines.append("")
        payload_sizes.append({
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": n_users * per_user,
            "n_shards": N_SHARDS,
            "partitionings": rows,
        })

    rendered = "\n".join(
        [f"adjacency assembly back half: driver pass vs item partitions "
         f"(backend: {backend}, {N_SHARDS} shards, index built)", ""]
        + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"assembly_{backend}.txt", rendered)
        record_json("assembly", backend, {
            "n_shards": N_SHARDS,
            "sizes": payload_sizes,
        })
    print()
    print(rendered)
