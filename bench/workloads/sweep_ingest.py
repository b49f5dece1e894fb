"""``sweep_ingest`` — the durable write path, and nothing else.

Build a ``DurableSweep`` + registry + snapshot catalogue over the large
trace, push rating batches through ``registry.update`` (WAL fsync,
delta sweep, snapshot publish, policy checkpoints), close, and recover.
No gateway, no reads: a delta/WAL/snapshot-save optimisation shows here
and a scoring or protocol optimisation must not.

Batches cycle ``onboard, onboard, heavy`` (see ``bench/inputs.py``): the
median update is a small-blast-radius onboarding batch and the p90 a
full-blast-radius head batch, so a delta optimisation that only helps
one shape shows as such.
"""

from __future__ import annotations

import time

from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import RatingTable
from repro.data.synthetic import amazon_like
from repro.durability.log import RatingLog
from repro.durability.manager import CheckpointPolicy, DurableSweep
from repro.engine import sharded_sweep
from repro.engine.sharded_sweep import IncrementalSweep
from repro.obs.metrics import get_registry
from repro.serving.service import RecommendationService
from repro.serving.snapshot import ModelSnapshot
from repro.serving.watch import SnapshotCatalog

from bench import inputs, stats
from bench.common import Context, Result, self_peak_rss_mb

#: the policy checkpoints every CHECKPOINT_EVERY batches and the run
#: ends UNCHECKPOINTED batches after one, so every recovery replays the
#: same tail: one full shape cycle.
CHECKPOINT_EVERY = 6
UNCHECKPOINTED = 3
GATE_USERS = 50


def n_batches(seconds: float) -> int:
    """Batches ingested in a run of *seconds*: one checkpoint interval
    per four seconds (a batch costs ~0.45 s at the reference commit).
    A count, not a deadline — the same ``--seconds`` always ingests the
    same batch shapes, so runs are comparable operation for operation;
    build and recovery are timed phases of the same run."""
    return CHECKPOINT_EVERY * max(1, round(seconds / 4.0)) + UNCHECKPOINTED


def _instrument(tracer) -> None:
    for owner, attr, name in (
        (RatingTable, "__init__", "data.ratings.table_build"),
        (MatrixRatingStore, "__init__", "data.matrix.store_build"),
        (sharded_sweep, "sharded_pair_accumulation", "engine.sweep.accumulate"),
        (MatrixRatingStore, "assemble_from_partitions", "engine.sweep.assemble"),
        (IncrementalSweep, "update", "engine.sweep.update"),
        (RatingLog, "append", "durability.log.append"),
        (DurableSweep, "checkpoint", "durability.checkpoint"),
        (DurableSweep, "recover", "durability.recover"),
        (ModelSnapshot, "from_sweep", "serving.snapshot.freeze"),
        (ModelSnapshot, "save", "serving.snapshot.save"),
        (ModelSnapshot, "load", "serving.snapshot.load"),
        (SnapshotCatalog, "publish", "serving.catalog.publish"),
    ):
        tracer.instrument(owner, attr, name)


def _top_n(snapshot, users: list[str]) -> list:
    service = RecommendationService(snapshot, response_cache_size=0)
    try:
        return service.recommend_batch(users, inputs.TOP_N)
    finally:
        service.close()


def run(ctx: Context) -> Result:
    if ctx.tracer is None:
        return _run(ctx)
    _instrument(ctx.tracer)
    try:
        return _run(ctx)
    finally:
        ctx.tracer.restore()


def _run(ctx: Context) -> Result:
    result = Result()
    tracer = ctx.tracer
    setups: list[float] = []
    for _ in range(ctx.setup_repeats):
        started = time.perf_counter()
        with ctx.span("data.synthetic.generate"):
            data = amazon_like(inputs.trace_l_config(ctx.seed))
        table = data.merged()
        plan = inputs.BatchPlan(table, ctx.seed)
        setups.append(time.perf_counter() - started)
    n_items = len(table.items)
    result.info["trace_l"] = {"ratings": len(table), "users": len(table.users),
                              "items": n_items}

    fsyncs_before = _counter("wal_fsyncs_total")
    store_dir = ctx.tmp / "store"
    result.attempted += 1
    started = time.perf_counter()
    durable = DurableSweep(
        store_dir, table,
        policy=CheckpointPolicy(max_log_bytes=None, max_batches=CHECKPOINT_EVERY))
    registry = durable.registry()
    catalog = SnapshotCatalog(ctx.tmp / "catalog", keep_last=2)
    catalog.attach(registry)
    build_s = time.perf_counter() - started
    n_pairs = durable.sweep.accumulation.n_pairs

    walls: list[float] = []
    shapes: list[str] = []
    update_stats = []
    ingest_wall = 0.0
    try:
        for k in range(n_batches(ctx.seconds)):
            shape = plan.shape_of(k)
            batch = plan.batch(shape)
            result.attempted += 1
            started = time.perf_counter()
            try:
                _, update = registry.update(batch)
            except Exception as exc:
                result.failed += 1
                result.info.setdefault("errors", []).append(repr(exc))
                break
            wall = time.perf_counter() - started
            ingest_wall += wall
            walls.append(wall)
            shapes.append(shape)
            update_stats.append(update)
        gate_users = inputs.user_permutation(
            list(registry.current().store.users), ctx.seed)[:GATE_USERS]
        expected = _top_n(registry.current(), gate_users)
        wal_bytes = durable.log_info().total_bytes
    finally:
        catalog.detach()
        durable.close()

    result.attempted += 1
    started = time.perf_counter()
    recovered = DurableSweep.recover(store_dir)
    recover_s = time.perf_counter() - started
    try:
        report = recovered.last_recovery
        got = _top_n(ModelSnapshot.from_sweep(recovered), gate_users)
    finally:
        recovered.close()
    result.gate("recovered == never-crashed Top-10", got == expected,
                f"{GATE_USERS} users compared bit for bit")
    result.gate("recovery replayed the un-checkpointed tail",
                report.replayed_batches == UNCHECKPOINTED,
                f"replayed {report.replayed_batches} of {len(walls)} batches")
    result.gate("every batch ingested", result.failed == 0,
                f"{len(walls)} batches, {result.failed} failed")

    n_ratings = inputs.BATCH_SIZE * len(walls)
    result.put("setup_s", stats.median(setups), len(setups))
    result.put_latency(walls)
    result.put("goodput_per_s", n_ratings / ingest_wall, len(walls))
    result.put("peak_rss_mb", self_peak_rss_mb())
    result.put("build_s", build_s)
    result.put("ingest_p50_ms", stats.median(walls) * 1000.0, len(walls))
    result.put("ingest_ratings_per_s", n_ratings / ingest_wall, len(walls))
    result.put("recover_s", recover_s)

    if tracer is not None:
        _per_layer(result, tracer, shapes, update_stats, n_items, len(table),
                   report, wal_bytes, n_pairs,
                   _counter("wal_fsyncs_total") - fsyncs_before)
    result.finish()
    return result


def _counter(name: str) -> float:
    entry = get_registry().snapshot().get(name)
    return sum(entry["samples"].values()) if entry else 0.0


def _per_layer(result, tracer, shapes, update_stats, n_items, n_ratings,
               report, wal_bytes, n_pairs, fsyncs) -> None:
    recover_span = tracer.named("durability.recover")[0]
    ingest_updates = [
        s for s in tracer.named("engine.sweep.update")
        if not tracer.descends(s, recover_span)]
    for shape in ("onboard", "heavy"):
        durations = [s.duration * 1000.0
                     for s, which in zip(ingest_updates, shapes) if which == shape]
        result.put(f"engine.sweep.update_p50_ms.{shape}",
                   stats.median(durations), len(durations))
    total = sum(u.total_seconds for u in update_stats)
    result.put("engine.sweep.refresh_share",
               sum(u.refresh_seconds for u in update_stats) / total,
               len(update_stats))
    result.put("engine.sweep.affected_row_share",
               sum(u.n_affected_rows for u in update_stats)
               / (n_items * len(update_stats)), len(update_stats))
    result.put("engine.sweep.delta_pairs_mean",
               sum(u.delta_pairs for u in update_stats) / len(update_stats),
               len(update_stats))

    build_acc = [s for s in tracer.named("engine.sweep.accumulate")
                 if not tracer.descends(s, recover_span)]
    result.put("engine.sweep.accumulate_s", sum(s.duration for s in build_acc))
    result.put("engine.sweep.assemble_s",
               sum(s.duration for s in tracer.named("engine.sweep.assemble")
                   if not tracer.descends(s, recover_span)))
    result.put("engine.sweep.pairs", n_pairs)
    result.put("data.synthetic.generate_s", tracer.total("data.synthetic.generate"))
    result.put("data.ratings.table_build_s", tracer.total("data.ratings.table_build"))
    result.put("data.matrix.store_build_s", tracer.total("data.matrix.store_build"))
    result.put("data.ratings_in", n_ratings)

    appends = [d * 1000.0 for d in tracer.durations("durability.log.append")]
    result.put("durability.log.append_p50_ms", stats.median(appends), len(appends))
    result.put("durability.log.fsyncs", fsyncs)
    result.put("durability.wal_bytes", wal_bytes)
    checkpoints = tracer.durations("durability.checkpoint")
    result.put("durability.checkpoint_s", stats.median(checkpoints), len(checkpoints))
    result.put("durability.recover.load_s",
               tracer.total("serving.snapshot.load", within=recover_span))
    result.put("durability.recover.replay_s",
               tracer.total("engine.sweep.update", within=recover_span),
               report.replayed_batches)
    result.put("durability.recover.replayed_batches", report.replayed_batches)

    publishes = [d * 1000.0 for d in tracer.durations("serving.catalog.publish")]
    result.put("serving.catalog.publish_p50_ms", stats.median(publishes), len(publishes))
    for metric, span in (("serving.snapshot.freeze_s", "serving.snapshot.freeze"),
                         ("serving.snapshot.save_s", "serving.snapshot.save")):
        durations = tracer.durations(span)
        result.put(metric, stats.median(durations), len(durations))
    result.put("serving.snapshot.load_s", tracer.total("serving.snapshot.load"))
