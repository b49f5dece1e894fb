"""Durability microbenchmarks: WAL append throughput, recovery time.

Two questions a production deployment asks of the durability layer:

* **What does an acknowledged append cost?** — ``RatingLog.append``
  throughput under the three durability disciplines: fsync every batch
  (``group_commit=1``, the strongest guarantee), fsync amortised over a
  commit group (``group_commit=16``), and fsync off entirely (the
  OS-buffer baseline — what the log costs when durability is delegated
  to the machine staying up). The spread between the three *is* the
  price of the guarantee, which is why it's measured rather than
  asserted.
* **How long is the crash outage?** — ``DurableSweep.recover`` wall
  time as a function of the replayed log length: the ``0``-replay row
  is the fixed cost (checkpoint snapshot load + sweep rebuild), and
  the growth over it is the per-batch replay cost the
  :class:`~repro.durability.manager.CheckpointPolicy` trades
  append-path checkpoint work against.

Before any recovery timing is believed the recovered store must agree
with the writer it replaces (applied watermark, rating count, serving
index shape) — full bit-identity is property-tested per crash point in
``tests/test_durability.py``. Results go to
``benchmarks/results/durability_{backend}.txt`` and the machine-readable
``BENCH_durability.json`` (full-size runs only).
"""

from __future__ import annotations

import os
import random

from conftest import _timed, record_json, write_result
from test_similarity_bench import _random_ratings

from repro.data.ratings import Rating, RatingTable
from repro.durability.log import RatingLog
from repro.durability.manager import CheckpointPolicy, DurableSweep

#: (name, appends, batch size, base shape, replay lengths) — appends
#: drive the log-throughput rows; the base (users, items, per-user)
#: table and replay lengths drive the recovery rows.
SIZES = [
    ("small", 200, 5, (200, 1200, 6), (0, 16, 64)),
    ("medium", 1000, 5, (600, 4000, 10), (0, 64, 256)),
    ("large", 4000, 5, (1500, 10000, 12), (0, 128, 512)),
]

_APPEND_MODES = [("fsync_every", dict(group_commit=1, fsync=True)),
                 ("group_16", dict(group_commit=16, fsync=True)),
                 ("no_fsync", dict(group_commit=1, fsync=False))]

#: A policy that never fires: every batch stays in the log, so the
#: recovery rows replay exactly the length the bench asked for.
_NO_CHECKPOINTS = CheckpointPolicy(max_log_bytes=None, max_batches=None,
                                   max_staleness_seconds=None)


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


def _batches(n_batches: int, batch_size: int, seed: int,
             n_users: int = 4000, n_items: int = 20000) -> list:
    """Unique-pair rating batches, the shape the WAL frames carry."""
    rng = random.Random(seed)
    seen: set[tuple[str, str]] = set()
    timestep = 10 ** 6
    batches = []
    for _ in range(n_batches):
        batch = []
        while len(batch) < batch_size:
            pair = (f"u{rng.randrange(n_users):05d}", f"i{rng.randrange(n_items):05d}")
            if pair in seen:
                continue
            seen.add(pair)
            batch.append(Rating(pair[0], pair[1], float(rng.randint(1, 5)), timestep))
            timestep += 1
        batches.append(batch)
    return batches


def _bench_append(tmp_path, lines: list) -> list:
    lines.append(f"{'size':<8} {'appends':>8} " + " ".join(
        f"{f'{label}_qps':>15}" for label, _ in _APPEND_MODES))
    payload = []
    for name, n_appends, batch_size, _, _ in selected_sizes():
        batches = _batches(n_appends, batch_size, seed=7)
        row = {"name": name, "n_appends": n_appends, "batch_size": batch_size}
        cells = []
        for label, kwargs in _APPEND_MODES:
            log = RatingLog(tmp_path / f"append-{name}-{label}", **kwargs)

            def run(log=log, batches=batches):
                for batch in batches:
                    log.append(batch)
                log.sync()

            _, seconds = _timed(run)
            assert log.last_seq == n_appends
            log.close()
            qps = n_appends / seconds
            cells.append(f"{qps:>15.0f}")
            row[label] = {"seconds": round(seconds, 6),
                          "appends_per_second": round(qps, 1)}
        lines.append(f"{name:<8} {n_appends:>8} " + " ".join(cells))
        payload.append(row)
    return payload


def _bench_recovery(tmp_path, lines: list) -> list:
    lines.append(f"{'size':<8} {'replayed':>9} {'ratings':>8} "
                 f"{'recover_s':>10} {'replay_s':>9} {'batches/s':>10}")
    payload = []
    for name, _, batch_size, base_shape, replay_lengths \
            in selected_sizes():
        n_users, n_items, per_user = base_shape
        base = RatingTable(_random_ratings(n_users, n_items, per_user, seed=7))
        batches = _batches(max(replay_lengths), batch_size, seed=13,
                           n_users=n_users * 2, n_items=n_items)
        baseline = None
        rows = []
        for length in replay_lengths:
            store = tmp_path / f"recover-{name}-{length}"
            durable = DurableSweep(store, base, policy=_NO_CHECKPOINTS, group_commit=16)
            for batch in batches[:length]:
                durable.update(batch)
            n_ratings = durable.store.n_ratings
            index_entries = durable.index.n_entries
            durable.close()
            recovered, seconds = _timed(lambda store=store: DurableSweep.recover(store))
            # Sanity before the number is believed (bit-identity is
            # property-tested per crash point in tests/).
            assert recovered.applied_seq == length
            assert recovered.store.n_ratings == n_ratings
            assert recovered.index.n_entries == index_entries
            report = recovered.last_recovery
            assert report.replayed_batches == length
            recovered.close()
            if baseline is None:
                baseline = seconds  # the 0-replay fixed cost
            replay_seconds = max(seconds - baseline, 0.0)
            rate = length / replay_seconds if replay_seconds > 0 else 0.0
            lines.append(
                f"{name:<8} {length:>9} {report.replayed_ratings:>8} "
                f"{seconds:>10.3f} {replay_seconds:>9.3f} "
                f"{rate:>10.1f}")
            rows.append({
                "replayed_batches": length,
                "replayed_ratings": report.replayed_ratings,
                "recover_seconds": round(seconds, 6),
                "replay_seconds": round(replay_seconds, 6)})
        payload.append({
            "name": name, "n_users": n_users, "n_items": n_items,
            "base_ratings": len(base), "lengths": rows})
    return payload


def test_durability_throughput_and_recovery(tmp_path):
    backend = "numpy"
    lines = [f"durability: WAL append qps by fsync discipline, recovery "
             f"time vs replayed log length (backend: {backend})", ""]
    append_payload = _bench_append(tmp_path, lines)
    lines.append("")
    recovery_payload = _bench_recovery(tmp_path, lines)
    rendered = "\n".join(lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"durability_{backend}.txt", rendered)
        record_json("durability", backend,
                    {"append": append_payload, "recovery": recovery_payload})
    print()
    print(rendered)
