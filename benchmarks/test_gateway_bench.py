"""Gateway macrobenchmark: the networked serving fleet under load.

Unlike ``test_service_bench.py`` (in-process calls against a pinned
registry), this measures the full topology the gateway PR ships: an
asyncio HTTP front end coalescing single-user requests into batched
windows over a fleet of **worker subprocesses**, each memmapping the
same published :class:`~repro.serving.watch.SnapshotCatalog` version.

Three load levels per size, in order:

* **serial** — one client, strictly sequential ``/recommend`` calls:
  every request pays a full HTTP + frame round trip and an unshared
  single-user scoring pass. This is the un-batched floor.
* **closed** — C keep-alive clients back-to-back. With C well above
  the worker count every worker is busy, so arrivals accumulate and
  leave together when a frame returns (natural batching): one
  ``recommend_batch_pinned`` pass answers several clients, and this
  level is where batching shows up as throughput.
  The largest size must show requests **riding shared frames** (mean
  coalesced batch size > 1.5 over the leg) and clear **≥2× the serial
  qps** (a serial request waits for nothing — it leaves the moment it
  arrives — so the floor is high and 2× is what sharing must buy).
* **poisson** — an open-loop Poisson arrival stream at ~60% of the
  measured closed-loop capacity **while the registry publishes
  incremental updates** through the live catalog. Latency is charged
  from the scheduled arrival (coordinated-omission-free), so the
  p99/p999 tail includes any stall caused by workers remapping the
  new version mid-stream; the report's ``versions`` list proves the
  publishes really landed inside the measurement window.

Worker response caches are **off** so repeat users recompute — the
serial-vs-closed comparison measures batching, not memoisation. Row
caches stay on (both levels share them equally; that is the production
configuration).

Results go to ``benchmarks/results/gateway_{backend}.txt`` and the
machine-readable ``BENCH_gateway.json`` (full-size runs only; CI's
bench-smoke leg runs the smallest size for harness correctness).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import record_json, write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.gateway import GatewayServer, WorkerPool
from repro.gateway.loadgen import (
    run_closed_loop,
    run_open_loop,
    run_serial_baseline,
)
from repro.serving.registry import ModelRegistry
from repro.serving.watch import SnapshotCatalog

TOP_N = 10
CF_K = 50
N_WORKERS = 2
N_REQUEST_USERS = 200

#: load knobs
KNOBS = {
    "serial_requests": 120,
    "concurrency": 16,
    "requests_per_client": 30,
    "poisson_duration_s": 4.0,
}

#: incremental publishes fired during the poisson window.
N_PUBLISHES = 2


def _publish_batch(round_id: int) -> list[Rating]:
    """An onboarding-shaped batch (new user, new items): cheap to
    apply, but it still bumps the catalog version, so every worker
    must remap mid-stream."""
    user = f"pubu{round_id:03d}"
    return [
        Rating(user, f"pubi{round_id:03d}x{j}",
               float(1 + (round_id + j) % 5), 900_000 + round_id * 10 + j)
        for j in range(4)
    ]


def _tracing_leg(host: str, port: int, users: list[str], n_requests: int) -> dict:
    """Back-to-back serial runs with the observability log firehose
    off, then on (``REPRO_OBS_LOG=1``), against the already-warm
    fleet. Metrics and trace contexts are live in **both** runs (they
    always are); the toggle covers the span/event JSON render+emit
    path, which is the only part of the layer with a knob — its cost
    must be in the noise for the telemetry to be on by default in the
    smokes."""
    had = os.environ.pop("REPRO_OBS_LOG", None)
    off_runs: list[dict] = []
    on_runs: list[dict] = []
    try:
        # Four interleaved passes per mode, each mode scored by its
        # best p50: on a shared machine a single serial pass sees
        # scheduler noise several times the effect being measured;
        # noise only ever adds, so the minimum over a few passes is the
        # estimate that converges on the quiet value.
        for _ in range(4):
            os.environ.pop("REPRO_OBS_LOG", None)
            off_runs.append(run_serial_baseline(host, port, users, TOP_N, n_requests))
            os.environ["REPRO_OBS_LOG"] = "1"
            on_runs.append(run_serial_baseline(host, port, users, TOP_N, n_requests))
    finally:
        if had is None:
            os.environ.pop("REPRO_OBS_LOG", None)
        else:
            os.environ["REPRO_OBS_LOG"] = had
    untraced = min(off_runs, key=lambda r: r["latency_ms"]["p50"])
    traced = min(on_runs, key=lambda r: r["latency_ms"]["p50"])
    p50_off = untraced["latency_ms"]["p50"]
    p50_on = traced["latency_ms"]["p50"]
    return {
        "untraced": untraced,
        "traced": traced,
        "p50_ms_untraced": round(p50_off, 4),
        "p50_ms_traced": round(p50_on, 4),
        "p50_overhead_ratio": round(p50_on / p50_off, 4) if p50_off else 1.0,
    }


async def _bench_one_size(work: Path, registry, users: list[str],
                          knobs: dict,
                          with_tracing_leg: bool = False) -> dict:
    """Serial → closed → poisson-under-publishes against one fleet."""
    pool = WorkerPool(
        work / "catalog", n_workers=N_WORKERS,
        poll_interval=0.1, response_cache_size=0)
    await pool.start()
    server = GatewayServer(pool)
    await server.start()
    loop = asyncio.get_running_loop()
    # Dedicated executor: the loadgen entry points block (they manage
    # their own client threads internally) and the publisher must not
    # queue behind them on the default pool.
    executor = ThreadPoolExecutor(max_workers=4)
    tracing = None
    try:
        serial = await loop.run_in_executor(
            executor, run_serial_baseline, server.host, server.port,
            users, TOP_N, knobs["serial_requests"])
        if with_tracing_leg:
            tracing = await loop.run_in_executor(
                executor, _tracing_leg, server.host, server.port,
                users, knobs["serial_requests"])
        frames_before = server.batcher.n_flushes
        riders_before = server.batcher.n_coalesced
        closed = await loop.run_in_executor(
            executor, run_closed_loop, server.host, server.port,
            users, TOP_N, knobs["concurrency"],
            knobs["requests_per_client"])
        closed["mean_batch_size"] = round(
            (server.batcher.n_coalesced - riders_before)
            / max(1, server.batcher.n_flushes - frames_before), 3)

        # Open loop at ~60% of measured capacity — loaded but
        # sustainable, so the tail reflects serving jitter (publish
        # stalls included), not an unstable queue blowing up.
        rate = max(5.0, 0.6 * closed["qps"])
        duration = knobs["poisson_duration_s"]
        stop = threading.Event()
        published: list[int] = []

        def publisher() -> None:
            # Front-load the publishes (first at duration/4): enough
            # post-publish traffic must remain in the window for the
            # new version to show up in responses even when CPU
            # oversubscription delays worker convergence.
            interval = duration / (N_PUBLISHES + 2)
            for round_id in range(1, N_PUBLISHES + 1):
                if stop.wait(interval):
                    return
                version, _stats = registry.update(_publish_batch(round_id))
                published.append(version)

        publish_future = loop.run_in_executor(executor, publisher)
        try:
            poisson = await loop.run_in_executor(
                executor, lambda: run_open_loop(
                    server.host, server.port, users, TOP_N,
                    rate_qps=rate, duration_s=duration,
                    max_workers=16, seed=11))
        finally:
            stop.set()
            await publish_future
        poisson["versions_published_during_run"] = published
        stats = pool.stats()
    finally:
        await server.close()
        await pool.close()
        executor.shutdown(wait=False)
    report = {"serial": serial, "closed": closed, "poisson": poisson, "pool": stats}
    if tracing is not None:
        report["tracing_overhead"] = tracing
    return report


def test_gateway_throughput_and_tail_latency():
    backend = "numpy"
    lines = [f"{'size':<8} {'qps(serial)':>11} {'qps(closed)':>11} "
             f"{'speedup':>8} {'batch':>6} {'p50ms':>7} {'p99ms':>7} "
             f"{'p999ms':>8} {'publishes':>9} {'restarts':>8}"]
    payload_sizes = []
    speedups = {}
    batch_means = {}
    tracing_by_size = {}
    largest = selected_sizes()[-1][0]
    for name, n_users, n_items, per_user in selected_sizes():
        table = RatingTable(_random_ratings(n_users, n_items, per_user, seed=7))
        sweep = IncrementalSweep(table, n_shards=1)
        registry = ModelRegistry(sweep=sweep, cf_k=CF_K)
        users = sorted(table.users)[:N_REQUEST_USERS]

        work = Path(tempfile.mkdtemp(prefix="gateway-bench-"))
        catalog = SnapshotCatalog(work / "catalog")
        catalog.attach(registry)
        try:
            report = asyncio.run(_bench_one_size(
                work, registry, users, KNOBS,
                with_tracing_leg=(name == largest)))
        finally:
            catalog.detach()
            shutil.rmtree(work, ignore_errors=True)

        serial, closed = report["serial"], report["closed"]
        poisson = report["poisson"]
        assert serial["errors"] == 0 and closed["errors"] == 0, name
        assert poisson["errors"] == 0, name
        # The publishes landed inside the poisson window: responses
        # span more than the initial version.
        assert len(poisson["versions"]) >= 2, (
            poisson["versions"], poisson["versions_published_during_run"],
            poisson["n_requests"])
        speedup = closed["qps"] / serial["qps"]
        speedups[name] = speedup
        batch_means[name] = closed["mean_batch_size"]
        tail = poisson["latency_ms"]
        lines.append(
            f"{name:<8} {serial['qps']:>11.1f} {closed['qps']:>11.1f} "
            f"{speedup:>7.1f}x {closed['mean_batch_size']:>6.2f} "
            f"{tail['p50']:>7.1f} {tail['p99']:>7.1f} "
            f"{tail['p999']:>8.1f} "
            f"{len(report['poisson']['versions_published_during_run']):>9} "
            f"{report['pool']['n_restarts']:>8}")
        entry = {
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": n_users * per_user,
            "top_n": TOP_N,
            "n_workers": N_WORKERS,
            "closed_vs_serial_speedup": round(speedup, 2),
            "levels": {
                "serial": serial,
                "closed": closed,
                "poisson": poisson,
            },
            "pool": report["pool"],
        }
        if "tracing_overhead" in report:
            entry["tracing_overhead"] = report["tracing_overhead"]
            tracing_by_size[name] = report["tracing_overhead"]
            overhead = report["tracing_overhead"]
            lines.append(
                f"{'':<8} tracing leg: p50 "
                f"{overhead['p50_ms_untraced']:.2f}ms dark -> "
                f"{overhead['p50_ms_traced']:.2f}ms logged "
                f"({overhead['p50_ms_traced'] - overhead['p50_ms_untraced']:+.3f}ms, "
                f"{overhead['p50_overhead_ratio']:.3f}x)")
        payload_sizes.append(entry)

    rendered = "\n".join(
        [f"gateway fleet: {N_WORKERS} workers, coalesced Top-{TOP_N} "
         f"over HTTP (backend: {backend}, k={CF_K}); poisson tail "
         f"measured during live publishes", ""] + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"gateway_{backend}.txt", rendered)
        record_json("gateway", backend, {
            "k": CF_K,
            "n_workers": N_WORKERS,
            "top_n": TOP_N,
            "sizes": payload_sizes,
        })
    print()
    print(rendered)
    # The wall-clock acceptance bar only means something at full scale
    # on a quiet machine — size-filtered smoke runs check correctness.
    if "large" in speedups:
        # What the closed leg is there to protect: requests that arrive
        # while both workers are busy ride shared frames, and that is
        # worth throughput. Sized from six large-only runs: batch mean
        # 2.8-3.4, closed/serial 3.3-5.4x.
        assert batch_means["large"] > 1.5, (
            f"closed-loop mean coalesced batch size "
            f"{batch_means['large']:.2f}: {KNOBS['concurrency']} "
            f"clients over {N_WORKERS} workers should share frames")
        assert speedups["large"] >= 2.0, (
            f"closed-loop gateway throughput {speedups['large']:.1f}x "
            f"below the 2x target over the serial baseline at the "
            f"largest size")
    if "large" in tracing_by_size:
        overhead = tracing_by_size["large"]
        # Rendering and emitting a request's span/event lines is a
        # fixed cost, not a share of a latency that other work can
        # shrink: budget it in absolute terms. Sizing runs read
        # -0.09..+0.21 ms.
        added_ms = overhead["p50_ms_traced"] - overhead["p50_ms_untraced"]
        assert added_ms <= 0.5, (
            f"tracing-on p50 {overhead['p50_ms_traced']:.3f}ms is "
            f"{added_ms:.3f}ms over the {overhead['p50_ms_untraced']:.3f}ms "
            f"tracing-off p50 (budget 0.5ms per request) — the "
            f"observability layer is not near-zero-cost")
