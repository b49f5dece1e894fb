"""``serve_cold`` and ``serve_hot_publish`` — the online recommender.

Both run the real fleet (``repro.cli serve-http --port 0 --workers 2``
at CLI defaults, a subprocess) over a catalogue published by
``bench/writer.py``, and load it from this process alone.

``serve_cold`` is a read-only closed loop whose clients walk a seeded
permutation of *all* users, so the per-worker 1024-entry response cache
never hits and every request pays a full scoring pass: scoring, index
and row-cache work shows here.

``serve_hot_publish`` is an open-loop Poisson stream over 64 Zipf-hot
users (response-cache hits: almost pure gateway path — HTTP parse,
coalescing window, frames, pool): three fixed rates with the writer
quiet, then the middle rate while the writer process publishes new
versions. Protocol and batcher work shows here, scoring work should
not, and a read-side gain bought with slower publishes or reloads
shows in ``visible_lag_p50_ms`` and ``ok_share``.

The traced run adds two ``/metrics`` scrapes around the load and a
four-rung ladder of serial, identical requests — L0 the in-process
service, L1 the worker's request handler, L2 a worker pool over real
sockets, L3 HTTP — whose differences are each layer's self time and
whose sum is the ``/recommend`` latency budget.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.gateway.protocol import encode_frame
from repro.gateway.supervisor import WorkerPool
from repro.gateway.worker import WorkerApp
from repro.obs.metrics import MetricsRegistry
from repro.serving.service import RecommendationService
from repro.serving.snapshot import ModelSnapshot
from repro.serving.watch import RegistryWatcher

from bench import fleet, inputs, loadgen, spec, stats
from bench.common import Context, Result, process_peak_rss_mb, self_peak_rss_mb

#: closed-loop clients / keep-alive connections.
CLIENTS = min(2, os.cpu_count() or 1)
#: ``serve_hot_publish``: read rate and publishes of the second phase.
PUBLISHING_RATE_QPS = 200
PUBLISHES = 2
LADDER_REQUESTS = 150
SCORE_TOLERANCE = 1e-9


def run(ctx: Context) -> Result:
    hot = ctx.workload == "serve_hot_publish"
    result = Result()
    setups: list[float] = []
    writer = gateway = None
    try:
        for attempt in range(ctx.setup_repeats):
            if gateway is not None:  # keep only the last set-up
                gateway.stop()
                writer.stop()
            directory = ctx.tmp / f"setup-{attempt}"
            directory.mkdir()
            started = time.perf_counter()
            writer = fleet.Writer(
                ctx.seed, directory,
                ctx.seconds / 2 / PUBLISHES if hot else 0.0, PUBLISHES)
            gateway = fleet.Gateway(writer.catalog, directory)
            users = _served_users(writer.catalog)
            # lazy set-up and cache fill finish before the timed phase:
            # the hot set on the hot workload, and on the cold one a
            # few users from the far end of the lap (never re-visited).
            warm = (inputs.hot_users(users, ctx.seed) if hot
                    else inputs.user_permutation(users, ctx.seed)[-4:])
            gateway.warm(warm, passes=fleet.WORKERS)
            setups.append(time.perf_counter() - started)
        result.info["trace_l"] = {k: writer.ready[k]
                                  for k in ("ratings", "users", "items")}
        result.info["clients"] = CLIENTS
        result.put("setup_s", stats.median(setups), len(setups))
        if ctx.traced:  # the writer times its own calls into data/engine
            result.put("data.synthetic.generate_s", writer.ready["generate_s"])
            result.put("data.ratings_in", writer.ready["ratings"])
        if hot:
            _serve_hot(ctx, result, writer, gateway, users)
        else:
            _serve_cold(ctx, result, writer, gateway, users)
    finally:
        for child in (gateway, writer):
            if child is not None:
                child.stop()
    result.finish()
    return result


def _served_users(catalog) -> list[str]:
    return sorted(_load_version(catalog, 1).store.users)


def _load_version(catalog, version: int) -> ModelSnapshot:
    return ModelSnapshot.load(catalog / f"v-{version:08d}")


# -- the two load shapes ------------------------------------------------


def _serve_cold(ctx, result, writer, gateway, users) -> None:
    _, done = writer.finish()  # published v1 and left: no writes here
    order = inputs.user_permutation(users, ctx.seed)
    before = gateway.scrape() if ctx.traced else None
    report = loadgen.closed_loop(gateway.host, gateway.port, order, CLIENTS,
                                 ctx.seconds)
    after = gateway.scrape() if ctx.traced else None
    _census(result, report)
    ok = report.ok
    result.put_latency([a.latency_s for a in ok])
    goodput = report.ok_within_limit() / report.elapsed_s
    result.put("goodput_per_s", goodput, len(ok))
    result.put("qps", len(ok) / report.elapsed_s, len(ok))
    result.put("ok_share", report.ok_within_limit() / report.sent, report.sent)
    _gates(result, report, writer.catalog)
    ladder_rss = 0.0
    if ctx.traced:
        _loadgen_metrics(result, report, report.answers)
        _scrape_metrics(result, before, after)
        hit_rate = result.metrics["serving.service.response_hit_rate"]
        result.gate("response cache bypassed", hit_rate <= 0.02,
                    f"response_hit_rate {hit_rate:.4f}")
        # the lap goes on: users the fleet's caches have not seen lately
        position = report.sent % len(order)
        ladder_users = [order[(position + i) % len(order)]
                        for i in range(LADDER_REQUESTS)]
        ladder_rss = _ladder(ctx, result, writer.catalog, gateway,
                             ladder_users, warm=False)
    result.put("peak_rss_mb", self_peak_rss_mb() + gateway.peak_rss_mb()
               + done["peak_rss_mb"] + ladder_rss)


def _schedule(users, rate: int, seconds: float, seed: int, draw: int):
    due = inputs.poisson_schedule(rate, seconds, seed * 10 + draw)
    return due, inputs.zipf_hot_draws(users, len(due), seed, seed * 10 + draw)


def _serve_hot(ctx, result, writer, gateway, users) -> None:
    """Two phases of open-loop reads over the hot set. *Quiet*: the
    three rungs back to back with no writer activity — the gateway
    path on its own, which is what ``latency_p50_ms`` reads. Then
    *publishing*: the middle rate while the writer applies
    :data:`PUBLISHES` heavy batches — freshness and the read tail
    beside writes. (With publishes under every rung the median itself
    moved 4.1–6.3 ms between identical sizing runs: a reload stalls
    both workers and hits queue behind the refill misses.)"""
    rates = spec.RUNG_RATES_QPS
    quiet_rung_s = ctx.seconds / 2 / len(rates)
    quiet = [_schedule(users, rate, quiet_rung_s, ctx.seed, index)
             for index, rate in enumerate(rates)]
    publishing = [_schedule(users, PUBLISHING_RATE_QPS, ctx.seconds / 2,
                            ctx.seed, len(rates))]
    before = gateway.scrape() if ctx.traced else None
    quiet_report = loadgen.open_loop(gateway.host, gateway.port, quiet,
                                     quiet_rung_s)
    writer.send("go")
    report = loadgen.open_loop(gateway.host, gateway.port, publishing,
                               ctx.seconds / 2, first_rung=len(rates))
    batches, done = writer.finish()
    after = gateway.scrape() if ctx.traced else None
    # one report from here on, the publishing rung last
    report.answers[:0] = quiet_report.answers
    report.served[:0] = quiet_report.served
    report.elapsed_s += quiet_report.elapsed_s
    _census(result, report)

    per_rung = [[a for a in report.answers if a.rung == r]
                for r in range(len(rates) + 1)]
    result.put_latency([a.latency_s for a in quiet_report.ok])
    result.put("goodput_per_s", report.ok_within_limit() / report.elapsed_s,
               report.sent)
    result.put("ok_share", report.ok_within_limit() / report.sent, report.sent)
    max_ok = 0
    for rate, answers in zip(rates, per_rung):
        share = report.ok_within_limit(answers) / len(answers)
        if share >= 0.99 and not loadgen.backlog_grew(answers):
            max_ok = rate
    result.put("max_ok_rate_qps", max_ok, quiet_report.sent)

    lags = []
    for batch in batches:
        seen = report.first_seen(batch["version"])
        if seen is not None:
            lags.append((seen - batch["t_start"]) * 1000.0)
    result.attempted += len(batches)
    result.failed += len(batches) - len(lags)
    if lags:
        result.put("visible_lag_p50_ms", stats.median(lags), len(lags))
    result.info["publishes"] = len(batches)
    result.gate("publishes became visible",
                len(batches) == PUBLISHES and len(lags) == PUBLISHES,
                f"{len(lags)} of {len(batches)} versions seen by readers")
    _gates(result, report, writer.catalog)
    ladder_rss = 0.0
    if ctx.traced:
        _loadgen_metrics(result, report, quiet_report.answers)
        result.put("loadgen.publishing.late_p99_ms",
                   stats.percentile([a.late_s * 1000.0 for a in per_rung[-1]], 0.99),
                   len(per_rung[-1]))
        names = [f"rung{rate}" for rate in rates] + ["publishing"]
        for name, answers in zip(names, per_rung):
            millis = [a.latency_s * 1000.0 for a in answers if a.status == 200]
            result.put(f"loadgen.{name}.p50_ms", stats.median(millis), len(millis))
            result.put(f"loadgen.{name}.p90_ms",
                       stats.percentile(millis, 0.90), len(millis))
            result.put(f"loadgen.{name}.ok_share",
                       report.ok_within_limit(answers) / len(answers), len(answers))
        _scrape_metrics(result, before, after)
        hit_rate = result.metrics["serving.service.response_hit_rate"]
        result.gate("response cache used", hit_rate >= 0.6,
                    f"response_hit_rate {hit_rate:.4f}")
        sweep = [b["sweep_s"] * 1000.0 for b in batches]
        if sweep:
            result.put("engine.sweep.update_p50_ms.heavy", stats.median(sweep),
                       len(sweep))
        hot_set = inputs.hot_users(users, ctx.seed)
        ladder_users = [hot_set[i % len(hot_set)] for i in range(LADDER_REQUESTS)]
        ladder_rss = _ladder(ctx, result, writer.catalog, gateway,
                             ladder_users, warm=True)
    result.put("peak_rss_mb", self_peak_rss_mb() + gateway.peak_rss_mb()
               + done["peak_rss_mb"] + ladder_rss)


# -- census, gates, per-layer -------------------------------------------


def _census(result: Result, report: loadgen.LoadReport) -> None:
    result.attempted += report.sent
    result.failed += report.failed + report.refused
    result.gate("every request answered 200",
                report.failed == 0 and report.refused == 0,
                f"{report.sent} sent, {report.failed} failed, "
                f"{report.refused} refused")


def _gates(result: Result, report: loadgen.LoadReport, catalog) -> None:
    """Sampled served responses against an in-process service at the
    version each response was tagged with; versions per connection."""
    result.gate("versions non-decreasing per connection",
                report.versions_monotone(), f"{len(report.ok)} responses")
    by_version: dict[int, list[tuple[str, list]]] = {}
    sampled = report.sampled()
    for user, version, served in sampled:
        by_version.setdefault(version, []).append((user, served))
    wrong = 0
    for version, rows in sorted(by_version.items()):
        service = RecommendationService(_load_version(catalog, version),
                                        response_cache_size=0)
        try:
            expected = service.recommend_batch([user for user, _ in rows],
                                               inputs.TOP_N)
        finally:
            service.close()
        for (_, served), want in zip(rows, expected):
            wrong += not _same_top_n(served, want)
    result.gate("sampled responses match the oracle at their version",
                wrong == 0 and len(sampled) > 0,
                f"{len(sampled)} sampled over versions "
                f"{sorted(by_version)}, {wrong} wrong")


def _same_top_n(served: list, want: list) -> bool:
    if len(served) != len(want):
        return False
    return all(item == want_item and abs(score - want_score) <= SCORE_TOLERANCE
               for (item, score), (want_item, want_score) in zip(served, want))


def _loadgen_metrics(result: Result, report: loadgen.LoadReport,
                     paced: list[loadgen.Answer]) -> None:
    """*paced* are the answers ``latency_p50_ms`` was taken from: their
    lateness says whether that number is the server's or the
    generator's."""
    millis = [a.latency_s * 1000.0 for a in report.ok]
    late = [a.late_s * 1000.0 for a in paced]
    result.put("loadgen.sent", report.sent)
    result.put("loadgen.ok", len(report.ok))
    result.put("loadgen.failed", report.failed)
    result.put("loadgen.refused", report.refused)
    result.put("loadgen.p99_ms", stats.percentile(millis, 0.99), len(millis))
    late_p99 = stats.percentile(late, 0.99)
    result.put("loadgen.late_p99_ms", late_p99, len(late))
    result.info["resolved"] = late_p99 <= spec.MAX_LATE_P99_MS


def _scrape_metrics(result: Result, before: dict, after: dict) -> None:
    def delta(prefix: str) -> float:
        return fleet.counter_delta(before, after, prefix)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for cache in ("response", "row"):
        hits = delta(f'service_cache_hits_total{{cache="{cache}"}}')
        misses = delta(f'service_cache_misses_total{{cache="{cache}"}}')
        result.put(f"serving.service.{cache}_hit_rate",
                   ratio(hits, hits + misses), int(hits + misses))
    served = delta("worker_request_seconds_count")
    result.put("gateway.worker.request_mean_ms",
               1000.0 * ratio(delta("worker_request_seconds_sum"), served),
               int(served))
    result.put("gateway.worker.loads", delta("worker_loads_total"))
    result.put("gateway.worker.version_lag_max",
               max((value for key, value in after.items()
                    if key.startswith("gateway_worker_version_lag")), default=0.0))
    result.put("gateway.pool.retries", delta("gateway_retries_total"))
    result.put("gateway.pool.restarts", delta("gateway_worker_restarts_total"))
    requests = delta("gateway_request_seconds_count")
    result.put("gateway.server.request_mean_ms",
               1000.0 * ratio(delta("gateway_request_seconds_sum"), requests),
               int(requests))
    flushes = delta("gateway_coalescer_flushes_total")
    result.put("gateway.server.flushes", flushes)
    result.put("gateway.server.batch_mean_size",
               ratio(delta("gateway_coalesced_requests_total"), flushes),
               int(flushes))
    result.put("gateway.server.shed", delta("gateway_shed_total"))


# -- the ladder ----------------------------------------------------------


def _ladder(ctx, result, catalog, gateway, users: list[str], warm: bool) -> float:
    """Serial, identical requests at four depths of the serving stack;
    returns the peak RSS of the extra worker processes rung L2 ran."""
    tracer = ctx.tracer
    version = max(int(p.name[2:]) for p in catalog.iterdir()
                  if p.name.startswith("v-"))
    with tracer.span("serving.snapshot.load"):
        snapshot = _load_version(catalog, version)
    result.put("serving.snapshot.load_s",
               tracer.durations("serving.snapshot.load")[-1])
    distinct = list(dict.fromkeys(users))

    # L0: the service, in process.
    service = RecommendationService(snapshot)
    if warm:
        service.recommend_batch(distinct, inputs.TOP_N)
    l0 = _timed(tracer, "ladder.L0.service", users,
                lambda user: service.recommend_batch([user], inputs.TOP_N))
    ladder_set = set(distinct)
    cold_users = [u for u in sorted(snapshot.store.users) if u not in ladder_set]
    started = time.perf_counter()
    rounds = 5
    for r in range(rounds):
        service.recommend_batch(cold_users[r * 32:(r + 1) * 32], inputs.TOP_N)
    result.put("serving.service.batch32_users_per_s",
               32 * rounds / (time.perf_counter() - started), rounds)
    service.close()

    # L1: the worker's request handler, in process.
    watcher = RegistryWatcher(catalog)
    watcher.poll()
    app = WorkerApp(watcher, RecommendationService(watcher.registry),
                    registry=MetricsRegistry())

    def frame(user: str) -> dict:
        return {"method": "recommend",
                "params": {"users": [user], "n": inputs.TOP_N,
                           "min_version": version, "budget_ms": 30000.0}}

    if warm:
        for user in distinct:
            app.handle(frame(user))
    l1 = _timed(tracer, "ladder.L1.worker", users,
                lambda user: app.handle(frame(user)))
    response = app.handle(frame(users[0]))
    app.service.close()

    # the wire format both directions of L2 pay.
    encoded = encode_frame(response)
    trips = []
    for _ in range(200):
        started = time.perf_counter()
        json.loads(encode_frame(response)[4:].decode("utf-8"))
        trips.append((time.perf_counter() - started) * 1e6)
    result.put("gateway.protocol.frame_roundtrip_us", stats.median(trips), len(trips))
    result.put("gateway.protocol.frame_bytes", len(encoded))

    # L2: a worker pool over real sockets and worker processes.
    l2, ladder_rss = asyncio.run(_pool_rung(tracer, catalog, users, distinct, warm))

    # L3: HTTP against the fleet under test.
    client = gateway.client()
    try:
        if warm:
            for _ in range(fleet.WORKERS * 2):  # every worker sees every user
                for user in distinct:
                    client.get(f"/recommend?user={user}&n={inputs.TOP_N}")
        l3 = _timed(tracer, "ladder.L3.http", users,
                    lambda user: client.get(
                        f"/recommend?user={user}&n={inputs.TOP_N}"))
    finally:
        client.close()

    medians = [stats.median(rung) * 1000.0 for rung in (l0, l1, l2, l3)]
    selfs = [medians[0]] + [max(0.0, upper - lower)
                            for lower, upper in zip(medians, medians[1:])]
    result.put("serving.service.recommend_p50_ms", selfs[0], len(l0))
    result.put("gateway.worker.handle_self_p50_ms", selfs[1], len(l1))
    result.put("gateway.pool.call_self_p50_ms", selfs[2], len(l2))
    result.put("gateway.server.http_self_p50_ms", selfs[3], len(l3))
    result.put("gateway.ladder.budget_ms", sum(selfs), len(l3))
    share = sum(selfs) / medians[3]
    result.put("gateway.ladder.sum_over_http", share, len(l3))
    result.gate("ladder sums to serial HTTP latency", abs(share - 1.0) <= 0.10,
                f"L0..L3 medians {[round(m, 3) for m in medians]} ms")
    return ladder_rss


def _timed(tracer, name: str, users: list[str], call) -> list[float]:
    walls = []
    for index, user in enumerate(users):
        with tracer.span(name, request_id=f"{name}#{index}") as span:
            call(user)
        walls.append(span.duration)
    return walls


async def _pool_rung(tracer, catalog, users, distinct, warm):
    pool = WorkerPool(catalog, n_workers=fleet.WORKERS)
    await pool.start()
    try:
        async def call(user: str) -> None:
            await pool.call("recommend", {"users": [user], "n": inputs.TOP_N})

        if warm:
            for _ in range(fleet.WORKERS * 2):
                for user in distinct:
                    await call(user)
        walls = []
        for index, user in enumerate(users):
            with tracer.span("ladder.L2.pool", request_id=f"ladder.L2.pool#{index}") as span:
                await call(user)
            walls.append(span.duration)
        rss = sum(process_peak_rss_mb(pid) for pid in pool.alive_workers())
    finally:
        await pool.close()
    return walls, rss
