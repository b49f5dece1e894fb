"""Chaos smoke: the gateway fleet under a seeded fault schedule.

What CI's chaos-smoke job runs::

    python scripts/chaos_smoke.py [work_dir] [--keep]

Same oracle discipline as ``gateway_smoke.py`` — concurrent mixed
traffic over a 2-worker fleet during two live publishes, every 200
diffed within 1e-9 against an in-process reference pinned to the
response's tagged version — but the workers run under a **seeded
fault plan** (:mod:`repro.faults`) the whole time:

* the first spawned worker is SIGKILLed during snapshot load (the
  fleet must come up anyway, through the slot's backoff);
* a slice of requests hit injected retryable errors and mid-request
  SIGKILLs (the supervisor's retry loop absorbs both);
* a slice of outgoing frames are delayed, dropped (the gateway
  observes a hang and kills the worker) or corrupted (the gateway
  detects the torn stream) — hedged reads keep the latency sane while
  the breaker respawns the casualties.

A client request may take a few transparent retries, but **every
answer that comes back must be exactly right**: correct scores for
its tagged version, versions never stepping backwards per client.
Chaos may cost latency; it may never cost correctness.

Then three more legs:

* **shed probe** — a second server over the same fleet with a
  one-slot admission window (``max_inflight=1, max_queue=0``) takes a
  24-way concurrent burst: most requests must be shed with ``429`` +
  ``Retry-After`` (bounded queueing made explicit), and every ``200``
  that does get through is diffed like the rest. A shed is always
  correct; a wrong answer never is.
* **stale probe** — with the traffic done, ``allow_stale`` is enabled
  and the fleet's version floor inflated past anything the catalog
  holds (exactly what a dead worker that had served far ahead leaves
  behind): one request must come back ``200`` with ``"stale": true``
  and correct scores for its tagged version — degraded, explicit,
  never wrong.
* **drain** — ``server.drain()`` must leave the listener closed and
  **every pid the pool ever spawned** dead: chaos or not, shutdown
  leaves no orphans.

The run is also the **telemetry gate**. ``REPRO_OBS_LOG=1`` is set for
the whole topology and every ``repro.obs`` / ``repro.gateway`` log
line is captured in-process; afterwards the driver scrapes
``GET /metrics`` (main server and shed server — each gateway carries
its own registry, both merged with the shared pool's and the workers')
and reconciles the fleet's own story against the clients':

* restart / retry / shed / stale counters are **nonzero** (the chaos
  plan really fired) and equal the client-side tallies and pool stats;
* ``requests_total`` is conserved across the per-status response
  counters;
* the ``X-Request-Id`` of **every failed response** a client saw
  appears in a captured server-side log line — the correlation a 3 AM
  page actually needs.

The work directory defaults to a fresh temp dir removed at exit; pass
``--keep`` (or an explicit directory plus ``--keep``) to inspect it.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import http.client
import json
import logging
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TOLERANCE = 1e-9
N_USERS = 60
N_ITEMS = 40
PER_USER = 8
CF_K = 20
TOP_N = 5
SIMILAR_K = 4
N_CLIENTS = 6
REQUESTS_PER_CLIENT = 24
N_PUBLISHES = 2
PLAN_SEED = 2024
BURST = 24


def _fault_plan():
    """The seeded chaos schedule the whole worker fleet runs under."""
    from repro.faults import FaultPlan, FaultRule

    return FaultPlan(seed=PLAN_SEED, rules=[
        # The first spawn dies during snapshot load, before its first
        # health OK; its replacement must come up through the backoff.
        FaultRule("gateway.worker.load", "kill", max_spawn_seq=1),
        # Sprinkled retryable errors and two real mid-request deaths.
        FaultRule("gateway.worker.request", "error", probability=0.04),
        FaultRule("gateway.worker.request", "kill", probability=0.5, after=30, times=2),
        # Transport chaos on the reply path: delays, one dropped frame
        # (a hang the supervisor must kill through), two corrupted
        # headers (torn streams the supervisor must detect).
        FaultRule("gateway.worker.send", "delay", delay_s=0.05, probability=0.05),
        # The drop must land before the kill rule recycles the process
        # (fresh processes restart every per-rule counter), or it
        # never fires: a worker dying around its 30th request has sent
        # only ~32 frames. And it must hit only ONE worker (spawn seq
        # 0 dies at load, so the fleet is spawns 1 and 2): rule state
        # is per-process, so an ungated drop fires in both workers at
        # nearly the same send count — the whole fleet hangs at once
        # and there is no sibling left to hedge to.
        FaultRule("gateway.worker.send", "drop", after=18, times=1, max_spawn_seq=2),
        FaultRule("gateway.worker.send", "corrupt", probability=0.5, after=25, times=2),
    ])


def _table(seed: int):
    from repro.data.ratings import Rating, RatingTable

    rng = random.Random(seed)
    ratings = []
    for user in range(N_USERS):
        for item in rng.sample(range(N_ITEMS), PER_USER):
            ratings.append(Rating(
                f"u{user:03d}", f"i{item:03d}",
                float(rng.randint(1, 5)), len(ratings)))
    return RatingTable(ratings)


def _update_batch(round_number: int):
    from repro.data.ratings import Rating

    base = 100000 + round_number * 10
    flip = 5.0 if round_number % 2 else 1.0
    return [
        Rating("u001", "i000", flip, base),
        Rating("u002", "i001", 6.0 - flip, base + 1),
        Rating("u003", "i002", flip, base + 2),
        Rating("u004", "i003", 6.0 - flip, base + 3),
    ]


class _CaptureHandler(logging.Handler):
    """Collects every log line the gateway side emits in-process, so
    the trace-correlation gate can grep them after the run."""

    def __init__(self, out: list) -> None:
        super().__init__(level=logging.INFO)
        self.out = out

    def emit(self, record: logging.LogRecord) -> None:
        self.out.append(record.getMessage())


def _scrape_metrics(port: int) -> dict[str, float]:
    """GET /metrics, parsed to ``{'name{labels}': value}``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/metrics -> HTTP {response.status}: "
                               f"{body[:200]!r}")
    finally:
        connection.close()
    samples: dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def _get(port: int, target: str, timeout: float = 30.0):
    """One GET; returns (status, headers, payload-dict)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read()
        headers = {name.lower(): value for name, value in response.getheaders()}
        try:
            payload = json.loads(body)
        except ValueError:
            payload = {}
        return response.status, headers, payload
    finally:
        connection.close()


def _client_loop(port: int, client_id: int, users: list[str],
                 items: list[str], out: list, errors: list,
                 retry_counts: list) -> None:
    """One client's sequence; each request survives a few transparent
    retries (a fleet mid-respawn may refuse briefly), but must land a
    correct 200 eventually — chaos may cost retries, not answers."""
    rng = random.Random(1000 + client_id)
    for seq in range(REQUESTS_PER_CLIENT):
        kind = "similar" if seq % 3 == 2 else "recommend"
        time.sleep(rng.uniform(0.002, 0.012))
        key = rng.choice(items if kind == "similar" else users)
        if kind == "recommend":
            target = f"/recommend?user={key}&n={TOP_N}"
        else:
            target = f"/similar_items?item={key}&k={SIMILAR_K}"
        status = None
        for attempt in range(4):
            try:
                status, headers, payload = _get(port, target)
            except Exception as exc:  # noqa: BLE001 - retried, then fatal
                status, headers, payload = -1, {}, {"error": str(exc)}
            if status == 200:
                break
            # Every failed *response* carries an X-Request-Id; keep it
            # so the telemetry gate can demand a matching server-side
            # log line. A connection-level failure (-1) has none.
            retry_counts.append((client_id, seq, status, headers.get("x-request-id")))
            time.sleep(0.1 * (attempt + 1))
        if status != 200:
            errors.append(f"client {client_id} request {seq}: "
                          f"{status} {payload}")
            return
        field = "recommendations" if kind == "recommend" else "neighbors"
        out.append((client_id, seq, kind, key, payload["version"], payload[field]))


async def _drive_traffic(work: Path, registry, users: list[str], items: list[str]):
    from concurrent.futures import ThreadPoolExecutor

    from repro.gateway import GatewayServer, WorkerPool

    plan = _fault_plan()
    pool = WorkerPool(work / "catalog", n_workers=2,
                      poll_interval=0.05,
                      call_timeout=10.0, retries=3,
                      hedge_delay=0.25,
                      backoff_base=0.05, backoff_cap=0.5,
                      worker_env={**plan.to_env(), "REPRO_OBS_LOG": "1"})
    await pool.start()
    server = GatewayServer(pool)
    await server.start()
    loop = asyncio.get_running_loop()
    responses: list = []
    errors: list = []
    retry_counts: list = []
    executor = ThreadPoolExecutor(max_workers=N_CLIENTS + BURST + 2)
    shed_failures: list[str] = []
    shed_stats = {}
    telemetry: dict = {"failed_ids": [], "metrics": {},
                       "tiny_metrics": {}, "stale_probe": {}}
    try:
        clients = [
            loop.run_in_executor(
                executor, _client_loop, server.port, client_id, users,
                items, responses, errors, retry_counts)
            for client_id in range(N_CLIENTS)]

        total = N_CLIENTS * REQUESTS_PER_CLIENT
        for round_number in range(1, N_PUBLISHES + 1):
            threshold = total * round_number // (N_PUBLISHES + 1)
            deadline = time.monotonic() + 120
            while (len(responses) < threshold
                   and time.monotonic() < deadline and not errors):
                await asyncio.sleep(0.005)
            version, _stats = await loop.run_in_executor(
                executor, registry.update, _update_batch(round_number))
            print(f"chaos-smoke: published v{version} after "
                  f"{len(responses)}/{total} responses")
        await asyncio.gather(*clients)
        stats = pool.stats()

        # --- shed probe: a one-slot admission window under a burst ---
        tiny = GatewayServer(pool, max_inflight=1, max_queue=0)
        await tiny.start()
        try:
            shed_responses: list = []

            def burst_request(index: int) -> None:
                user = users[index % len(users)]
                status, headers, payload = _get(
                    tiny.port, f"/recommend?user={user}&n={TOP_N}")
                shed_responses.append((index, user, status, headers, payload))

            barrier = threading.Barrier(BURST)

            def synced(index: int) -> None:
                barrier.wait()
                burst_request(index)

            await asyncio.gather(*[
                loop.run_in_executor(executor, synced, index)
                for index in range(BURST)])
            n_shed = sum(1 for r in shed_responses if r[2] == 429)
            n_ok = sum(1 for r in shed_responses if r[2] == 200)
            for index, user, status, headers, payload in shed_responses:
                if status == 429:
                    if "retry-after" not in headers:
                        shed_failures.append(f"burst {index}: 429 without Retry-After")
                    if payload.get("error", {}).get("code") != "overloaded":
                        shed_failures.append(f"burst {index}: 429 body {payload}")
                    telemetry["failed_ids"].append(headers.get("x-request-id"))
                elif status == 200:
                    responses.append((-1, index, "recommend", user,
                                      payload["version"],
                                      payload["recommendations"]))
                else:
                    shed_failures.append(f"burst {index}: unexpected HTTP {status}")
            if n_shed == 0:
                shed_failures.append(
                    f"a {BURST}-way burst into a 1-slot window shed "
                    f"nothing (200s: {n_ok})")
            if n_ok == 0:
                shed_failures.append("the shed probe served nothing")
            shed_stats = {"shed": n_shed, "served": n_ok,
                          "server_shed_count": tiny.n_shed}
            telemetry["tiny_metrics"] = await loop.run_in_executor(
                executor, _scrape_metrics, tiny.port)
        finally:
            await tiny.close()

        # --- stale probe: unreachable floor degrades, explicitly ---
        # Flip the pool into bounded-staleness mode and inflate the
        # version floor past anything the catalog holds — exactly the
        # state a dead worker that had served far ahead leaves behind
        # (test_chaos plays the same trick). The answer must be a 200,
        # tagged stale, with correct scores for its tagged version.
        pool.allow_stale = True
        pool.fleet_version += 50
        status, headers, payload = await loop.run_in_executor(
            executor, _get, server.port,
            f"/recommend?user={users[0]}&n={TOP_N}")
        telemetry["stale_probe"] = {
            "status": status,
            "stale": bool(payload.get("stale")),
            "request_id": headers.get("x-request-id"),
        }
        if status == 200:
            responses.append((-2, 0, "recommend", users[0],
                              payload["version"],
                              payload["recommendations"]))

        # Scrape the main server's fleet-merged /metrics while the
        # topology is still up; the telemetry gate reconciles it
        # against the clients' tallies after everything is gone.
        telemetry["metrics"] = await loop.run_in_executor(
            executor, _scrape_metrics, server.port)
        stats = pool.stats()

        # --- drain: no orphans, listener closed ---
        await server.drain(grace=15.0)
        drain_failures = []
        deadline = time.monotonic() + 10
        leftover = list(pool.spawned_pids)
        while leftover and time.monotonic() < deadline:
            leftover = [pid for pid in leftover if _pid_alive(pid)]
            time.sleep(0.1)
        if leftover:
            drain_failures.append(
                f"orphan worker pids after drain: {leftover} "
                f"(of {len(pool.spawned_pids)} ever spawned)")
        try:
            _get(server.port, "/healthz", timeout=2.0)
            drain_failures.append("listener still accepting after drain")
        except OSError:
            pass
    finally:
        await server.close()
        await pool.close()
        executor.shutdown(wait=False)
    return (responses, errors, retry_counts, stats, shed_failures,
            shed_stats, drain_failures, telemetry)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _reference_services(catalog) -> dict:
    from repro.serving.service import RecommendationService
    from repro.serving.snapshot import ModelSnapshot

    references = {}
    for version in catalog.versions():
        snapshot = ModelSnapshot.load(catalog.root / f"v-{version:08d}")
        references[version] = RecommendationService(snapshot)
    return references


def _verify(responses: list, references: dict) -> list[str]:
    failures = []
    last_seen: dict[int, int] = {}
    for client_id, seq, kind, key, version, payload in responses:
        if version not in references:
            failures.append(
                f"client {client_id} seq {seq}: version {version} was "
                f"never published")
            continue
        if client_id >= 0:  # burst records carry no sequence order
            previous = last_seen.get(client_id, 0)
            if version < previous:
                failures.append(
                    f"client {client_id} seq {seq}: version went "
                    f"backwards ({previous} -> {version}) — monotonic "
                    f"reads broken")
            last_seen[client_id] = max(previous, version)
        service = references[version]
        if kind == "recommend":
            _, expected = service.recommend_batch_pinned([key], TOP_N)
            expected = expected[0]
        else:
            _, expected = service.similar_items_pinned(key, SIMILAR_K)
        got = [tuple(pair) for pair in payload]
        if [item for item, _ in got] != [item for item, _ in expected]:
            failures.append(
                f"client {client_id} seq {seq} ({kind} {key!r}): items "
                f"{got} do not match v{version}'s {expected} — "
                f"cross-version mixing or corruption")
            continue
        worst = max(
            (abs(got_score - want_score)
             for (_, got_score), (_, want_score) in zip(got, expected)),
            default=0.0)
        if worst > TOLERANCE:
            failures.append(
                f"client {client_id} seq {seq} ({kind} {key!r}): "
                f"max|Δscore|={worst:.3e} vs v{version} exceeds "
                f"{TOLERANCE}")
    return failures


def _check_telemetry(telemetry: dict, retry_counts: list, shed_stats: dict,
                     stats: dict, log_lines: list[str]) -> list[str]:
    """The fleet's own story vs the clients': every chaos counter
    nonzero and equal to the client-side tally, requests conserved,
    and every failed response's X-Request-Id present in a captured
    server-side log line."""
    failures = []
    metrics = telemetry["metrics"]
    tiny = telemetry["tiny_metrics"]
    probe = telemetry["stale_probe"]

    answered = sum(value for key, value in metrics.items()
                   if key.startswith("gateway_http_responses_total{"))
    requests = metrics.get("gateway_http_requests_total", -1.0)
    if requests != answered + 1:
        failures.append(
            f"/metrics conservation broken: requests_total={requests} "
            f"!= {answered} answered + 1 in-flight scrape")

    restarts = metrics.get("gateway_worker_restarts_total", 0.0)
    if restarts != stats["n_restarts"] or restarts == 0:
        failures.append(
            f"/metrics restarts={restarts} vs pool stats "
            f"{stats['n_restarts']} (must match, nonzero)")
    if metrics.get("gateway_retries_total", 0.0) <= 0:
        failures.append("chaos produced no pool retries in /metrics")

    shed_counted = tiny.get("gateway_shed_total", 0.0)
    if shed_counted != shed_stats.get("shed") or shed_counted == 0:
        failures.append(
            f"shed-server /metrics counted {shed_counted} sheds, "
            f"clients tallied {shed_stats.get('shed')} 429s")

    if not (probe.get("status") == 200 and probe.get("stale")):
        failures.append(f"stale probe did not degrade: {probe}")
    n_stale = metrics.get("gateway_stale_responses_total", 0.0)
    if n_stale != 1:
        failures.append(
            f"/metrics counted {n_stale} stale responses, clients "
            f"tallied 1 (the stale probe)")
    if metrics.get("gateway_stale_serves_total", 0.0) < 1:
        failures.append("the pool's stale-serve counter never moved")

    failed_ids = [rid for rid in
                  ([record[3] for record in retry_counts] + telemetry["failed_ids"])
                  if rid]
    if not failed_ids:
        failures.append(
            "no failed response carried an X-Request-Id — the "
            "correlation gate proved nothing")
    joined = "\n".join(log_lines)
    missing = sorted({rid for rid in failed_ids if rid not in joined})
    if missing:
        failures.append(
            f"{len(missing)} failed-response trace ids never appeared "
            f"in a server-side log line: {missing[:5]}")
    return failures


def _drive(work_dir: str, seed: int) -> int:
    from repro.engine.sharded_sweep import IncrementalSweep
    from repro.serving.registry import ModelRegistry
    from repro.serving.watch import SnapshotCatalog

    # The telemetry gate needs the structured log lines: turn the
    # REPRO_OBS_LOG firehose on for this process (the gateway side)
    # and capture everything the obs/gateway loggers emit.
    os.environ["REPRO_OBS_LOG"] = "1"
    log_lines: list[str] = []
    capture = _CaptureHandler(log_lines)
    for logger_name in ("repro.obs", "repro.gateway"):
        obs_logger = logging.getLogger(logger_name)
        obs_logger.setLevel(logging.INFO)
        obs_logger.addHandler(capture)

    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    table = _table(seed)
    sweep = IncrementalSweep(table)
    registry = ModelRegistry(sweep=sweep, cf_k=CF_K)
    catalog = SnapshotCatalog(work / "catalog")
    catalog.attach(registry)
    users = [f"u{i:03d}" for i in range(N_USERS)]
    items = [f"i{i:03d}" for i in range(N_ITEMS)]

    (responses, errors, retry_counts, stats, shed_failures, shed_stats,
     drain_failures, telemetry) = asyncio.run(
        _drive_traffic(work, registry, users, items))
    for error in errors:
        print(f"chaos-smoke: request FAILED: {error}")

    references = _reference_services(catalog)
    failures = _verify(responses, references)
    if not errors:
        failures.extend(_check_telemetry(
            telemetry, retry_counts, shed_stats, stats, log_lines))
    versions_seen = sorted({record[4] for record in responses if record[0] >= 0})
    if len(versions_seen) < 2:
        failures.append(
            f"only versions {versions_seen} appeared in responses — "
            f"the publishes did not overlap the traffic")
    expected_total = N_CLIENTS * REQUESTS_PER_CLIENT
    n_traffic = sum(1 for r in responses if r[0] >= 0)
    if not errors and n_traffic != expected_total:
        failures.append(f"{n_traffic}/{expected_total} traffic "
                        f"responses arrived")
    failures.extend(shed_failures)
    failures.extend(drain_failures)
    for failure in failures[:10]:
        print(f"chaos-smoke: {failure}")

    ok = not failures and not errors
    print(f"chaos-smoke: {len(responses)} correct responses "
          f"({len(retry_counts)} transparent retries) under plan seed "
          f"{PLAN_SEED}; fleet restarts={stats['n_restarts']} "
          f"spawn_failures={stats['n_spawn_failures']} "
          f"hedged={stats['n_hedged']}/{stats['n_hedge_wins']} wins; "
          f"shed probe {shed_stats}; stale probe "
          f"{telemetry['stale_probe']}; telemetry gate over "
          f"{len(telemetry['metrics'])} samples / {len(log_lines)} "
          f"captured log lines; diff<={TOLERANCE:g} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos smoke: the gateway fleet under a seeded "
                    "fault schedule, every answer diffed, overload "
                    "shed, drain orphan-free")
    parser.add_argument("work_dir", nargs="?", default=None,
                        help="working directory (default: fresh temp "
                             "dir, removed at exit)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--keep", action="store_true",
                        help="keep the working directory for debugging")
    args = parser.parse_args(argv)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="chaos-smoke-")
    if not args.keep:
        atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    return _drive(work_dir, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
