"""Gateway smoke: 2 workers, live publishes, every response diffed.

What CI's gateway-smoke job runs::

    python scripts/gateway_smoke.py [work_dir] [--keep]

The driver builds a small rating trace and publishes it as version 1
of a :class:`~repro.serving.watch.SnapshotCatalog`, starts the real
networked topology — a :class:`~repro.gateway.server.GatewayServer`
over a 2-worker :class:`~repro.gateway.supervisor.WorkerPool`, each
worker a fresh subprocess memmapping the catalog — then fires
concurrent mixed traffic (single-user ``/recommend``, which exercises
the coalescer, plus ``/similar_items``) from several client
threads **while publishing two incremental rating batches** through
the live registry. The update batches re-rate well-connected items, so
consecutive versions genuinely rank differently — a mixed response
could not pass as both.

Every response is tagged by the gateway with the single model version
that served it. The check loads each published version's snapshot
directly from the catalog (the same bytes the workers mapped) and
asserts, per response:

* the payload matches an in-process
  :class:`~repro.serving.service.RecommendationService` over **that
  version** within 1e-9 — which is simultaneously the correctness
  check and the no-mixing check (a response blending two versions
  matches neither reference);
* versions never step backwards within a client's request sequence
  (the fleet's ``min_version`` handshake promises monotonic reads);
* at least two versions appear in the responses overall, i.e. the
  publishes really overlapped the traffic — otherwise the run proved
  nothing and the driver fails it.

After the traffic lands (fleet still up) the driver scrapes
``GET /metrics`` and reconciles the server's telemetry against the
clients' own tallies: every parsed request is accounted for by a
response counter (``requests_total == Σ responses_total + 1`` for the
in-flight scrape itself), the 200 count equals the responses the
clients collected, the stale-response counter equals the stale-tagged
payloads the clients saw (zero here — no faults, no degraded mode),
the coalescer count equals the single-user requests completed, and
worker-side counters really crossed the process boundary. A telemetry
layer that disagrees with the clients it served fails the smoke.

The work directory defaults to a fresh temp dir removed at exit; pass
``--keep`` (or an explicit directory plus ``--keep``) to inspect it.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import http.client
import json
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
REQUESTS_PER_CLIENT = 30
N_PUBLISHES = 2


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
    """Re-rate popular existing items so the new version really ranks
    differently (an update only touching fresh corners could leave
    v(N) == v(N+1) on the probe set and mask mixing)."""
    from repro.data.ratings import Rating

    base = 100000 + round_number * 10
    flip = 5.0 if round_number % 2 else 1.0
    return [
        Rating("u001", "i000", flip, base),
        Rating("u002", "i001", 6.0 - flip, base + 1),
        Rating("u003", "i002", flip, base + 2),
        Rating("u004", "i003", 6.0 - flip, base + 3),
    ]


def _get(port: int, target: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"{target} -> HTTP {response.status}: "
                               f"{body[:200]!r}")
        return json.loads(body)
    finally:
        connection.close()


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


def _client_loop(port: int, client_id: int, users: list[str],
                 items: list[str], out: list, errors: list,
                 stales: list) -> None:
    """One client thread's request sequence; records
    (client_id, seq, kind, key, version, payload) per response, and
    every stale-tagged payload into *stales* (the client-side tally
    the /metrics gate reconciles against)."""
    rng = random.Random(1000 + client_id)
    for seq in range(REQUESTS_PER_CLIENT):
        kind = "similar" if seq % 3 == 2 else "recommend"
        # Pace the stream so the run spans the publishes (and worker
        # convergence) instead of finishing in one burst.
        time.sleep(rng.uniform(0.002, 0.012))
        try:
            if kind == "recommend":
                user = rng.choice(users)
                payload = _get(port, f"/recommend?user={user}&n={TOP_N}")
                out.append((client_id, seq, kind, user,
                            payload["version"],
                            payload["recommendations"]))
            else:
                item = rng.choice(items)
                payload = _get(port, f"/similar_items?item={item}&k={SIMILAR_K}")
                out.append((client_id, seq, kind, item,
                            payload["version"], payload["neighbors"]))
            if payload.get("stale"):
                stales.append((client_id, seq))
        except Exception as exc:  # noqa: BLE001 - recorded, then fatal
            errors.append(f"client {client_id} request {seq}: {exc}")
            return


async def _drive_traffic(work: Path, registry, users: list[str], items: list[str]):
    from repro.gateway import GatewayServer, WorkerPool

    from concurrent.futures import ThreadPoolExecutor

    pool = WorkerPool(work / "catalog", n_workers=2, poll_interval=0.05)
    await pool.start()
    server = GatewayServer(pool)
    await server.start()
    loop = asyncio.get_running_loop()
    responses: list = []
    errors: list = []
    stales: list = []
    metrics: dict = {}
    # A dedicated executor: the default pool is tiny on small machines
    # and the publisher must never queue behind the client threads.
    executor = ThreadPoolExecutor(max_workers=N_CLIENTS + 2)
    try:
        clients = [
            loop.run_in_executor(
                executor, _client_loop, server.port, client_id, users,
                items, responses, errors, stales)
            for client_id in range(N_CLIENTS)]

        total = N_CLIENTS * REQUESTS_PER_CLIENT
        for round_number in range(1, N_PUBLISHES + 1):
            # Publish when roughly round/(N+1) of the traffic has
            # landed, so every version serves a real slice of it.
            threshold = total * round_number // (N_PUBLISHES + 1)
            deadline = time.monotonic() + 60
            while (len(responses) < threshold
                   and time.monotonic() < deadline and not errors):
                await asyncio.sleep(0.005)
            version, _stats = await loop.run_in_executor(
                executor, registry.update, _update_batch(round_number))
            print(f"gateway-smoke: published v{version} after "
                  f"{len(responses)}/{total} responses")
        await asyncio.gather(*clients)
        stats = pool.stats()
        # Scrape the fleet-merged /metrics while everything is still
        # up; the conservation gate reconciles it against the
        # client-side tallies after the fleet is gone.
        metrics = await loop.run_in_executor(executor, _scrape_metrics, server.port)
    finally:
        await server.close()
        await pool.close()
        executor.shutdown(wait=False)
    return responses, errors, stales, metrics, stats


def _check_metrics(metrics: dict, responses: list, stales: list) -> list[str]:
    """Conservation invariants between the scraped /metrics and what
    the clients actually observed. The scrape itself is the one
    request counted at ingress but not yet answered when the snapshot
    was taken, hence the ``+ 1``."""
    failures = []
    answered = sum(
        value for key, value in metrics.items()
        if key.startswith("gateway_http_responses_total{"))
    requests = metrics.get("gateway_http_requests_total", -1.0)
    if requests != answered + 1:
        failures.append(
            f"/metrics conservation broken: requests_total={requests} "
            f"!= {answered} answered + 1 in-flight scrape")
    n_ok = metrics.get('gateway_http_responses_total{code="200"}', 0.0)
    if n_ok != len(responses):
        failures.append(
            f"/metrics counted {n_ok} HTTP 200s, clients saw "
            f"{len(responses)}")
    n_stale = metrics.get("gateway_stale_responses_total", 0.0)
    if n_stale != len(stales):
        failures.append(
            f"/metrics counted {n_stale} stale responses, clients "
            f"tallied {len(stales)}")
    n_recommend = sum(1 for r in responses if r[2] == "recommend")
    coalesced = metrics.get("gateway_coalesced_requests_total", 0.0)
    if coalesced != n_recommend:
        failures.append(
            f"coalescer saw {coalesced} single-user requests, clients "
            f"completed {n_recommend}")
    if metrics.get('worker_requests_total{method="recommend"}', 0.0) <= 0:
        failures.append(
            "no worker-side request counts crossed the process "
            "boundary into /metrics")
    return failures


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
        previous = last_seen.get(client_id, 0)
        if version < previous:
            failures.append(
                f"client {client_id} seq {seq}: version went backwards "
                f"({previous} -> {version}) — monotonic reads broken")
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


def _drive(work_dir: str, seed: int) -> int:
    from repro.engine.sharded_sweep import IncrementalSweep
    from repro.serving.registry import ModelRegistry
    from repro.serving.watch import SnapshotCatalog

    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    table = _table(seed)
    sweep = IncrementalSweep(table, n_shards=1)
    registry = ModelRegistry(sweep=sweep, cf_k=CF_K)
    catalog = SnapshotCatalog(work / "catalog")
    catalog.attach(registry)
    users = [f"u{i:03d}" for i in range(N_USERS)]
    items = [f"i{i:03d}" for i in range(N_ITEMS)]

    responses, errors, stales, metrics, stats = asyncio.run(
        _drive_traffic(work, registry, users, items))
    for error in errors:
        print(f"gateway-smoke: request FAILED: {error}")

    references = _reference_services(catalog)
    failures = _verify(responses, references)
    if not errors:
        failures.extend(_check_metrics(metrics, responses, stales))
    versions_seen = sorted({record[4] for record in responses})
    if len(versions_seen) < 2:
        failures.append(
            f"only versions {versions_seen} appeared in responses — "
            f"the publishes did not overlap the traffic, nothing was "
            f"proved")
    expected_total = N_CLIENTS * REQUESTS_PER_CLIENT
    if not errors and len(responses) != expected_total:
        failures.append(f"{len(responses)}/{expected_total} responses "
                        f"arrived")
    for failure in failures[:10]:
        print(f"gateway-smoke: {failure}")

    ok = not failures and not errors
    per_version = {
        version: sum(1 for r in responses if r[4] == version)
        for version in versions_seen}
    print(f"gateway-smoke: {len(responses)} responses over "
          f"versions {per_version}, fleet={stats['alive']} alive / "
          f"{stats['n_restarts']} restarts, "
          f"metrics gate over {len(metrics)} samples, "
          f"diff<={TOLERANCE:g} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="networked gateway smoke: concurrent mixed traffic "
                    "over 2 workers during live incremental publishes")
    parser.add_argument("work_dir", nargs="?", default=None,
                        help="working directory (default: fresh temp "
                             "dir, removed at exit)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--keep", action="store_true",
                        help="keep the working directory for debugging")
    args = parser.parse_args(argv)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="gateway-smoke-")
    if not args.keep:
        atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    return _drive(work_dir, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
