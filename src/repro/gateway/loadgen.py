"""Load generation against a running gateway, stdlib-only.

Two arrival disciplines, because they answer different questions:

* **closed loop** (:func:`run_closed_loop`) — C clients issue requests
  back-to-back over keep-alive connections. Throughput-seeking: it
  measures the capacity of the serving path (what ``qps`` can the
  gateway sustain), and per-request latency excludes client-side
  queueing by construction.
* **open loop** (:func:`run_open_loop`) — a Poisson process schedules
  arrivals at a target rate λ (exponential inter-arrival gaps) and
  latency is measured **from the scheduled arrival time**, so requests
  that queue behind a slow frame are charged for the wait. This is
  the honest tail-latency discipline: a closed loop self-throttles
  around slowness and hides exactly the p99/p999 behaviour an SLA
  cares about (the coordinated-omission trap).

Workers are threads (the load is network-bound; the GIL releases on
socket waits) with one persistent ``http.client`` connection each.
Reports carry p50/p90/p99/p999 latency, achieved qps, error counts,
and every distinct model version observed — the bench uses the last to
prove responses stayed single-versioned during live publishes.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import GatewayError


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-quantile (0 ≤ q ≤ 1) of an ascending list, by the
    nearest-rank method the serving benches use."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def summarize(
    latencies_s: list[float],
    elapsed_s: float,
    errors: int,
    versions: set[int],
    shed: int = 0,
    stale: int = 0,
) -> dict:
    """A latency/throughput report dict (latencies in milliseconds).

    ``qps`` counts successfully answered requests only — it is the
    **goodput**. Shed requests (HTTP 429) are reported separately from
    errors: a shed is the server keeping its latency promise under
    overload, not a failure to answer correctly.
    """
    ordered = sorted(latencies_s)
    count = len(ordered)
    return {
        "n_requests": count,
        "errors": errors,
        "shed": shed,
        "stale": stale,
        "elapsed_s": elapsed_s,
        "qps": count / elapsed_s if elapsed_s > 0 else 0.0,
        "versions": sorted(versions),
        "latency_ms": {
            "mean": (sum(ordered) / count * 1000.0) if count else 0.0,
            "p50": percentile(ordered, 0.50) * 1000.0,
            "p90": percentile(ordered, 0.90) * 1000.0,
            "p99": percentile(ordered, 0.99) * 1000.0,
            "p999": percentile(ordered, 0.999) * 1000.0,
            "max": (ordered[-1] * 1000.0) if count else 0.0,
        },
    }


class GatewayClient:
    """A minimal keep-alive JSON client for one gateway."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: the ``X-Request-Id`` of the most recent response — what a
        #: client quotes to correlate a failure with server-side logs.
        self.last_request_id: str | None = None
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(self, target: str) -> tuple[int, dict]:
        """One GET round trip returning ``(status, payload)``;
        reconnects once on a dropped keep-alive connection. Callers
        that care about shedding/degradation inspect the status (429 =
        shed, 200 + ``stale`` marker = degraded) instead of treating
        every non-200 as one undifferentiated failure."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request("GET", target)
                response = conn.getresponse()
                body = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                OSError,
            ) as exc:
                self.close()
                if attempt:
                    raise GatewayError(f"request to {target} failed: {exc}") from exc
        self.last_request_id = response.getheader("X-Request-Id")
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {}
        return response.status, payload

    def get(self, target: str) -> dict:
        """One GET round trip; raises
        :class:`~repro.errors.GatewayError` on any non-200 status."""
        status, payload = self.request(target)
        if status != 200:
            raise GatewayError(f"{target} -> HTTP {status}: {payload!r}")
        return payload

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


def _recommend_target(user: str, n: int) -> str:
    return f"/recommend?user={user}&n={n}"


def run_serial_baseline(
    host: str,
    port: int,
    users: list[str],
    n: int,
    n_requests: int,
) -> dict:
    """The un-batched floor: ONE client, strictly sequential requests.

    Every request has the gateway to itself, so each pays a full
    round trip plus an unshared (single-user) scoring pass — the
    number batched serving has to beat.
    """
    client = GatewayClient(host, port)
    latencies: list[float] = []
    versions: set[int] = set()
    errors = 0
    started = time.perf_counter()
    for i in range(n_requests):
        user = users[i % len(users)]
        t0 = time.perf_counter()
        try:
            payload = client.get(_recommend_target(user, n))
        except GatewayError:
            errors += 1
            continue
        latencies.append(time.perf_counter() - t0)
        versions.add(payload["version"])
    elapsed = time.perf_counter() - started
    client.close()
    return summarize(latencies, elapsed, errors, versions)


def run_closed_loop(
    host: str,
    port: int,
    users: list[str],
    n: int,
    concurrency: int,
    requests_per_client: int,
) -> dict:
    """Capacity probe: *concurrency* clients, back-to-back requests."""
    latencies: list[float] = []
    versions: set[int] = set()
    errors = 0
    shed = 0
    stale = 0
    lock = threading.Lock()

    def client_loop(client_id: int) -> None:
        nonlocal errors, shed, stale
        client = GatewayClient(host, port)
        local_latencies: list[float] = []
        local_versions: set[int] = set()
        local_errors = local_shed = local_stale = 0
        for i in range(requests_per_client):
            user = users[(client_id + i * concurrency) % len(users)]
            t0 = time.perf_counter()
            try:
                status, payload = client.request(_recommend_target(user, n))
            except GatewayError:
                local_errors += 1
                continue
            if status == 429:
                local_shed += 1
                continue
            if status != 200:
                local_errors += 1
                continue
            local_latencies.append(time.perf_counter() - t0)
            local_versions.add(payload["version"])
            if payload.get("stale"):
                local_stale += 1
        client.close()
        with lock:
            latencies.extend(local_latencies)
            versions.update(local_versions)
            errors += local_errors
            shed += local_shed
            stale += local_stale

    threads = [
        threading.Thread(target=client_loop, args=(client_id,))
        for client_id in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    report = summarize(latencies, elapsed, errors, versions, shed=shed, stale=stale)
    report["discipline"] = "closed"
    report["concurrency"] = concurrency
    return report


def run_open_loop(
    host: str,
    port: int,
    users: list[str],
    n: int,
    rate_qps: float,
    duration_s: float,
    max_workers: int = 64,
    seed: int = 0,
) -> dict:
    """Poisson arrivals at *rate_qps* for *duration_s* seconds.

    Latency is measured from each request's **scheduled** arrival —
    a request delayed behind a slow frame or a worker restart
    accrues that delay — so the tail percentiles are
    coordinated-omission-free.
    """
    rng = random.Random(seed)
    arrivals: list[float] = []
    clock = 0.0
    while clock < duration_s:
        clock += rng.expovariate(rate_qps)
        if clock < duration_s:
            arrivals.append(clock)
    local = threading.local()
    latencies: list[float] = []
    versions: set[int] = set()
    errors = 0
    shed = 0
    stale = 0
    lock = threading.Lock()

    def fire(user: str, scheduled_at: float, epoch: float) -> None:
        nonlocal errors, shed, stale
        client = getattr(local, "client", None)
        if client is None:
            client = GatewayClient(host, port)
            local.client = client
        delay = (epoch + scheduled_at) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            status, payload = client.request(_recommend_target(user, n))
        except GatewayError:
            with lock:
                errors += 1
            return
        if status == 429:
            with lock:
                shed += 1
            return
        if status != 200:
            with lock:
                errors += 1
            return
        latency = time.perf_counter() - (epoch + scheduled_at)
        with lock:
            latencies.append(latency)
            versions.add(payload["version"])
            if payload.get("stale"):
                stale += 1

    with ThreadPoolExecutor(max_workers=max_workers) as executor:
        epoch = time.perf_counter()
        futures = [
            executor.submit(fire, users[i % len(users)], scheduled_at, epoch)
            for i, scheduled_at in enumerate(arrivals)
        ]
        for future in futures:
            future.result()
    elapsed = time.perf_counter() - epoch
    report = summarize(latencies, elapsed, errors, versions, shed=shed, stale=stale)
    report["discipline"] = "poisson"
    report["offered_qps"] = rate_qps
    report["n_scheduled"] = len(arrivals)
    return report
