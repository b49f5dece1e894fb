"""Chaos coverage for the hardened gateway: faults meet the fleet.

``test_faults.py`` pins the plan/breaker mechanics in-process; this
file points them at real worker fleets and at the HTTP edge:

* workers killed **during snapshot load** (before their first health
  OK) are respawned with backoff and the pool still comes up — and
  when *every* spawn dies, ``start()`` fails fast instead of hanging
  callers past the load timeout (the regression the breaker work must
  not reintroduce);
* overload is shed with 429 + ``Retry-After`` — never a wrong answer;
* graceful drain finishes in-flight work and leaves **no orphan
  process** out of everything the pool ever spawned;
* degraded mode serves an explicitly ``stale``-tagged answer when the
  version floor is unreachable within the deadline;
* hedged reads race a delayed worker against an idle sibling and the
  first answer wins;
* deadline budgets bound a crash-looping request's total wall clock
  regardless of the configured retry count;
* error bodies at the edge are sanitized — internal detail must not
  leak into 503 responses (the information-disclosure regression).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

import pytest

from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import GatewayError
from repro.faults import FaultPlan, FaultRule
from repro.gateway import GatewayServer, WorkerPool
from repro.serving import ModelRegistry, SnapshotCatalog

TOLERANCE = 1e-9


def _table(seed: int = 7, n_users: int = 30, n_items: int = 24,
           per_user: int = 8) -> RatingTable:
    rng = random.Random(seed)
    ratings = []
    for u in range(n_users):
        for it in rng.sample(range(n_items), per_user):
            ratings.append(Rating(
                f"u{u:03d}", f"i{it:03d}",
                float(rng.randint(1, 5)), len(ratings)))
    return RatingTable(ratings)


@pytest.fixture()
def catalog_source(tmp_path):
    registry = ModelRegistry(sweep=IncrementalSweep(_table()), cf_k=20)
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    return tmp_path / "catalog", registry


def _run(coro):
    return asyncio.run(coro)


async def _wait_all_dead(pids: list[int], timeout: float = 10.0) -> list[int]:
    """The pids (of everything a pool ever spawned) still alive after
    *timeout* — the drain gate asserts this comes back empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            alive.append(pid)
        if not alive:
            return []
        await asyncio.sleep(0.1)
    return alive


# ----------------------------------------------------------------------
# Death during snapshot load (before the first health OK)
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.crash
def test_worker_killed_during_load_recovers(catalog_source):
    """The first two spawns die mid-load; their replacements come up
    clean and the pool serves correctly — callers never hang past the
    load timeout, and the failures are visible in the slot stats."""
    source, _ = catalog_source
    plan = FaultPlan(seed=3, rules=[
        FaultRule("gateway.worker.load", "kill", max_spawn_seq=2)])

    async def scenario():
        pool = WorkerPool(
            source, n_workers=2, call_timeout=15, load_timeout=15,
            poll_interval=0.05, backoff_base=0.05, backoff_cap=0.2,
            worker_env=plan.to_env())
        t0 = time.monotonic()
        await pool.start()
        assert time.monotonic() - t0 < 30
        try:
            assert pool.n_spawn_failures >= 2
            response = await pool.call("recommend", {"users": ["u001"], "n": 4})
            assert response["ok"] and response["results"][0]
        finally:
            await pool.close()
        assert await _wait_all_dead(pool.spawned_pids) == []

    _run(scenario())


@pytest.mark.slow
@pytest.mark.crash
def test_every_spawn_dying_fails_fast_without_orphans(catalog_source):
    """When no worker can ever load (kill at every load), start() must
    raise within its own deadline — not hang callers — and leave no
    process behind."""
    source, _ = catalog_source
    plan = FaultPlan(rules=[FaultRule("gateway.worker.load", "kill")])

    async def scenario():
        pool = WorkerPool(
            source, n_workers=2, call_timeout=2, load_timeout=2,
            backoff_base=0.05, backoff_cap=0.2,
            worker_env=plan.to_env())
        t0 = time.monotonic()
        with pytest.raises(GatewayError, match="no worker became ready"):
            await pool.start()
        assert time.monotonic() - t0 < 15
        assert pool.n_spawn_failures >= 2
        assert await _wait_all_dead(pool.spawned_pids) == []

    _run(scenario())


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.crash
def test_deadline_bounds_a_crash_looping_request(catalog_source):
    """retries=50 must not mean 50 spawn cycles of wall clock: the
    per-request deadline budget cuts the retry loop off."""
    source, _ = catalog_source

    async def scenario():
        pool = WorkerPool(
            source, n_workers=1, call_timeout=15, retries=50,
            poll_interval=0.05, backoff_base=0.05, backoff_cap=0.2,
            # Health is each worker's request #1; every data request
            # after it dies mid-flight, on every respawn too.
            worker_env=FaultPlan(rules=[FaultRule(
                "gateway.worker.request", "kill", after=2, times=1)]).to_env())
        await pool.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(GatewayError):
                await pool.call("recommend", {"users": ["u001"], "n": 4}, timeout=2.0)
            assert time.monotonic() - t0 < 10
        finally:
            await pool.close()

    _run(scenario())


def test_worker_refuses_exhausted_budget(tmp_path):
    """A frame arriving with no budget left is answered with a
    non-retryable deadline error, not computed."""
    from repro.serving import RecommendationService, RegistryWatcher
    from repro.gateway.worker import WorkerApp, wait_for_model

    registry = ModelRegistry(sweep=IncrementalSweep(_table()), cf_k=20)
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    watcher = RegistryWatcher(tmp_path / "catalog")
    wait_for_model(watcher, timeout=5.0)
    app = WorkerApp(watcher, RecommendationService(watcher.registry))
    dead = app.handle({"method": "recommend",
                       "params": {"users": ["u001"], "n": 4, "budget_ms": 0.0}})
    assert not dead["ok"]
    assert dead["error"]["type"] == "deadline"
    assert not dead["error"]["retryable"]
    alive = app.handle({"method": "recommend",
                        "params": {"users": ["u001"], "n": 4, "budget_ms": 500.0}})
    assert alive["ok"]


# ----------------------------------------------------------------------
# Degraded mode: bounded staleness, explicitly tagged
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_allow_stale_serves_tagged_response_when_floor_unreachable(catalog_source):
    source, _ = catalog_source

    async def scenario():
        pool = WorkerPool(
            source, n_workers=1, call_timeout=4, retries=1,
            poll_interval=0.05, allow_stale=True)
        await pool.start()
        try:
            # Pretend some worker already served v99 (e.g. it died with
            # the only copy): the floor is now unreachable.
            pool.fleet_version = 99
            t0 = time.monotonic()
            response = await pool.call("recommend", {"users": ["u001"], "n": 4})
            assert time.monotonic() - t0 < 6
            assert response["ok"] and response["stale"] is True
            assert response["version"] == 1
            assert pool.n_stale_served == 1
        finally:
            await pool.close()

    _run(scenario())


@pytest.mark.slow
def test_without_allow_stale_the_floor_still_fails(catalog_source):
    source, _ = catalog_source

    async def scenario():
        pool = WorkerPool(
            source, n_workers=1, call_timeout=2, retries=1,
            poll_interval=0.05)
        await pool.start()
        try:
            pool.fleet_version = 99
            with pytest.raises(GatewayError):
                await pool.call("recommend", {"users": ["u001"], "n": 4})
        finally:
            await pool.close()

    _run(scenario())


# ----------------------------------------------------------------------
# Hedged reads
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_hedged_read_beats_a_delayed_worker(catalog_source):
    """Only the first-spawned worker is slow (1s on every data frame it
    sends); with hedging on, reads that land on it are duplicated to
    the fast sibling and finish early."""
    source, _ = catalog_source
    plan = FaultPlan(seed=5, rules=[
        # after=2 spares each worker's health response (send #1).
        FaultRule("gateway.worker.send", "delay", delay_s=1.0,
                  after=2, max_spawn_seq=1)])

    async def scenario():
        pool = WorkerPool(
            source, n_workers=2, call_timeout=15, poll_interval=0.05,
            hedge_delay=0.1, worker_env=plan.to_env())
        await pool.start()
        try:
            t0 = time.monotonic()
            for _ in range(4):
                response = await pool.call("recommend", {"users": ["u001"], "n": 4})
                assert response["ok"]
            elapsed = time.monotonic() - t0
            # Un-hedged, every round through the slow worker costs 1s.
            assert pool.n_hedged >= 1
            assert pool.n_hedge_wins >= 1
            assert elapsed < 3.0
        finally:
            await pool.close()

    _run(scenario())


class _FakeHandle:
    """The slice of WorkerHandle the pool's routing touches."""

    alive = True
    slot = None
    version = 0

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.gate = asyncio.Event()
        self.proc = self

    def poll(self) -> None:  # a live process
        return None

    async def call(self, payload, timeout):
        await self.gate.wait()
        return {"ok": True, "version": 1, "results": []}


def test_hedge_checkout_cancelled_as_a_worker_frees_does_not_leak_it(tmp_path):
    """The hedge races the slow primary against a *waiting* checkout
    and cancels the checkout when the primary wins. If a sibling is
    released in that same instant the checkout must not walk off with
    it: a handle taken by a cancelled checkout is in nobody's hands
    and never re-enters rotation (seen as hedged goodput collapsing to
    a fraction of unhedged, then 'no live worker became available')."""
    async def scenario():
        pool = WorkerPool(tmp_path, n_workers=2, hedge_delay=0.01)
        primary, sibling = _FakeHandle(0), _FakeHandle(1)
        attempt = asyncio.ensure_future(
            pool._dispatch(primary, "recommend", {"users": ["a"]}, 5.0))
        # Past hedge_delay with no idle sibling: the checkout is parked.
        await asyncio.sleep(0.05)
        assert not attempt.done() and pool.n_hedged == 0
        primary.gate.set()       # the primary answers ...
        pool._release(sibling)   # ... as the sibling comes back.
        response = await asyncio.wait_for(attempt, 5.0)
        assert response["ok"]
        await asyncio.sleep(0)   # let the cancelled checkout unwind
        idle = {pool._checkout_nowait(), pool._checkout_nowait()}
        assert idle == {primary, sibling}

    _run(scenario())


@pytest.mark.slow
def test_cancelled_call_buries_its_worker_instead_of_leaking_it(catalog_source):
    """A call cancelled mid round trip leaves a response nobody will
    read on the worker's stream: the worker must be killed (and its
    slot respawned), not left checked out forever or re-queued
    desynchronised."""
    source, _ = catalog_source
    plan = FaultPlan(seed=5, rules=[
        # The first worker answers its first data frame 2s late.
        FaultRule("gateway.worker.send", "delay", delay_s=2.0,
                  after=2, times=1, max_spawn_seq=1)])

    async def scenario():
        pool = WorkerPool(
            source, n_workers=1, call_timeout=15, poll_interval=0.05,
            backoff_base=0.01, worker_env=plan.to_env())
        await pool.start()
        try:
            victim = pool.alive_workers()[0]
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    pool.call("recommend", {"users": ["u001"], "n": 4}), 0.2)
            response = await pool.call("recommend", {"users": ["u001"], "n": 4})
            assert response["ok"] and response["results"][0]
            assert victim not in pool.alive_workers()
            assert pool.n_restarts == 1
        finally:
            await pool.close()

    _run(scenario())


# ----------------------------------------------------------------------
# The HTTP edge: shedding, drain, sanitized errors, healthz detail
# ----------------------------------------------------------------------


class _FakePool:
    """A duck-typed pool for edge-behaviour tests that need no
    subprocesses: answers after an optional event, or raises."""

    call_timeout = 5.0
    n_workers = 1
    n_alive = 1

    def __init__(self, gate: asyncio.Event | None = None,
                 error: GatewayError | None = None) -> None:
        self.gate = gate
        self.error = error
        self.n_calls = 0

    async def call(self, method, params=None, timeout=None, trace=None):
        self.n_calls += 1
        if self.gate is not None:
            await self.gate.wait()
        if self.error is not None:
            raise self.error
        users = (params or {}).get("users", ["u"])
        return {"ok": True, "version": 1, "results": [[["i001", 1.0]] for _ in users]}

    async def close(self):
        return None

    def stats(self):
        return {"n_workers": 1, "alive": 1, "fleet_version": 1,
                "n_calls": self.n_calls, "n_restarts": 0}

    def worker_details(self):
        return []


def test_overload_sheds_with_429_and_retry_after():
    async def scenario():
        gate = asyncio.Event()
        server = GatewayServer(_FakePool(gate=gate), max_inflight=1, max_queue=1)
        first = asyncio.ensure_future(
            server._route("GET", "/recommend?user=a&n=3", b""))
        second = asyncio.ensure_future(
            server._route("GET", "/recommend?user=b&n=3", b""))
        await asyncio.sleep(0.05)  # first holds the slot, second queues
        status, payload, extra = await server._route(
            "GET", "/recommend?user=c&n=3", b"")
        assert status == 429
        assert payload["error"]["code"] == "overloaded"
        assert extra == {"Retry-After": "1"}
        assert server.n_shed == 1
        gate.set()
        for task in (first, second):
            status, payload, _ = await task
            assert status == 200 and payload["recommendations"]
        # healthz never sheds, even at capacity.
        status, payload, _ = await server._route("GET", "/healthz", b"")
        assert status == 200 and payload["shed"] == 1

    _run(scenario())


def test_error_bodies_are_sanitized():
    """A GatewayError carrying internal detail (paths, pids) must not
    reach the client; the body is a stable machine-readable shape."""
    async def scenario():
        secret = "/var/data/models/v-00000007 (pid 4242)"
        server = GatewayServer(
            _FakePool(error=GatewayError(f"worker died reading {secret}")))
        status, payload, _ = await server._route("GET", "/recommend?user=a&n=3", b"")
        assert status == 503
        assert payload["error"]["code"] == "upstream_unavailable"
        assert secret not in json.dumps(payload)
        assert "pid" not in json.dumps(payload)

    _run(scenario())


async def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes, read to EOF (the server must answer and close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()
        await writer.wait_closed()


@pytest.mark.parametrize("request_bytes", [
    b"GET /recommend?user=a HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /recommend HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    b"POST /recommend HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    b"POST /recommend HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
    b"GET /recommend?user=a\r\n\r\n",
    b"GET  /recommend?user=a  HTTP/1.1\r\n\r\n",
], ids=["length-abc", "length-negative", "length-huge", "length-5000-digits",
        "two-part-line",
        "five-part-line"])
def test_malformed_http_is_answered_400_not_dropped(request_bytes, caplog):
    """Hostile framing at ingress: a structured 400 with a request id
    and a counter, then close — never a silent drop, never an
    unhandled exception in the connection callback."""
    async def scenario():
        pool = _FakePool()
        server = GatewayServer(pool)
        await server.start()
        try:
            raw = await _raw_exchange(server.port, request_bytes)
            status, metrics, _ = await server._route("GET", "/metrics", b"")
        finally:
            await server.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Connection"] == "close"
        assert len(headers["X-Request-Id"]) == 16
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert 'gateway_http_responses_total{code="400"} 1' in metrics
        assert "gateway_http_requests_total 1" in metrics
        assert pool.n_calls == 0

    with caplog.at_level("ERROR", logger="asyncio"):
        _run(scenario())
    assert not [r for r in caplog.records if "Unhandled exception" in r.getMessage()]


@pytest.mark.parametrize("target", [
    "/recommend?user=a&n=-3",
    "/recommend?user=a&n=0",
    "/similar_items?item=i001&k=0",
    "/similar_items?item=i001&k=-1",
])
def test_non_positive_list_lengths_are_400_never_a_slice(target):
    """``n=-3`` used to come back 200 with every recommendation except
    the last three — a Python negative slice served as an answer."""
    async def scenario():
        pool = _FakePool()
        server = GatewayServer(pool)
        status, payload, _ = await server._route("GET", target, b"")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        status, payload, _ = await server._route(
            "POST", "/recommend", json.dumps({"users": ["a", "b"], "n": -3}).encode())
        assert status == 400
        assert pool.n_calls == 0

    _run(scenario())


def test_draining_server_refuses_new_data_requests():
    async def scenario():
        server = GatewayServer(_FakePool())
        server._draining = True
        status, payload, _ = await server._route("GET", "/recommend?user=a&n=3", b"")
        assert status == 503
        assert payload["error"]["code"] == "draining"
        status, payload, _ = await server._route("GET", "/healthz", b"")
        assert status == 503 and payload["status"] == "draining"

    _run(scenario())


@pytest.mark.slow
def test_drain_finishes_inflight_and_leaves_no_orphans(catalog_source):
    source, _ = catalog_source

    async def scenario():
        pool = WorkerPool(source, n_workers=2, call_timeout=15, poll_interval=0.05)
        await pool.start()
        server = GatewayServer(pool)
        await server.start()
        import http.client

        def one_request(user: str) -> int:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=15)
            try:
                conn.request("GET", f"/recommend?user={user}&n=4")
                return conn.getresponse().status
            finally:
                conn.close()

        loop = asyncio.get_running_loop()
        statuses = await asyncio.gather(*[
            loop.run_in_executor(None, one_request, f"u{i:03d}")
            for i in range(6)])
        assert statuses == [200] * 6
        await server.drain(grace=10.0)
        # Everything the pool ever spawned is gone — no orphans.
        assert await _wait_all_dead(pool.spawned_pids) == []
        # And the listener is gone too.
        with pytest.raises(OSError):
            one_request("u001")

    _run(scenario())


@pytest.mark.slow
def test_healthz_reports_per_worker_detail(catalog_source):
    source, _ = catalog_source

    async def scenario():
        pool = WorkerPool(source, n_workers=2, call_timeout=15, poll_interval=0.05)
        await pool.start()
        server = GatewayServer(pool)
        try:
            await pool.call("recommend", {"users": ["u001"], "n": 3})
            status, payload, _ = await server._route("GET", "/healthz", b"")
            assert status == 200
            fleet = payload["fleet"]
            assert len(fleet) == 2
            for entry in fleet:
                assert entry["alive"] is True
                assert isinstance(entry["pid"], int)
                assert entry["circuit"] == "closed"
                assert entry["restarts"] == 0
                assert entry["version"] >= 1
        finally:
            await pool.close()

    _run(scenario())
