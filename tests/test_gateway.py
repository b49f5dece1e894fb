"""The networked serving tier: protocol, watch, worker, fleet.

Layered like the package: frame protocol units, then the on-disk
publication layer (catalog + watcher), then the worker request
handlers driven in-process, then full-stack tests over real worker
subprocesses — including the `crash`-marked worker-death coverage
(mid-flight SIGKILL through a one-rule fault plan) that pins the
supervisor's retry/restart contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import threading
import time

import pytest

from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import GatewayError, ServingError, StaleModelError
from repro.faults import FaultPlan, FaultRule, injected_faults
from repro.gateway import GatewayServer, WorkerPool
from repro.gateway.protocol import (
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.gateway.worker import WorkerApp, serve, wait_for_model
from repro.obs.metrics import get_registry
from repro.serving import (
    ModelRegistry,
    ModelSnapshot,
    RecommendationService,
    RegistryWatcher,
    SnapshotCatalog,
)

TOLERANCE = 1e-9


def _table(seed: int = 7, n_users: int = 40, n_items: int = 30,
           per_user: int = 8) -> RatingTable:
    rng = random.Random(seed)
    ratings = []
    for u in range(n_users):
        for it in rng.sample(range(n_items), per_user):
            ratings.append(Rating(
                f"u{u:03d}", f"i{it:03d}",
                float(rng.randint(1, 5)), len(ratings)))
    return RatingTable(ratings)


def _registry(table: RatingTable, cf_k: int = 20) -> ModelRegistry:
    sweep = IncrementalSweep(table)
    return ModelRegistry(sweep=sweep, cf_k=cf_k)


def _update_batch(offset: int = 0) -> list[Rating]:
    """A batch that touches well-connected existing items, so the
    published model actually ranks differently from its predecessor."""
    return [
        Rating("u001", "i000", 5.0, 90000 + offset),
        Rating("u002", "i001", 1.0, 90001 + offset),
        Rating("u003", "i002", 4.0, 90002 + offset),
    ]


def _assert_close(got, expected) -> None:
    assert len(got) == len(expected)
    for (item_a, score_a), (item_b, score_b) in zip(got, expected):
        assert item_a == item_b
        assert abs(score_a - score_b) <= TOLERANCE


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------


def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payload = {"method": "recommend", "params": {"users": ["a", "b"], "n": 3}}
        send_frame(left, payload)
        send_frame(left, {"ok": True})
        assert recv_frame(right) == payload
        assert recv_frame(right) == {"ok": True}
        left.close()
        assert recv_frame(right) is None  # clean EOF at a boundary
    finally:
        right.close()


def test_frame_midstream_eof_is_an_error():
    left, right = socket.socketpair()
    try:
        frame = encode_frame({"ok": True})
        left.sendall(frame[:6])  # header + a torn body
        left.close()
        with pytest.raises(GatewayError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_frame_rejects_absurd_lengths():
    left, right = socket.socketpair()
    try:
        left.sendall((1 << 31).to_bytes(4, "big"))
        with pytest.raises(GatewayError, match="corrupt"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_async_frame_roundtrip():
    async def scenario():
        left, right = socket.socketpair()
        left.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=left)
        send_frame(right, {"version": 4})
        assert await read_frame(reader) == {"version": 4}
        right.close()
        assert await read_frame(reader) is None
        writer.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Catalog + watcher
# ----------------------------------------------------------------------


def test_catalog_publish_and_pointer(tmp_path):
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    assert catalog.current() is None
    catalog.publish(registry.current())
    version, path = catalog.current()
    assert version == 1
    assert path.is_dir()
    with pytest.raises(ServingError, match="monotone"):
        catalog.publish(registry.current(), version=1)


def test_catalog_attach_mirrors_updates(tmp_path):
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    assert catalog.current()[0] == 1
    registry.update(_update_batch())
    assert catalog.current()[0] == 2
    assert catalog.versions() == [1, 2]
    catalog.detach()
    registry.update(_update_batch(10))
    assert catalog.current()[0] == 2  # detached: no longer mirrored


def test_catalog_prunes_behind_keep_last(tmp_path):
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog", keep_last=2)
    catalog.attach(registry)
    registry.update(_update_batch())
    registry.update(_update_batch(10))
    assert catalog.versions() == [2, 3]
    assert catalog.current()[0] == 3


def _metric(name: str) -> dict:
    return get_registry().snapshot().get(name, {}).get("samples", {})


def test_catalog_publish_observes_each_stage_once(tmp_path):
    registry = _registry(_table())
    for keep_last in (None, 1):
        catalog = SnapshotCatalog(tmp_path / f"catalog-{keep_last}",
                                  keep_last=keep_last)
        before = _metric("catalog_publish_stage_seconds")
        catalog.publish(registry.current(), version=1)
        catalog.publish(registry.current(), version=2)
        after = _metric("catalog_publish_stage_seconds")
        assert {key: cell["count"] - before.get(key, {"count": 0})["count"]
                for key, cell in after.items()} \
            == {'["save"]': 2, '["pointer"]': 2, '["prune"]': 2}
        assert after['["save"]']["sum"] > before.get('["save"]', {"sum": 0.0})["sum"]


def test_failed_prune_is_counted_and_publishing_goes_on(tmp_path):
    """A prune that fails leaves the retired version on disk, counts it
    in ``catalog_prune_failures_total`` and still moves the pointer;
    the next publish retries it."""
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog", keep_last=1)
    counter = get_registry().counter("catalog_prune_failures_total")
    catalog.publish(registry.current(), version=1)
    before = counter.value
    plan = FaultPlan(rules=[FaultRule("catalog.prune", "error", times=1)])
    with injected_faults(plan):
        catalog.publish(registry.current(), version=2)
        assert counter.value == before + 1
        assert catalog.current()[0] == 2
        assert catalog.versions() == [1, 2]
        catalog.publish(registry.current(), version=3)
    assert counter.value == before + 1
    assert catalog.current()[0] == 3
    assert catalog.versions() == [3]
    assert RegistryWatcher(tmp_path / "catalog").poll() == 3


def test_watcher_follows_catalog_and_agrees_on_versions(tmp_path):
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    watcher = RegistryWatcher(tmp_path / "catalog")
    assert watcher.poll() == 1
    assert watcher.poll() is None  # unchanged source: no reload
    registry.update(_update_batch())
    assert watcher.poll() == 2
    # A restarted watcher that never saw version 1 still lands on the
    # same number for the same bytes — the fleet-wide agreement the
    # version handshake relies on.
    late = RegistryWatcher(tmp_path / "catalog")
    assert late.poll() == 2
    service = RecommendationService(watcher.registry)
    reference = RecommendationService(registry)
    version, results = service.recommend_batch_pinned(["u001", "u004"], 5)
    ref_version, expected = reference.recommend_batch_pinned(["u001", "u004"], 5)
    assert version == ref_version == 2
    for got, want in zip(results, expected):
        _assert_close(got, want)


def test_watcher_follows_single_snapshot_dir(tmp_path):
    registry = _registry(_table())
    snapshot_dir = tmp_path / "snap"
    registry.current().save(snapshot_dir)
    watcher = RegistryWatcher(snapshot_dir)
    assert watcher.poll() == 1
    assert watcher.poll() is None
    registry.update(_update_batch())
    time.sleep(0.01)  # distinct manifest mtime_ns
    registry.current().save(snapshot_dir, overwrite=True)
    assert watcher.poll() == 2


def test_watcher_counts_a_pointer_it_cannot_follow(tmp_path):
    """``CURRENT.json`` is outside input too: one that parses but lacks
    ``path`` is a counted refusal, not a ``KeyError`` out of ``poll``."""
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    watcher = RegistryWatcher(tmp_path / "catalog")
    assert watcher.poll() == 1
    pointer_path = tmp_path / "catalog" / "CURRENT.json"
    good = pointer_path.read_text(encoding="utf-8")
    pointer = json.loads(good)
    del pointer["path"]
    pointer_path.write_text(json.dumps(pointer), encoding="utf-8")
    assert watcher.poll() is None
    assert (watcher.version, watcher.n_loads, watcher.n_load_failures) == (1, 1, 1)
    pointer_path.write_text(good, encoding="utf-8")
    registry.update(_update_batch())
    assert watcher.poll() == 2 and watcher.n_load_failures == 1


# ----------------------------------------------------------------------
# Worker request handling (in-process)
# ----------------------------------------------------------------------


def _worker_app(tmp_path, metrics=None) -> tuple[WorkerApp, ModelRegistry]:
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    watcher = RegistryWatcher(tmp_path / "catalog")
    wait_for_model(watcher, timeout=5.0)
    return WorkerApp(watcher, RecommendationService(watcher.registry),
                     registry=metrics), registry


def test_worker_app_recommend_matches_reference(tmp_path):
    app, registry = _worker_app(tmp_path)
    response = app.handle({"method": "recommend",
                           "params": {"users": ["u001"], "n": 4}})
    assert response["ok"] and response["version"] == 1
    _, expected = RecommendationService(registry).recommend_batch_pinned(["u001"], 4)
    _assert_close([tuple(pair) for pair in response["results"][0]], expected[0])


def test_worker_health_frame_reports_layout_builds(tmp_path):
    """The stall the first scoring pass after a reload pays is on the
    health frame (and so on /metrics), exported on scrape."""
    from repro.obs.metrics import MetricsRegistry

    app, registry = _worker_app(tmp_path, metrics=MetricsRegistry())

    def layout_counters():
        metrics = app.handle({"method": "health"})["metrics"]
        return tuple(
            metrics[name]["samples"]["[]"] for name in (
                "service_layout_builds_total",
                "service_layout_build_seconds_total"))

    assert layout_counters() == (0, 0)
    recommend = {"method": "recommend", "params": {"users": ["u001"], "n": 4}}
    assert app.handle(recommend)["ok"]
    builds, seconds = layout_counters()
    assert builds == 1 and seconds > 0.0
    recommend["params"]["users"] = ["u002"]  # a response miss, the same version
    assert app.handle(recommend)["ok"]
    assert layout_counters() == (1, seconds)
    registry.update(_update_batch())
    recommend["params"]["min_version"] = 2
    assert app.handle(recommend)["version"] == 2
    rebuilt, total = layout_counters()
    assert rebuilt == 2 and total > seconds


def test_worker_app_converges_on_demand_for_min_version(tmp_path):
    app, registry = _worker_app(tmp_path)
    registry.update(_update_batch())
    # The worker has not idle-polled, but the handshake demands v2:
    # it must converge within this one request.
    response = app.handle({"method": "recommend",
                           "params": {"users": ["u001"], "n": 4, "min_version": 2}})
    assert response["ok"] and response["version"] == 2


def test_worker_app_reports_unreachable_version_as_retryable(tmp_path):
    app, _ = _worker_app(tmp_path)
    response = app.handle({"method": "recommend",
                           "params": {"users": ["u001"], "n": 4, "min_version": 99}})
    assert not response["ok"]
    error = response["error"]
    assert error["type"] == "stale" and error["retryable"]
    assert error["version"] == 1 and error["min_version"] == 99


def test_worker_app_rejects_bad_requests_cleanly(tmp_path):
    app, _ = _worker_app(tmp_path)
    bad_users = app.handle({"method": "recommend", "params": {}})
    assert not bad_users["ok"] and not bad_users["error"]["retryable"]
    # A direct pool.call cannot get a negative slice out of the worker
    # either: n / k below 1 are refused, not computed.
    for method, params in (
            ("recommend", {"users": ["u001"], "n": -3}),
            ("recommend", {"users": ["u001"], "n": 0}),
            ("similar_items", {"item": "i000", "k": 0})):
        refused = app.handle({"method": method, "params": params})
        assert not refused["ok"] and not refused["error"]["retryable"]
        assert "must be >= 1" in refused["error"]["message"]
    unknown = app.handle({"method": "frobnicate"})
    assert not unknown["ok"]
    assert unknown["error"]["type"] == "unknown_method"
    assert app.handle({"method": "shutdown"}) is None


def test_worker_serve_loop_survives_a_publish_it_cannot_load(tmp_path):
    """A version whose manifest is valid JSON but lacks a key is a
    counted refusal: the frame loop keeps answering from the previous
    version and converges on the next good publish. (As a ``KeyError``
    it left ``serve`` — and the respawned worker died on the same file.)"""
    app, _ = _worker_app(tmp_path)
    catalog_root = tmp_path / "catalog"
    bad = ModelSnapshot.load(catalog_root / "v-00000001").save(
        catalog_root / "v-00000002")
    manifest = json.loads((bad / "MANIFEST.json").read_text(encoding="utf-8"))
    del manifest["arrays"]
    (bad / "MANIFEST.json").write_text(json.dumps(manifest), encoding="utf-8")
    pointer_path = catalog_root / "CURRENT.json"
    pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
    pointer.update(version=2, path=bad.name)
    pointer_path.write_text(json.dumps(pointer), encoding="utf-8")

    ours, theirs = socket.socketpair()
    ours.settimeout(10.0)
    loop = threading.Thread(target=serve, args=(theirs, app, 0.01), daemon=True)
    loop.start()

    def health() -> dict:
        send_frame(ours, {"method": "health"})
        return recv_frame(ours)

    try:
        deadline = time.monotonic() + 10.0
        while health()["n_load_failures"] == 0:
            assert loop.is_alive() and time.monotonic() < deadline
            time.sleep(0.02)
        refused = health()
        assert refused["version"] == 1 and refused["n_loads"] == 1
        send_frame(ours, {"method": "recommend", "params": {"users": ["u001"], "n": 4}})
        assert recv_frame(ours)["version"] == 1

        SnapshotCatalog(catalog_root).publish(
            ModelSnapshot.load(catalog_root / "v-00000001"), version=3)
        while health()["version"] != 3:
            assert loop.is_alive() and time.monotonic() < deadline
            time.sleep(0.02)
        assert health()["n_loads"] == 2
    finally:
        send_frame(ours, {"method": "shutdown"})
        loop.join(timeout=5.0)
        ours.close()
        theirs.close()
    assert not loop.is_alive()


def test_pinned_entry_points_refuse_and_version_scope(tiny_table):
    registry = ModelRegistry(sweep=IncrementalSweep(tiny_table), cf_k=5)
    service = RecommendationService(registry)
    version, _ = service.recommend_batch_pinned(["u1"], 2)
    assert version == 1
    with pytest.raises(StaleModelError):
        service.recommend_batch_pinned(["u1"], 2, min_version=2)
    with pytest.raises(StaleModelError):
        service.similar_items_pinned("a", 2, min_version=2)
    sim_version, row = service.similar_items_pinned("a", 2)
    assert sim_version == 1
    assert row == service.similar_items("a", 2)


# ----------------------------------------------------------------------
# Natural batching: the coalescer against a stub pool (no subprocess,
# no sleeps — every wait is for a counted event, bounded by wait_for)
# ----------------------------------------------------------------------

_BOUND = 5.0  # seconds; a lost wake-up fails the test instead of hanging it


class _HeldFrame:
    def __init__(self, users: list[str], n: int) -> None:
        self.users = users
        self.n = n
        self.gate = asyncio.Event()
        self.error: Exception | None = None

    def release(self, error: Exception | None = None) -> None:
        self.error = error
        self.gate.set()


class _HeldPool:
    """A two-worker pool whose every ``call`` parks until the test
    releases it, and which checks the coalescer's invariant on both
    edges of every frame."""

    n_workers = 2
    n_alive = 2  # a test stands in for a death by lowering it
    call_timeout = 5.0

    def __init__(self) -> None:
        self.frames: list[_HeldFrame] = []
        self.batcher = None
        self._bell = asyncio.Event()

    def _check_invariant(self) -> None:
        batcher = self.batcher
        assert batcher.n_in_flight <= self.n_workers
        if batcher.n_pending:
            assert batcher.n_in_flight >= max(1, self.n_alive)

    async def call(self, method, params=None, timeout=None, trace=None):
        assert method == "recommend"
        frame = _HeldFrame(list(params["users"]), params["n"])
        assert 1 <= len(frame.users) <= self.batcher.max_batch
        self._check_invariant()
        self.frames.append(frame)
        self._bell.set()
        await frame.gate.wait()
        self._check_invariant()
        if frame.error is not None:
            raise frame.error
        return {"ok": True, "version": 7,
                "results": [[[f"for-{user}", float(frame.n)]] for user in frame.users]}

    def stats(self) -> dict:
        return {"n_workers": self.n_workers, "alive": self.n_workers,
                "fleet_version": 7}

    def worker_details(self) -> list:
        return []

    async def arrived(self, count: int) -> None:
        """Until *count* frames have reached the pool (bounded)."""
        async def wait() -> None:
            while len(self.frames) < count:
                self._bell.clear()
                await self._bell.wait()

        await asyncio.wait_for(wait(), _BOUND)


def _held_batcher(max_batch: int = 32):
    pool = _HeldPool()
    server = GatewayServer(pool, max_batch=max_batch)
    pool.batcher = server.batcher
    return pool, server


def _submit_all(batcher, users, n: int = 5) -> list[asyncio.Task]:
    return [asyncio.ensure_future(batcher.submit(user, n)) for user in users]


async def _pending_reaches(batcher, count: int) -> None:
    while batcher.n_pending < count:
        await asyncio.sleep(0)  # a bare yield: lets the submit tasks start


async def _results(tasks) -> list:
    return await asyncio.wait_for(asyncio.gather(*tasks), _BOUND)


def test_batcher_sends_at_once_while_idle_and_batches_while_all_busy():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        first = _submit_all(batcher, ["a", "b"])
        late = _submit_all(batcher, ["c", "d", "e", "f"])
        await pool.arrived(2)
        # Two idle workers: two single-user frames, nobody waited for
        # the other; everyone behind them waits for a worker, not a timer.
        assert [frame.users for frame in pool.frames] == [["a"], ["b"]]
        assert (batcher.n_in_flight, batcher.n_pending) == (2, 4)
        status, health, _ = await server._route("GET", "/healthz", b"")
        assert health["batch"]["pending"] == 4
        assert health["batch"]["in_flight"] == 2
        _, text, _ = await server._route("GET", "/metrics", b"")
        assert _parse_prom(text)["gateway_coalescer_pending"] == 4

        pool.frames[0].release()
        await pool.arrived(3)
        # One worker came back: the whole queue leaves as ONE frame.
        assert pool.frames[2].users == ["c", "d", "e", "f"]
        assert (batcher.n_in_flight, batcher.n_pending) == (2, 0)
        pool.frames[1].release()
        pool.frames[2].release()
        answers = await _results(first + late)
        assert answers == [(7, [[f"for-{user}", 5.0]], False) for user in "abcdef"]
        assert (batcher.n_flushes, batcher.n_coalesced) == (3, 6)
        assert (batcher.n_in_flight, batcher.n_pending) == (0, 0)
        # The wait is visible: six observations, and only the four
        # that found both workers busy can have waited at all.
        _, text, _ = await server._route("GET", "/metrics", b"")
        samples = _parse_prom(text)
        assert samples["gateway_coalesce_wait_seconds_count"] == 6
        assert samples["gateway_coalescer_pending"] == 0

    _run(scenario())


def test_batcher_max_batch_splits_an_overfull_queue():
    async def scenario():
        pool, server = _held_batcher(max_batch=3)
        users = [f"u{i}" for i in range(9)]
        tasks = _submit_all(server.batcher, users)
        await pool.arrived(2)
        expected = [["u0"], ["u1"], ["u2", "u3", "u4"], ["u5", "u6", "u7"], ["u8"]]
        for index in range(len(expected)):
            await pool.arrived(index + 1)
            pool.frames[index].release()
        answers = await _results(tasks)
        assert [frame.users for frame in pool.frames] == expected
        assert [answer[1][0][0] for answer in answers] == [f"for-{u}" for u in users]

    _run(scenario())


def test_batcher_never_mixes_n_in_one_frame():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        holders = _submit_all(batcher, ["h1", "h2"])
        await pool.arrived(2)
        mixed = [asyncio.ensure_future(batcher.submit(user, n))
                 for user, n in (("a", 5), ("b", 3), ("c", 5), ("d", 3))]
        pool.frames[0].release()
        await pool.arrived(3)
        # The oldest waiter's n picks the shape; the other n keeps its
        # place in line for the next free worker.
        assert (pool.frames[2].users, pool.frames[2].n) == (["a", "c"], 5)
        assert batcher.n_pending == 2
        pool.frames[1].release()
        await pool.arrived(4)
        assert (pool.frames[3].users, pool.frames[3].n) == (["b", "d"], 3)
        pool.frames[2].release()
        pool.frames[3].release()
        answers = await _results(holders + mixed)
        assert [answer[1][0][1] for answer in answers[2:]] == [5.0, 3.0, 5.0, 3.0]

    _run(scenario())


def test_batcher_failed_frame_fails_its_members_and_frees_the_slot():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        holders = _submit_all(batcher, ["h1", "h2"])
        await pool.arrived(2)
        doomed = _submit_all(batcher, ["a", "b", "c"])
        pool.frames[0].release()
        await pool.arrived(3)
        survivors = _submit_all(batcher, ["x", "y"])
        pool.frames[2].release(GatewayError("worker 3 died mid-request"))
        # No lost wake-up: the failed frame's slot goes to the queue.
        await pool.arrived(4)
        assert pool.frames[3].users == ["x", "y"]
        for task in doomed:
            with pytest.raises(GatewayError, match="died mid-request"):
                await asyncio.wait_for(task, _BOUND)
        pool.frames[1].release()
        pool.frames[3].release()
        answers = await _results(holders + survivors)
        assert [answer[1][0][0] for answer in answers] == [
            "for-h1", "for-h2", "for-x", "for-y"]
        assert (batcher.n_in_flight, batcher.n_pending) == (0, 0)

    _run(scenario())


def test_batcher_survives_members_whose_client_went_away():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        holders = _submit_all(batcher, ["h1", "h2"])
        await pool.arrived(2)
        waiting = _submit_all(batcher, ["a", "gone", "b"])
        await asyncio.wait_for(_pending_reaches(batcher, 3), _BOUND)
        # One client leaves while queued, one (h2) while its frame is out.
        waiting[1].cancel()
        holders[1].cancel()
        pool.frames[0].release()
        await pool.arrived(3)
        assert pool.frames[2].users == ["a", "b"]
        pool.frames[1].release()
        pool.frames[2].release()
        answers = await _results([holders[0], waiting[0], waiting[2]])
        assert [answer[1][0][0] for answer in answers] == ["for-h1", "for-a", "for-b"]
        assert waiting[1].cancelled() and holders[1].cancelled()
        # A queue of nothing but departed clients sends no frame at all.
        third = _submit_all(batcher, ["k1", "k2"])
        await pool.arrived(5)
        ghosts = _submit_all(batcher, ["g1", "g2"])
        await asyncio.wait_for(_pending_reaches(batcher, 2), _BOUND)
        for task in ghosts:
            task.cancel()
        pool.frames[3].release()
        pool.frames[4].release()
        await _results(third)
        assert len(pool.frames) == 5
        assert (batcher.n_in_flight, batcher.n_pending) == (0, 0)

    _run(scenario())


def test_batcher_counts_live_workers_not_slots():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        pool.n_alive = 1  # the other slot is dead or restarting
        tasks = _submit_all(batcher, ["a", "b", "c"])
        await pool.arrived(1)
        await asyncio.wait_for(_pending_reaches(batcher, 2), _BOUND)
        # One live worker, one frame: b does not leave as a frame of
        # one to wait in the pool's checkout — it waits here, with c.
        assert [frame.users for frame in pool.frames] == [["a"]]
        assert (batcher.n_in_flight, batcher.n_pending) == (1, 2)
        pool.frames[0].release()
        await pool.arrived(2)
        assert pool.frames[1].users == ["b", "c"]
        # The replacement is up: the very next submit finds it.
        pool.n_alive = 2
        tasks += _submit_all(batcher, ["d"])
        await pool.arrived(3)
        assert pool.frames[2].users == ["d"]
        assert (batcher.n_in_flight, batcher.n_pending) == (2, 0)
        pool.frames[1].release()
        pool.frames[2].release()
        answers = await _results(tasks)
        assert [answer[1][0][0] for answer in answers] == [
            "for-a", "for-b", "for-c", "for-d"]
        # Nobody alive: one frame at a time still leaves, so callers
        # fail by the pool's deadline instead of parking in the queue.
        pool.n_alive = 0
        orphans = _submit_all(batcher, ["x", "y"])
        for index, user in ((3, "x"), (4, "y")):
            await pool.arrived(index + 1)
            assert pool.frames[index].users == [user]
            pool.frames[index].release(
                GatewayError("no live worker became available within 5.0s"))
        for task in orphans:
            with pytest.raises(GatewayError, match="no live worker"):
                await asyncio.wait_for(task, _BOUND)
        assert (batcher.n_in_flight, batcher.n_pending) == (0, 0)

    _run(scenario())


def test_batcher_close_resolves_every_future_exactly_once():
    async def scenario():
        pool, server = _held_batcher()
        batcher = server.batcher
        tasks = _submit_all(batcher, ["a", "b", "c", "d"])
        await pool.arrived(2)
        assert (batcher.n_in_flight, batcher.n_pending) == (2, 2)
        await asyncio.wait_for(batcher.close(), _BOUND)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), _BOUND)
        assert all(isinstance(outcome, GatewayError) for outcome in outcomes)
        assert len(pool.frames) == 2  # the queue was failed, not sent
        assert (batcher.n_in_flight, batcher.n_pending) == (0, 0)

    _run(scenario())


# ----------------------------------------------------------------------
# Full stack over real worker subprocesses
# ----------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


def _http_get(port: int, target: str) -> dict:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, (response.status, body)
        return json.loads(body)
    finally:
        conn.close()


def _send_get(port: int, target: str) -> socket.socket:
    """Connect and put one GET on the wire without waiting for any of
    it to be read."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.sendall(
        f"GET {target} HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\r\n"
        .encode("latin-1"))
    return sock


def _read_json_response(sock: socket.socket) -> dict:
    import http.client

    try:
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
        assert response.status == 200, (response.status, body)
        return json.loads(body)
    finally:
        sock.close()


@pytest.fixture()
def published_catalog(tmp_path):
    registry = _registry(_table())
    catalog = SnapshotCatalog(tmp_path / "catalog")
    catalog.attach(registry)
    return tmp_path / "catalog", registry


@pytest.mark.slow
def test_gateway_serves_and_converges_across_publishes(published_catalog):
    source, registry = published_catalog
    reference = RecommendationService(registry)

    async def scenario():
        pool = WorkerPool(source, n_workers=2, call_timeout=30, poll_interval=0.05)
        await pool.start()
        server = GatewayServer(pool)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            users = [f"u{i:03d}" for i in range(12)]
            # Concurrent by construction: all 12 connections are opened
            # and written before the event loop gets to look (nothing
            # is awaited in between — the listener's backlog completes
            # each handshake in the kernel), so the fleet meets the
            # whole burst at once rather than one client thread at a
            # time, which this 40-user model outruns.
            burst = [_send_get(server.port, f"/recommend?user={user}&n=5")
                     for user in users]
            payloads = await asyncio.gather(*[
                loop.run_in_executor(None, _read_json_response, sock)
                for sock in burst])
            for user, payload in zip(users, payloads):
                assert payload["version"] == 1
                _, expected = reference.recommend_batch_pinned([user], 5)
                _assert_close(
                    [tuple(p) for p in payload["recommendations"]],
                    expected[0])
            # Coalescing really happened: the requests that found both
            # workers busy left together, so 12 concurrent requests
            # made strictly fewer worker frames than requests.
            assert server.batcher.n_coalesced == 12
            assert server.batcher.n_flushes < 12

            registry.update(_update_batch())
            await pool.call("poll")  # one worker learns of v2 ...
            payload = await loop.run_in_executor(
                None, _http_get, server.port, "/recommend?user=u001&n=5")
            # ... and the handshake drags every later response to >= 2,
            # whichever worker serves it.
            assert payload["version"] == 2
            _, expected = reference.recommend_batch_pinned(["u001"], 5)
            _assert_close([tuple(p) for p in payload["recommendations"]], expected[0])

            similar = await loop.run_in_executor(
                None, _http_get, server.port,
                "/similar_items?item=i000&k=3")
            assert similar["version"] >= 2
            health = await loop.run_in_executor(
                None, _http_get, server.port, "/healthz")
            assert health["status"] == "ok"
            assert health["workers"]["alive"] == 2
        finally:
            await server.close()
            await pool.close()

    _run(scenario())


@pytest.mark.slow
@pytest.mark.crash
def test_supervisor_retries_and_restarts_after_midflight_kill(published_catalog):
    """A worker SIGKILLed mid-request (a one-rule fault plan) must cost at
    most a retry — callers still get correct answers, nothing hangs —
    and the supervisor restores the fleet to full strength."""
    source, registry = published_catalog
    reference = RecommendationService(registry)

    async def scenario():
        pool = WorkerPool(
            source, n_workers=2, call_timeout=30, poll_interval=0.05,
            # Die on the 3rd request a worker handles. Each worker's
            # readiness health check is its 1st, so the fleet survives
            # startup and a death lands mid-traffic; restarted workers
            # inherit the env and die again, exercising repeated
            # restarts.
            worker_env=FaultPlan(rules=[FaultRule(
                "gateway.worker.request", "kill", after=3, times=1)]).to_env())
        await pool.start()
        try:
            for round_number in range(6):
                response = await pool.call(
                    "recommend", {"users": ["u001", "u002"], "n": 4})
                assert response["ok"]
                _, expected = reference.recommend_batch_pinned(["u001", "u002"], 4)
                for got, want in zip(response["results"], expected):
                    _assert_close([tuple(p) for p in got], want)
            assert pool.n_restarts >= 1
            deadline = time.monotonic() + 20
            while (len(pool.alive_workers()) < 2 and time.monotonic() < deadline):
                await asyncio.sleep(0.1)
            assert len(pool.alive_workers()) == 2
        finally:
            await pool.close()

    _run(scenario())


@pytest.mark.slow
@pytest.mark.crash
def test_idle_worker_kill_is_replaced(published_catalog):
    source, _ = published_catalog

    async def scenario():
        pool = WorkerPool(source, n_workers=2, call_timeout=30, poll_interval=0.05)
        await pool.start()
        try:
            victim = pool.alive_workers()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                alive = pool.alive_workers()
                if len(alive) == 2 and victim not in alive:
                    break
                await asyncio.sleep(0.1)
            alive = pool.alive_workers()
            assert len(alive) == 2 and victim not in alive
            assert pool.n_restarts == 1
            response = await pool.call("recommend", {"users": ["u001"], "n": 3})
            assert response["ok"]
        finally:
            await pool.close()

    _run(scenario())


# ----------------------------------------------------------------------
# Observability surface: X-Request-Id, /metrics, health detail
# ----------------------------------------------------------------------


def _http_get_raw(
    port: int, target: str, headers: dict | None = None
) -> tuple[int, dict, bytes]:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", target, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def _parse_prom(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


@pytest.mark.slow
def test_gateway_request_ids_and_metrics(published_catalog):
    source, _ = published_catalog

    async def scenario():
        pool = WorkerPool(source, n_workers=1, call_timeout=30, poll_interval=0.05)
        await pool.start()
        server = GatewayServer(pool)
        await server.start()
        loop = asyncio.get_running_loop()

        def get(target, headers=None):
            return _http_get_raw(server.port, target, headers)

        try:
            # A fresh request is assigned a trace id and gets it back.
            status, headers, _ = await loop.run_in_executor(
                None, get, "/recommend?user=u001&n=4")
            assert status == 200
            minted = headers["X-Request-Id"]
            assert len(minted) == 16
            assert all(ch in "0123456789abcdef" for ch in minted)

            # A well-formed incoming id is honoured verbatim ...
            status, headers, _ = await loop.run_in_executor(
                None, get, "/recommend?user=u002&n=4",
                {"X-Request-Id": "client-id-42"})
            assert status == 200
            assert headers["X-Request-Id"] == "client-id-42"

            # ... a malformed one is replaced, not echoed.
            status, headers, _ = await loop.run_in_executor(
                None, get, "/recommend?user=u003&n=4",
                {"X-Request-Id": "spaces are not ok"})
            assert status == 200
            assert headers["X-Request-Id"] != "spaces are not ok"

            # Error responses are correlatable too.
            status, headers, _ = await loop.run_in_executor(None, get, "/nope")
            assert status == 404
            assert headers["X-Request-Id"]

            # Health detail: uptime plus per-worker last-served clocks.
            status, _, body = await loop.run_in_executor(None, get, "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["uptime_s"] >= 0.0
            assert health["fleet"]
            for worker in health["fleet"]:
                assert "last_served_monotonic" in worker
                # the readiness health check already served this worker
                assert worker["last_served_monotonic"] > 0.0

            # /metrics: Prometheus text merging gateway + pool + workers.
            status, headers, body = await loop.run_in_executor(None, get, "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            text = body.decode("utf-8")
            samples = _parse_prom(text)

            # Conservation: every parsed request was answered, except
            # the /metrics scrape itself (in flight while the snapshot
            # was taken: counted at ingress, response not yet written).
            responses = sum(
                value for key, value in samples.items()
                if key.startswith("gateway_http_responses_total{"))
            assert samples["gateway_http_requests_total"] == responses + 1
            assert samples['gateway_http_responses_total{code="200"}'] >= 4
            assert samples['gateway_http_responses_total{code="404"}'] == 1

            # The request-latency histogram agrees with the counters.
            assert samples["gateway_request_seconds_count"] == responses

            # Worker-side metrics crossed the process boundary (health
            # frames), including the service cache bridged on export.
            assert samples["worker_requests_total{method=\"recommend\"}"] >= 3
            assert samples["gateway_fleet_version"] == 1
            assert samples["worker_version"] == 1
            assert "service_requests_total" in samples
        finally:
            await server.close()
            await pool.close()

    _run(scenario())
