"""The worker fleet supervisor: spawn, route, retry, restart — hardened.

The :class:`WorkerPool` owns N worker **slots**. Each slot runs a
sequence of worker subprocesses — a fresh interpreter (no fork)
connected over a ``socketpair`` inherited as a file descriptor, so
worker death is observable as plain EOF on the pair — governed by its
own :class:`CircuitBreaker`:

* every death or failed spawn raises the slot's consecutive-failure
  count, and the next respawn waits an **exponential backoff with
  jitter** (a bad snapshot source throttles to the backoff cap instead
  of crash-looping the host at full speed);
* at ``breaker_threshold`` consecutive failures the breaker **trips
  open**: the slot is quarantined for the backoff delay, then spawns a
  single **half-open probe**. The probe joins the rotation; its first
  successfully served request closes the breaker, its first failure
  re-opens it with a doubled delay;
* a worker that either serves a request or survives
  ``healthy_lifetime`` seconds resets the count — deaths of long-lived
  workers are ordinary churn, not a failure streak.

Routing is checkout-based: one request occupies one worker at a time,
and a worker returns to the idle queue the moment its response
arrives. Per request the pool now enforces a **deadline budget**: the
whole retry loop — checkout waits, attempts, stale backoffs — runs
against one deadline, and every dispatched frame carries the remaining
budget as ``budget_ms`` so a worker can refuse dead work instead of
computing an answer nobody is waiting for.

Two optional read-side behaviours (reads are idempotent, which is what
makes both safe):

* **hedged reads** (``hedge_delay``): when an in-flight read has not
  answered within the threshold and a sibling is idle, the frame is
  duplicated to the sibling and the first answer wins — a stuck or
  slow worker costs one hedge, not a timeout. The loser finishes in
  the background and re-enters rotation.
* **bounded-staleness degradation** (``allow_stale``): when the fresh
  retry loop cannot satisfy the fleet's ``min_version`` floor within
  the deadline (every worker behind, source unreadable), a reserved
  slice of the budget re-issues the read with ``allow_stale`` and the
  response is served from the freshest version a worker holds, tagged
  ``stale: true`` — an explicit, bounded-staleness answer instead of a
  failure.

The pool still carries the fleet-wide version handshake: every
successful response advances :attr:`fleet_version`, every read is
stamped with it as ``min_version``, and only non-stale responses are
promised monotone — the ``stale`` marker is exactly the flag that says
"this one stepped outside the floor, deliberately".
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import subprocess
import sys
from pathlib import Path

from repro.errors import GatewayError
from repro.faults.plan import SPAWN_SEQ_ENV
from repro.gateway.protocol import read_frame, write_frame
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import TraceContext, event

DEFAULT_CALL_TIMEOUT = 30.0
DEFAULT_STALE_BACKOFF = 0.05
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 5.0
DEFAULT_HEALTHY_LIFETIME = 10.0

#: the idempotent read methods — the only ones stamped with the
#: version floor, hedged, or served stale.
READ_METHODS = ("recommend", "similar_items")


def _worker_pythonpath() -> str:
    """A PYTHONPATH under which ``import repro`` resolves to the same
    package the supervisor is running."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if not existing:
        return package_root
    if package_root in existing.split(os.pathsep):
        return existing
    return package_root + os.pathsep + existing


class CircuitBreaker:
    """Consecutive-failure circuit breaker + respawn backoff for one
    worker slot.

    States: ``closed`` (normal), ``open`` (quarantined — respawn waits
    out :meth:`next_delay`), ``half_open`` (a probe worker is in
    rotation; the next outcome decides). The backoff delay is
    exponential in the consecutive-failure count with equal jitter
    (uniform in [ceiling/2, ceiling]), capped at ``max_delay`` — the
    jitter keeps a fleet of slots from thundering back in lockstep,
    the floor keeps a crash loop genuinely rate-limited.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        base_delay: float = DEFAULT_BACKOFF_BASE,
        max_delay: float = DEFAULT_BACKOFF_CAP,
        rng: random.Random | None = None,
        on_transition=None,
    ) -> None:
        if threshold < 1:
            raise GatewayError(f"threshold must be >= 1, got {threshold}")
        if base_delay <= 0 or max_delay < base_delay:
            raise GatewayError(
                f"need 0 < base_delay <= max_delay, got "
                f"{base_delay}/{max_delay}"
            )
        self.threshold = threshold
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.rng = rng if rng is not None else random.Random()
        self.state = "closed"
        self.consecutive_failures = 0
        self.n_trips = 0
        #: optional ``callback(old_state, new_state)`` fired on every
        #: state change — the pool counts transitions through it.
        self.on_transition = on_transition

    def _transition(self, state: str) -> None:
        if state != self.state:
            old, self.state = self.state, state
            if self.on_transition is not None:
                self.on_transition(old, state)

    def record_failure(self) -> None:
        """One more consecutive failure; trips the breaker at the
        threshold (immediately when the half-open probe failed)."""
        self.consecutive_failures += 1
        if (self.state == "half_open" or self.consecutive_failures >= self.threshold):
            if self.state != "open":
                self.n_trips += 1
            self._transition("open")

    def record_success(self) -> None:
        """A worker served: close the breaker, reset the streak."""
        self.consecutive_failures = 0
        self._transition("closed")

    def on_probe(self) -> None:
        """A replacement came up while open: it is the half-open probe."""
        if self.state == "open":
            self._transition("half_open")

    def next_delay(self) -> float:
        """Seconds to wait before the next spawn attempt (0 on a clean
        streak)."""
        if self.consecutive_failures <= 0:
            return 0.0
        ceiling = min(
            self.max_delay,
            self.base_delay * (2 ** (self.consecutive_failures - 1)),
        )
        return self.rng.uniform(ceiling / 2, ceiling)


class WorkerHandle:
    """One live worker subprocess and its frame stream."""

    def __init__(
        self,
        worker_id: int,
        proc: subprocess.Popen,
        sock: socket.socket,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        slot: "WorkerSlot | None" = None,
    ) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.sock = sock
        self.reader = reader
        self.writer = writer
        self.slot = slot
        self.alive = True
        self.n_calls = 0
        self.version = 0
        self.spawned_at = 0.0
        #: event-loop clock of the last OK response — what lets
        #: /healthz tell a hung-but-alive worker from an idle one.
        self.last_served_monotonic = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def call(self, payload: dict, timeout: float) -> dict:
        """One request/response round trip. Any failure mode —
        timeout, EOF, torn frame — is surfaced as
        :class:`~repro.errors.GatewayError` after the worker has been
        killed, so the caller only ever retries against a dead
        (restarting) worker, never a desynchronised one."""
        self.n_calls += 1
        try:
            write_frame(self.writer, payload)
            await self.writer.drain()
            async with asyncio.timeout(timeout):
                response = await read_frame(self.reader)
        except TimeoutError:
            self.kill()
            raise GatewayError(
                f"worker {self.worker_id} (pid {self.pid}) gave no "
                f"response within {timeout:.1f}s; killed"
            ) from None
        except (ConnectionError, OSError, GatewayError) as exc:
            self.kill()
            raise GatewayError(
                f"worker {self.worker_id} (pid {self.pid}) died "
                f"mid-request: {exc}"
            ) from exc
        except asyncio.CancelledError:
            # The caller is gone mid round trip; the stream now holds
            # (or will hold) a response nobody reads.
            self.kill()
            raise
        if response is None:
            self.kill()
            raise GatewayError(
                f"worker {self.worker_id} (pid {self.pid}) closed its "
                f"stream mid-request"
            )
        return response

    def kill(self) -> None:
        """Tear the worker down (idempotent); its slot loop sees the
        exit and arranges the replacement."""
        self.alive = False
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.writer.close()
        except (OSError, RuntimeError):
            pass


class WorkerSlot:
    """One supervised position in the fleet: a breaker plus whichever
    worker process currently fills it."""

    def __init__(self, slot_id: int, breaker: CircuitBreaker) -> None:
        self.slot_id = slot_id
        self.breaker = breaker
        self.handle: WorkerHandle | None = None
        self.task: asyncio.Task | None = None
        self.n_restarts = 0
        self.n_spawn_failures = 0
        #: the current worker's latest registry snapshot (piggybacked
        #: on health frames) and the merged snapshots of every dead
        #: predecessor — a restart must not zero the slot's history.
        self.latest_metrics: dict | None = None
        self.retired_metrics: dict | None = None

    def live_handle(self) -> WorkerHandle | None:
        handle = self.handle
        if handle is not None and handle.alive and handle.proc.poll() is None:
            return handle
        return None


class WorkerPool:
    """Spawn and supervise N gateway workers over one snapshot source.

    Args:
        watch: the shared snapshot source directory every worker
            watches (a :class:`~repro.serving.watch.SnapshotCatalog`
            root, a durable store, or a single snapshot directory).
        n_workers: fleet size (slot count).
        call_timeout: the default per-request deadline budget — the
            whole retry loop for one request runs against it.
        retries: extra attempts for a request whose worker died or
            answered stale (reads are idempotent, so retrying is safe).
        poll_interval: idle watcher poll period inside each worker.
        load_timeout: per-spawn ceiling for a worker's snapshot load.
        breaker_threshold / backoff_base / backoff_cap /
            healthy_lifetime: the per-slot circuit-breaker knobs (see
            :class:`CircuitBreaker`).
        hedge_delay: duplicate an in-flight read to an idle sibling
            after this many seconds; ``None`` disables hedging.
        allow_stale: when a read cannot meet the fleet's version floor
            within its deadline, serve the freshest available version
            tagged ``stale: true`` instead of failing.
        jitter_seed: seed for the backoff jitter (tests pin it).
        worker_env: extra environment for worker processes (the fault
            harness injects ``REPRO_FAULT_PLAN`` here).
    """

    def __init__(
        self,
        watch: str | Path,
        n_workers: int = 2,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
        retries: int = 2,
        poll_interval: float = 0.2,
        load_timeout: float = 30.0,
        row_cache_size: int = 4096,
        response_cache_size: int = 1024,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        healthy_lifetime: float = DEFAULT_HEALTHY_LIFETIME,
        hedge_delay: float | None = None,
        allow_stale: bool = False,
        jitter_seed: int | None = None,
        worker_env: dict[str, str] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if n_workers < 1:
            raise GatewayError(f"n_workers must be >= 1, got {n_workers}")
        self.watch = Path(watch)
        self.n_workers = n_workers
        self.call_timeout = call_timeout
        self.retries = retries
        self.poll_interval = poll_interval
        self.load_timeout = load_timeout
        self.row_cache_size = row_cache_size
        self.response_cache_size = response_cache_size
        self.breaker_threshold = breaker_threshold
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.healthy_lifetime = healthy_lifetime
        self.hedge_delay = hedge_delay
        self.allow_stale = allow_stale
        self.worker_env = dict(worker_env or {})
        #: highest model version any worker has served — the fleet's
        #: monotonic-read floor.
        self.fleet_version = 0
        #: per-instance for the same reason as the server's: many
        #: pools per test process, each with exact counter assertions.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_restarts = self.registry.counter(
            "gateway_worker_restarts_total", "worker deaths respawned"
        )
        self._m_spawn_failures = self.registry.counter(
            "gateway_worker_spawn_failures_total",
            "spawn attempts that never reached readiness",
        )
        self._m_calls = self.registry.counter(
            "gateway_pool_calls_total", "requests routed through the pool"
        )
        self._m_retries = self.registry.counter(
            "gateway_retries_total",
            "extra attempts after a death or retryable worker error",
        )
        self._m_hedged = self.registry.counter(
            "gateway_hedges_total", "slow reads duplicated to a sibling"
        )
        self._m_hedge_wins = self.registry.counter(
            "gateway_hedge_wins_total", "hedged duplicates that answered first"
        )
        self._m_stale_served = self.registry.counter(
            "gateway_stale_serves_total",
            "reads served below the version floor, tagged stale",
        )
        self._m_breaker = self.registry.counter(
            "gateway_breaker_transitions_total",
            "circuit-breaker state changes, by target state",
            labels=("to",),
        )
        self._m_fleet_version = self.registry.gauge(
            "gateway_fleet_version",
            "highest model version any worker has served",
        )
        self._m_worker_lag = self.registry.gauge(
            "gateway_worker_version_lag",
            "versions behind the fleet floor, per slot (at scrape)",
            labels=("slot",),
        )
        #: every pid this pool ever spawned — the drain gate asserts
        #: all of them are dead after close().
        self.spawned_pids: list[int] = []
        self._rng = random.Random(jitter_seed)
        self._idle: asyncio.Queue[WorkerHandle] = asyncio.Queue()
        self._slots: list[WorkerSlot] = []
        self._next_id = 0
        self._closing = False

    # Legacy counter names — registry-backed views, so stats() and
    # /metrics can never disagree.
    @property
    def n_restarts(self) -> int:
        return int(self._m_restarts.value)

    @property
    def n_spawn_failures(self) -> int:
        return int(self._m_spawn_failures.value)

    @property
    def n_calls(self) -> int:
        return int(self._m_calls.value)

    @property
    def n_hedged(self) -> int:
        return int(self._m_hedged.value)

    @property
    def n_hedge_wins(self) -> int:
        return int(self._m_hedge_wins.value)

    @property
    def n_stale_served(self) -> int:
        return int(self._m_stale_served.value)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self._m_breaker.labels(new).inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start one supervision loop per slot and wait for the fleet.

        Returns once every slot has a ready worker, or — when early
        spawns fail (a worker dying during snapshot load) — as soon as
        the slot loops have had ``load_timeout`` to produce at least
        one; zero ready workers by then tears the pool down and
        raises, so a bad source fails callers fast instead of hanging
        them while the breakers crash-loop politely in the background.
        """
        loop = asyncio.get_running_loop()
        for slot_id in range(self.n_workers):
            slot = WorkerSlot(
                slot_id,
                CircuitBreaker(
                    threshold=self.breaker_threshold,
                    base_delay=self.backoff_base,
                    max_delay=self.backoff_cap,
                    rng=self._rng,
                    on_transition=self._on_breaker_transition,
                ),
            )
            self._slots.append(slot)
            slot.task = asyncio.create_task(self._run_slot(slot))
        deadline = loop.time() + self.load_timeout + self.call_timeout
        while loop.time() < deadline and not self._closing:
            ready = len(self.alive_workers())
            if ready >= self.n_workers:
                return
            if ready > 0 and loop.time() >= deadline - self.call_timeout:
                return  # partial fleet: serve what we have
            await asyncio.sleep(0.02)
        if self.alive_workers():
            return
        await self.close()
        raise GatewayError(
            f"no worker became ready within "
            f"{self.load_timeout + self.call_timeout:.1f}s "
            f"({self.n_spawn_failures} failed spawn attempts)"
        )

    async def _run_slot(self, slot: WorkerSlot) -> None:
        """One slot's whole life: spawn (after any breaker delay), hand
        the worker to the rotation, wait out its death, account for it,
        repeat. Only this loop spawns for its slot, so a death observed
        by both a caller and the loop still yields exactly one
        replacement."""
        loop = asyncio.get_running_loop()
        while not self._closing:
            delay = slot.breaker.next_delay()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._closing:
                return
            try:
                handle = await self._spawn(slot)
            except asyncio.CancelledError:
                raise
            except (GatewayError, OSError):
                slot.n_spawn_failures += 1
                self._m_spawn_failures.inc()
                slot.breaker.record_failure()
                continue
            slot.handle = handle
            slot.breaker.on_probe()
            self._idle.put_nowait(handle)
            await loop.run_in_executor(None, handle.proc.wait)
            handle.alive = False
            try:
                handle.writer.close()
            except (OSError, RuntimeError):
                pass
            if self._closing:
                return
            # The dead worker's counts fold into the slot's history;
            # the fleet-wide merge must survive restarts.
            if slot.latest_metrics is not None:
                slot.retired_metrics = (
                    merge_snapshots(slot.retired_metrics, slot.latest_metrics)
                    if slot.retired_metrics is not None
                    else slot.latest_metrics
                )
                slot.latest_metrics = None
            slot.n_restarts += 1
            self._m_restarts.inc()
            if loop.time() - handle.spawned_at >= self.healthy_lifetime:
                # A long-lived worker dying is churn, not a streak.
                slot.breaker.record_success()
            slot.breaker.record_failure()

    async def _spawn(self, slot: WorkerSlot) -> WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        parent_sock, child_sock = socket.socketpair()
        argv = [
            sys.executable,
            "-m",
            "repro.gateway.worker",
            "--fd",
            str(child_sock.fileno()),
            "--watch",
            str(self.watch),
            "--poll-interval",
            str(self.poll_interval),
            "--load-timeout",
            str(self.load_timeout),
            "--row-cache-size",
            str(self.row_cache_size),
            "--response-cache-size",
            str(self.response_cache_size),
        ]
        env = dict(os.environ)
        env.update(self.worker_env)
        env["PYTHONPATH"] = _worker_pythonpath()
        # The fleet-wide spawn sequence number: fault-plan rules gate
        # on it ("the first K workers die during load").
        env[SPAWN_SEQ_ENV] = str(worker_id)
        proc = subprocess.Popen(argv, pass_fds=[child_sock.fileno()], env=env)
        self.spawned_pids.append(proc.pid)
        try:
            child_sock.close()
            parent_sock.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=parent_sock)
            handle = WorkerHandle(
                worker_id, proc, parent_sock, reader, writer, slot=slot
            )
            handle.spawned_at = asyncio.get_running_loop().time()
            # The worker only enters its frame loop once its model is
            # loaded, so the first health round trip doubles as
            # readiness.
            response = await handle.call(
                {"method": "health"},
                self.load_timeout + self.call_timeout,
            )
        except BaseException:
            # Covers cancellation too: a spawn interrupted by close()
            # must not leave an orphan process behind.
            if proc.poll() is None:
                proc.kill()
            try:
                # Bounded block on purpose: this path also runs while
                # being cancelled, where scheduling an executor job is
                # no longer reliable, and a SIGKILLed child reaps in
                # milliseconds.
                proc.wait(timeout=5)  # reprolint: disable=REP401
            except (OSError, subprocess.TimeoutExpired):
                pass
            try:
                parent_sock.close()
            except OSError:
                pass
            raise
        self._note_version(response, handle)
        if isinstance(response.get("metrics"), dict):
            slot.latest_metrics = response["metrics"]
        return handle

    async def close(self) -> None:
        """Kill the fleet and stop the slot loops (idempotent)."""
        self._closing = True
        tasks = [slot.task for slot in self._slots if slot.task is not None]
        for task in tasks:
            task.cancel()
        # gather(return_exceptions=True) swallows the tasks' own
        # CancelledError without masking an outer cancellation of
        # close() itself — cancellation is a BaseException on 3.8+ and
        # must never be eaten by a broad except.
        await asyncio.gather(*tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for slot in self._slots:
            slot.task = None
            handle = slot.handle
            if handle is not None:
                handle.kill()
                # Reap off-loop: wait() on a just-SIGKILLed child is
                # quick, but a stuck NFS/core-dump write could stall
                # the event loop mid-drain.
                await loop.run_in_executor(None, handle.proc.wait)
        while not self._idle.empty():
            self._idle.get_nowait()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _checkout(self, timeout: float) -> WorkerHandle:
        handle = self._checkout_nowait()
        if handle is not None:
            return handle  # the unloaded path: no wait, no timer
        # asyncio.timeout, not wait_for: a cancelled wait_for still
        # returns what its inner get() took, and a handle handed to a
        # cancelled hedge checkout is in nobody's hands — a live worker
        # that never re-enters rotation.
        try:
            async with asyncio.timeout(timeout):
                while True:
                    handle = await self._idle.get()
                    if handle.alive and handle.proc.poll() is None:
                        return handle
                    # A corpse left in the queue by a death; skip it —
                    # its slot loop already arranged the replacement.
        except TimeoutError:
            raise GatewayError(
                f"no live worker became available within {timeout:.1f}s"
            ) from None

    def _checkout_nowait(self) -> WorkerHandle | None:
        """An idle live worker right now, or ``None`` (the hedge path
        never waits — a hedge that queues is just more load)."""
        while True:
            try:
                handle = self._idle.get_nowait()
            except asyncio.QueueEmpty:
                return None
            if handle.alive and handle.proc.poll() is None:
                return handle

    def _release(self, handle: WorkerHandle) -> None:
        if handle.alive and handle.proc.poll() is None:
            self._idle.put_nowait(handle)

    def _note_version(self, response: dict, handle: WorkerHandle | None = None) -> None:
        version = response.get("version")
        if isinstance(version, int):
            if handle is not None:
                handle.version = max(handle.version, version)
            if version > self.fleet_version:
                self.fleet_version = version
                self._m_fleet_version.set(version)

    async def _call_one(
        self, handle: WorkerHandle, payload: dict, timeout: float
    ) -> dict:
        """One attempt against one worker; always releases (or buries)
        the handle, feeds the slot's breaker, and tracks versions."""
        try:
            response = await handle.call(payload, timeout)
        except GatewayError:
            self._release(handle)  # dead handles are not re-queued
            raise
        self._note_version(response, handle)
        if response.get("ok"):
            handle.last_served_monotonic = asyncio.get_running_loop().time()
            if handle.slot is not None:
                handle.slot.breaker.record_success()
                if isinstance(response.get("metrics"), dict):
                    handle.slot.latest_metrics = response["metrics"]
        self._release(handle)
        return response

    async def _dispatch(
        self,
        handle: WorkerHandle,
        method: str,
        params: dict,
        remaining: float,
        trace: TraceContext | None = None,
    ) -> dict:
        """One (possibly hedged) attempt. The frame carries the
        remaining deadline budget; reads that linger past
        ``hedge_delay`` are duplicated to an idle sibling and the first
        answer wins — the loser completes in the background and simply
        re-enters rotation."""
        payload = {
            "method": method,
            "params": {**params, "budget_ms": remaining * 1000.0},
        }
        if trace is not None:
            payload["trace"] = trace.to_wire()
        hedge_after = self.hedge_delay
        if (
            hedge_after is None
            or method not in READ_METHODS
            or remaining <= hedge_after
        ):
            return await self._call_one(handle, payload, remaining)
        primary = asyncio.ensure_future(self._call_one(handle, payload, remaining))
        done, _pending = await asyncio.wait({primary}, timeout=hedge_after)
        if done:
            return primary.result()
        # The primary is officially slow. Race it against a *waiting*
        # checkout of a sibling — a momentarily-busy fleet frees a
        # worker in milliseconds, and a hedge that only glanced once
        # would miss it and ride out the full hang.
        checkout = asyncio.ensure_future(self._checkout(remaining - hedge_after))
        done, _pending = await asyncio.wait(
            {primary, checkout}, return_when=asyncio.FIRST_COMPLETED
        )
        if primary in done:
            if checkout.done():
                if checkout.exception() is None:
                    self._release(checkout.result())
            else:
                checkout.cancel()
                checkout.add_done_callback(_swallow_result)
            return primary.result()
        try:
            sibling = checkout.result()
        except GatewayError:
            return await primary
        self._m_hedged.inc()
        event("pool.hedge", trace, method=method,
              primary=handle.worker_id, sibling=sibling.worker_id)
        hedge = asyncio.ensure_future(
            self._call_one(sibling, payload, remaining - hedge_after)
        )
        tasks = {primary, hedge}
        first_error: GatewayError | None = None
        while tasks:
            done, tasks = await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                exc = task.exception()
                if exc is None:
                    for loser in tasks:
                        # Let the slower attempt finish in the
                        # background; its handle re-enters rotation
                        # inside _call_one either way.
                        loser.add_done_callback(_swallow_result)
                    if task is hedge:
                        self._m_hedge_wins.inc()
                        event("pool.hedge_win", trace, method=method)
                    return task.result()
                if isinstance(exc, GatewayError) and first_error is None:
                    first_error = exc
                elif not isinstance(exc, GatewayError):
                    raise exc
        raise first_error if first_error is not None else GatewayError(
            "hedged dispatch failed"
        )

    async def call(
        self,
        method: str,
        params: dict | None = None,
        timeout: float | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """Route one request to the fleet and return the worker's
        response payload, retrying across deaths and staleness within
        one deadline budget. Raises
        :class:`~repro.errors.GatewayError` when the budget or retry
        count is exhausted (unless ``allow_stale`` turns the failure
        into an explicit stale response), and for non-retryable worker
        errors."""
        self._m_calls.inc()
        loop = asyncio.get_running_loop()
        budget = self.call_timeout if timeout is None else timeout
        deadline = loop.time() + budget
        params = dict(params or {})
        read = method in READ_METHODS
        # Reserve a slice of the budget for the degraded attempt, so
        # "fresh failed" still leaves time to serve *something*.
        stale_grace = (min(1.0, budget * 0.25) if (self.allow_stale and read) else 0.0)
        fresh_deadline = deadline - stale_grace
        last_error: GatewayError | None = None
        attempt = 0
        while attempt <= self.retries and loop.time() < fresh_deadline:
            attempt += 1
            if attempt > 1:
                self._m_retries.inc()
                event("pool.retry", trace, method=method, attempt=attempt,
                      error=str(last_error))
            if read:
                # The handshake: no response may be computed from a
                # model older than the newest the fleet has served.
                params["min_version"] = self.fleet_version
                if trace is not None:
                    trace.baggage["min_version"] = self.fleet_version
            remaining = fresh_deadline - loop.time()
            if trace is not None:
                trace.baggage["budget_ms"] = round(remaining * 1000.0, 3)
            try:
                handle = await self._checkout(remaining)
            except GatewayError as exc:
                last_error = exc
                break
            try:
                response = await self._dispatch(
                    handle, method, params, remaining, trace
                )
            except GatewayError as exc:
                last_error = exc
                continue  # the worker is dead; retry on another
            if response.get("ok"):
                return response
            error = response.get("error") or {}
            message = error.get("message", "worker error")
            if error.get("retryable"):
                last_error = GatewayError(f"worker {handle.worker_id}: {message}")
                await asyncio.sleep(DEFAULT_STALE_BACKOFF)
                continue
            raise GatewayError(f"worker {handle.worker_id}: {message}")
        if self.allow_stale and read:
            response = await self._stale_fallback(method, params, deadline, trace)
            if response is not None:
                return response
        raise GatewayError(
            f"request {method!r} failed after {attempt} attempts "
            f"within {budget:.1f}s: {last_error}"
        )

    async def _stale_fallback(
        self,
        method: str,
        params: dict,
        deadline: float,
        trace: TraceContext | None = None,
    ) -> dict | None:
        """The bounded-staleness degraded path: one attempt with
        ``allow_stale`` — the worker serves its freshest version and
        tags the response ``stale`` when that is behind the floor."""
        loop = asyncio.get_running_loop()
        remaining = max(0.05, deadline - loop.time())
        stale_params = {
            **params,
            "min_version": self.fleet_version,
            "allow_stale": True,
        }
        event("pool.stale_fallback", trace, method=method,
              min_version=self.fleet_version)
        try:
            handle = await self._checkout(remaining)
            payload = {
                "method": method,
                "params": {**stale_params, "budget_ms": remaining * 1000.0},
            }
            if trace is not None:
                payload["trace"] = trace.to_wire()
            response = await self._call_one(handle, payload, remaining)
        except GatewayError:
            return None
        if not response.get("ok"):
            return None
        if response.get("stale"):
            self._m_stale_served.inc()
        return response

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def alive_workers(self) -> list[int]:
        return [
            handle.pid
            for slot in self._slots
            if (handle := slot.live_handle()) is not None
        ]

    @property
    def n_alive(self) -> int:
        """Slots holding a live worker right now — what the coalescer
        sizes its in-flight frame count against."""
        return len(self.alive_workers())

    def worker_details(self) -> list[dict]:
        """Per-slot fleet shape — what ``/healthz`` exposes so an
        operator (or the chaos smoke) can assert it without logs."""
        details = []
        for slot in self._slots:
            handle = slot.handle
            live = slot.live_handle() is not None
            details.append(
                {
                    "slot": slot.slot_id,
                    "pid": handle.pid if handle is not None else None,
                    "alive": live,
                    "version": handle.version if handle is not None else 0,
                    "restarts": slot.n_restarts,
                    "spawn_failures": slot.n_spawn_failures,
                    "circuit": slot.breaker.state,
                    "consecutive_failures": (slot.breaker.consecutive_failures),
                    "n_calls": handle.n_calls if handle is not None else 0,
                    "last_served_monotonic": (
                        handle.last_served_monotonic if handle is not None else 0.0
                    ),
                }
            )
        return details

    async def collect_metrics(self, timeout: float = 1.0) -> list[dict]:
        """Registry snapshots for ``/metrics``: the pool's own, plus
        every worker's (live workers are health-polled best-effort —
        a busy worker's last-known snapshot is served instead of
        blocking the scrape behind data traffic)."""
        await self._poll_worker_metrics(timeout)
        for slot in self._slots:
            handle = slot.live_handle()
            lag = (
                max(0, self.fleet_version - handle.version)
                if handle is not None
                else 0
            )
            self._m_worker_lag.labels(str(slot.slot_id)).set(lag)
        snapshots = [self.registry.snapshot()]
        for slot in self._slots:
            if slot.retired_metrics is not None:
                snapshots.append(slot.retired_metrics)
            if slot.latest_metrics is not None:
                snapshots.append(slot.latest_metrics)
        return snapshots

    async def _poll_worker_metrics(self, timeout: float) -> None:
        """One concurrent health round over every *idle* worker; each
        OK response refreshes its slot's snapshot inside
        :meth:`_call_one`. Checked-out (busy) workers are skipped —
        a scrape must never queue behind, or time out, data traffic."""
        handles: list[WorkerHandle] = []
        while True:
            handle = self._checkout_nowait()
            if handle is None:
                break
            handles.append(handle)
        if not handles:
            return
        await asyncio.gather(
            *(
                self._call_one(handle, {"method": "health"}, timeout)
                for handle in handles
            ),
            return_exceptions=True,
        )

    def stats(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "alive": len(self.alive_workers()),
            "fleet_version": self.fleet_version,
            "n_calls": self.n_calls,
            "n_restarts": self.n_restarts,
            "n_spawn_failures": self.n_spawn_failures,
            "n_hedged": self.n_hedged,
            "n_hedge_wins": self.n_hedge_wins,
            "n_stale_served": self.n_stale_served,
        }


def _swallow_result(task: asyncio.Task) -> None:
    """Retrieve a background task's outcome so a losing hedge's error
    is never reported as an unretrieved exception."""
    if not task.cancelled():
        task.exception()
