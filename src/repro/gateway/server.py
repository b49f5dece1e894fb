"""The asyncio HTTP front end: coalescing, shedding, degrading.

:class:`GatewayServer` is a stdlib-only HTTP/1.1 server (keep-alive,
JSON responses) in front of a
:class:`~repro.gateway.supervisor.WorkerPool`. Its job is the batching
economics the service layer already proved in-process
(``BENCH_service.json``: one vectorized ``recommend_batch`` pass is an
order of magnitude cheaper per user than per-request serving): many
concurrent ``/recommend`` clients are coalesced into one worker call.

Batching is **natural**: there is no timer and no window to tune. The
coalescer keeps at most one frame in flight per live pool worker.

* While a worker is idle (fewer frames in flight than the pool has
  live workers) a single-user ``/recommend`` leaves at once as a frame
  of one — an unloaded request pays no wait at all.
* Requests that arrive while every worker is busy accumulate, and the
  instant a frame returns the oldest waiter leaves with everyone who
  asked for the same ``n`` (one worker call serves one batch shape),
  capped at ``max_batch`` — so frames fill exactly when, and exactly
  as much as, the fleet is behind.

The invariant, in the form a simulator can check, holds after every
submit and every frame return: *pending ≠ ∅ ⇒ in-flight coalesced
frames ≥ max(1, live workers) — the worker count of a healthy fleet;
every submitted future resolves exactly once; a frame carries ≤
``max_batch`` users of one ``n``; a frame that fails or is cancelled
still frees its slot and pumps the queue.* Monotonic reads and tagged
staleness are the pool's business (the ``min_version`` handshake) and
do not depend on *when* a frame leaves, which is why no delay is worth
paying for here.

"Busy" is counted, not observed: the coalescer's own frames against
the pool's live workers. A dead or restarting worker, or a slot behind
an open breaker, is not alive and is not counted — the queue fills
behind the workers that are left (one frame stays allowed with none
alive, so callers fail through the pool's deadline instead of parking
here). Two cases the count does not see: a live worker busy
with a call that does not come through the coalescer
(``/similar_items``, a multi-user ``POST /recommend``, a metrics poll)
still counts as free, so a single may leave as a frame of one and wait
in the pool's checkout instead of accumulating; and a frame the pool
is backing off before a retry still counts as in flight while its
worker is free.

On top of the coalescer the server is an **admission
controller**: at most ``max_inflight`` data requests run concurrently,
at most ``max_queue`` more may wait for a slot, and anything beyond
that is **shed immediately** with ``429 Too Many Requests`` and a
``Retry-After`` header. Shedding is the load-bearing choice: an
unbounded queue converts overload into unbounded latency for *every*
client (and, past the deadline, into wasted work — answers nobody is
waiting for), while a bounded queue keeps the served requests fast and
makes the overload explicit. A 429 is always a correct response;
a 30-second answer to a 1-second question never is.

Every data request runs under a **deadline budget**
(``request_timeout``, default the pool's ``call_timeout``); the pool
propagates the remaining budget to workers in the frame, so overload
sheds at the edge and deadlines kill dead work at the core.

``close()`` is a **graceful drain**: stop accepting new connections,
answer in-flight keep-alive requests with ``Connection: close``,
wait (bounded) for in-flight work, then reap the worker fleet — no
orphan processes, no abandoned sockets.

Endpoints::

    GET /recommend?user=alice&n=10      one user (coalesced)
    POST /recommend {"users": [...], "n": 10}   explicit batch
    GET /similar_items?item=tt0111161&k=10&minimum=0.2
    GET /healthz                        fleet + per-worker detail
    GET /metrics                        Prometheus text, fleet-merged

Every response — data, health, shed, error — carries an
``X-Request-Id`` header: the request's trace id (a well-formed
incoming ``X-Request-Id`` is honoured, anything else replaced), the
same id stamped on every server-side log line and protocol frame the
request touched. Counters live in a per-server
:class:`~repro.obs.metrics.MetricsRegistry`; ``/metrics`` merges it
with the pool's registry and the per-worker snapshots piggybacked on
health frames, so ``/healthz`` and ``/metrics`` read one source of
truth.

Every data response carries the model ``version`` that computed it —
single-valued by construction (the worker pinned exactly one version
for the whole batch). A response computed below the fleet's version
floor (only possible in ``allow_stale`` degraded mode) additionally
carries ``"stale": true``; the monotonic-reads promise is scoped to
non-stale responses, and the marker is what scopes it.

Error bodies are structured and **sanitized**: a machine-readable
``code`` plus a generic message. Internal details (worker pids,
filesystem paths, tracebacks) go to the ``repro.gateway`` logger, not
to the client — an error body that leaks ``/home/.../v-00000007``
is an information disclosure, not a diagnostic.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import NamedTuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import GatewayError
from repro.gateway.protocol import positive_int
from repro.gateway.supervisor import WorkerPool
from repro.obs.metrics import (
    BATCH_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import TraceContext, event, span

DEFAULT_MAX_BATCH = 32
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_QUEUE = 128
DEFAULT_RETRY_AFTER = 1
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

logger = logging.getLogger("repro.gateway")


def _error_body(code: str, message: str) -> dict:
    """A client-safe error payload: machine code + generic message.

    The ``error`` key stays a flat object with a stable shape; whatever
    internal detail produced it belongs in the server-side log."""
    return {"error": {"code": code, "message": message}}


class _Member(NamedTuple):
    """One waiting single-user request."""

    user: str
    n: int
    future: asyncio.Future
    trace: TraceContext | None
    submitted: float


class _Batcher:
    """Coalesce single-user recommend requests into worker frames by
    natural batching (see the module docstring for the invariant).

    Single-threaded by construction — every method runs on the event
    loop — so the pending list needs no lock; :meth:`_pump` detaches a
    frame's members before anything is awaited.
    """

    def __init__(
        self,
        pool: WorkerPool,
        max_batch: int,
        request_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise GatewayError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.max_batch = max_batch
        self.request_timeout = request_timeout
        registry = registry if registry is not None else MetricsRegistry()
        self._m_flushes = registry.counter(
            "gateway_coalescer_flushes_total", "coalesced frames dispatched"
        )
        self._m_coalesced = registry.counter(
            "gateway_coalesced_requests_total",
            "single-user requests that left in a coalesced frame",
        )
        self._m_batch_size = registry.histogram(
            "gateway_coalesced_batch_size",
            "requests per coalesced frame",
            buckets=BATCH_BUCKETS,
        )
        self._m_wait = registry.histogram(
            "gateway_coalesce_wait_seconds",
            "submit until the request's frame leaves (0 while a worker is idle)",
        )
        self._pending: list[_Member] = []
        #: in-flight frames; the set is what keeps each task referenced
        #: (the loop holds tasks weakly) and what close() cancels.
        self._frames: set[asyncio.Task] = set()

    @property
    def n_flushes(self) -> int:
        return int(self._m_flushes.value)

    @property
    def n_coalesced(self) -> int:
        return int(self._m_coalesced.value)

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def n_in_flight(self) -> int:
        return len(self._frames)

    async def submit(
        self, user: str, n: int, trace: TraceContext | None = None
    ) -> tuple[int, list, bool]:
        """One user's Top-N through the coalescer; resolves to
        ``(version, recommendations, stale)``."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Member(user, n, future, trace, time.perf_counter()))
        self._pump()
        return await future

    def _pump(self) -> None:
        """Send frames while there is someone waiting and a live worker
        not already serving one of ours."""
        # Never below one: with nobody alive the frame waits in the
        # pool's checkout and fails by its deadline, and it is that
        # frame's return which pumps whoever queued behind it.
        slots = max(1, self.pool.n_alive)
        while self._pending and len(self._frames) < slots:
            # The oldest waiter picks the batch shape; everyone behind
            # it with the same n rides along, up to max_batch. Members
            # whose client went away (cancelled future) are dropped.
            frame: list[_Member] = []
            rest: list[_Member] = []
            for member in self._pending:
                if member.future.done():
                    continue
                same_shape = not frame or member.n == frame[0].n
                if same_shape and len(frame) < self.max_batch:
                    frame.append(member)
                else:
                    rest.append(member)
            self._pending = rest
            if not frame:
                return
            now = time.perf_counter()
            for member in frame:
                self._m_wait.observe(now - member.submitted)
            self._m_flushes.inc()
            self._m_coalesced.inc(len(frame))
            self._m_batch_size.observe(float(len(frame)))
            task = asyncio.ensure_future(self._dispatch(frame))
            self._frames.add(task)
            task.add_done_callback(self._frame_done)

    def _frame_done(self, task: asyncio.Task) -> None:
        self._frames.discard(task)
        self._pump()

    async def close(self) -> None:
        """Fail whoever still waits, cancel the frames still out (their
        members fail the same way) and wait for them to unwind."""
        waiting, self._pending = self._pending, []
        self._fail(waiting, GatewayError("gateway shut down before dispatch"))
        frames = list(self._frames)
        for task in frames:
            task.cancel()
        await asyncio.gather(*frames, return_exceptions=True)

    @staticmethod
    def _fail(frame: list[_Member], exc: Exception) -> None:
        for member in frame:
            if not member.future.done():
                member.future.set_exception(exc)

    async def _dispatch(self, frame: list[_Member]) -> None:
        """One frame's round trip; resolves every member's future —
        result, the pool's error, or cancellation — exactly once."""
        try:
            # The frame travels under the first member's trace (one
            # frame, one trace); the flush event names every member so
            # a batched request's own id still leads to the worker-side
            # span.
            traces = [member.trace for member in frame if member.trace is not None]
            batch_trace = traces[0].child() if traces else None
            event(
                "gateway.flush",
                batch_trace,
                batch_size=len(frame),
                member_trace_ids=[trace.trace_id for trace in traces],
            )
            response = await self.pool.call(
                "recommend",
                {"users": [member.user for member in frame], "n": frame[0].n},
                timeout=self.request_timeout,
                trace=batch_trace,
            )
            version = response["version"]
            stale = bool(response.get("stale"))
            answers = list(zip(frame, response["results"], strict=True))
        except asyncio.CancelledError:
            self._fail(frame, GatewayError("coalesced frame cancelled at shutdown"))
            raise
        except Exception as exc:
            self._fail(frame, exc)
            return
        for member, result in answers:
            if not member.future.done():
                member.future.set_result((version, result, stale))


class GatewayServer:
    """The networked serving front end (see the module docstring)."""

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        request_timeout: float | None = None,
        retry_after: int = DEFAULT_RETRY_AFTER,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_inflight < 1:
            raise GatewayError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise GatewayError(f"max_queue must be >= 0, got {max_queue}")
        self.pool = pool
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.request_timeout = (
            pool.call_timeout if request_timeout is None else request_timeout
        )
        self.retry_after = retry_after
        #: per-instance on purpose: tests run many gateways in one
        #: interpreter, and /healthz + /metrics must read *this*
        #: server's counts, not a process-wide blur.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.batcher = _Batcher(
            pool,
            max_batch,
            request_timeout=self.request_timeout,
            registry=self.registry,
        )
        self._m_http_requests = self.registry.counter(
            "gateway_http_requests_total", "HTTP requests parsed at ingress"
        )
        self._m_responses = self.registry.counter(
            "gateway_http_responses_total",
            "HTTP responses written, by status code",
            labels=("code",),
        )
        self._m_shed = self.registry.counter(
            "gateway_shed_total", "data requests shed with 429 at admission"
        )
        self._m_stale = self.registry.counter(
            "gateway_stale_responses_total",
            "responses served carrying the stale marker",
        )
        self._m_request_seconds = self.registry.histogram(
            "gateway_request_seconds",
            "end-to-end HTTP request latency at the gateway",
        )
        self._m_uptime = self.registry.gauge(
            "gateway_uptime_seconds", "seconds since the listener bound"
        )
        self._m_inflight = self.registry.gauge(
            "gateway_inflight", "data requests currently executing"
        )
        self._m_queued = self.registry.gauge(
            "gateway_queued", "data requests waiting for an inflight slot"
        )
        self._m_pending = self.registry.gauge(
            "gateway_coalescer_pending",
            "single-user requests waiting for a frame (every worker busy)",
        )
        self._started_monotonic: float | None = None
        self._inflight = 0
        self._waiting = 0
        self._slots = asyncio.Semaphore(max_inflight)
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: asyncio.AbstractServer | None = None

    # Legacy counter names — kept as views over the registry so the
    # registry is the single source of truth for /healthz and /metrics.
    @property
    def n_http_requests(self) -> int:
        return int(self._m_http_requests.value)

    @property
    def n_shed(self) -> int:
        return int(self._m_shed.value)

    @property
    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    async def start(self) -> None:
        """Bind and start accepting (workers must already be started);
        :attr:`port` holds the bound port afterwards (0 → ephemeral)."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=_MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def close(self) -> None:
        """Stop listening (idempotent); does not touch the pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, let in-flight requests
        finish (up to *grace* seconds), then reap the worker fleet.

        This is what the SIGTERM handler calls: after it returns, every
        process the pool ever spawned is dead and the listening socket
        is closed — a supervisor (systemd, k8s) observing the exit sees
        no orphans and no half-answered connections.
        """
        await self.close()
        try:
            await asyncio.wait_for(self._idle.wait(), grace)
        except asyncio.TimeoutError:
            logger.warning(
                "drain grace of %.1fs expired with %d requests in flight",
                grace,
                self._inflight,
            )
        await self.batcher.close()
        await self.pool.close()

    async def serve_forever(self) -> None:  # pragma: no cover - CLI path
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _admit_nowait(self) -> bool:
        """Whether a new data request may even wait for a slot — the
        shed-or-queue decision, made before anything is awaited."""
        if self._inflight < self.max_inflight:
            return True
        return self._waiting < self.max_queue

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, headers, body, malformed = request
                self._m_http_requests.inc()
                trace = TraceContext.from_request_id(headers.get("x-request-id"))
                with span(
                    "gateway.request",
                    trace,
                    self._m_request_seconds,
                    method=method,
                    target=target,
                ) as request_span:
                    if malformed is None:
                        status, payload, extra = await self._route(
                            method, target, body, trace
                        )
                    else:
                        status, extra = 400, None
                        payload = _error_body("bad_request", malformed)
                    request_span.fields["status"] = status
                self._m_responses.labels(str(status)).inc()
                keep_alive = (
                    malformed is None
                    and headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                self._write_response(
                    writer, status, payload, keep_alive, extra,
                    request_id=trace.trace_id,
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            # Loop shutdown with a keep-alive connection parked in
            # read: close the transport (via the finally below) but
            # let the cancellation propagate — a swallowed
            # CancelledError here would report the handler task as
            # having finished normally mid-shutdown.
            raise
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict, bytes, str | None] | None:
        """``(method, target, headers, body, malformed)``, or ``None``
        when the peer is gone. *malformed* names what is wrong with a
        request that arrived whole but cannot be honoured; the caller
        answers it 400 and closes (the stream position is unknowable)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return "", "", {}, b"", "malformed request line"
        method, target, _http_version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, separator, value = line.partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        # A few ASCII digits or nothing: int() would also take "-5",
        # "+5", "1_0", and refuses (ValueError) thousands of digits.
        declared = headers.get("content-length", "0")
        plausible = declared.isascii() and declared.isdigit() and len(declared) <= 12
        length = int(declared) if plausible else -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            return method, target, headers, b"", "bad Content-Length"
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body, None

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
        request_id: str | None = None,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   429: "Too Many Requests", 503: "Service Unavailable"}
        if isinstance(payload, str):  # /metrics exposition
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head_lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Error')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if request_id is not None:
            # Every response — 200s, sheds, errors — is correlatable
            # with the server-side lines that explain it.
            head_lines.append(f"X-Request-Id: {request_id}")
        for name, value in (extra_headers or {}).items():
            head_lines.append(f"{name}: {value}")
        head = "\r\n".join(head_lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        trace: TraceContext | None = None,
    ) -> tuple[int, dict | str, dict[str, str] | None]:
        trace = trace if trace is not None else TraceContext()
        split = urlsplit(target)
        path = split.path
        query = {name: values[-1] for name, values in parse_qs(split.query).items()}
        if body:
            try:
                parsed = json.loads(body.decode("utf-8"))
            except ValueError:
                return (
                    400,
                    _error_body("bad_json", "request body is not valid JSON"),
                    None,
                )
            if not isinstance(parsed, dict):
                return (
                    400,
                    _error_body("bad_json", "request body must be an object"),
                    None,
                )
            query = {**parsed, **query}
        if path == "/healthz":
            status, payload = await self._healthz()
            return status, payload, None
        if path == "/metrics":
            return 200, await self._metrics(), None
        if path not in ("/recommend", "/similar_items"):
            return (
                404,
                _error_body("not_found", f"no such endpoint: {path}"),
                None,
            )
        if self._draining:
            return (
                503,
                _error_body("draining", "server is shutting down"),
                None,
            )
        if not self._admit_nowait():
            self._m_shed.inc()
            event("gateway.shed", trace, path=path, queued=self._waiting,
                  inflight=self._inflight)
            return (
                429,
                _error_body(
                    "overloaded",
                    "server is at capacity; retry after a backoff",
                ),
                {"Retry-After": str(self.retry_after)},
            )
        async with _AdmissionTicket(self):
            try:
                if path == "/recommend":
                    status, payload = await self._recommend(query, trace)
                else:
                    status, payload = await self._similar_items(query, trace)
            except GatewayError as exc:
                # Sanitized on the wire, detailed in the log: worker
                # ids, pids and filesystem paths stay server-side. The
                # trace id is the client's handle on this line — it is
                # what the response's X-Request-Id echoes back.
                logger.warning(
                    "upstream failure on %s (trace %s): %s",
                    path, trace.trace_id, exc,
                )
                event("gateway.upstream_error", trace, path=path, error=str(exc))
                return (
                    503,
                    _error_body(
                        "upstream_unavailable",
                        "no worker could serve the request",
                    ),
                    None,
                )
            except (TypeError, ValueError) as exc:
                return (
                    400,
                    _error_body("bad_request", f"bad request: {exc}"),
                    None,
                )
        return status, payload, None

    async def _healthz(self) -> tuple[int, dict]:
        stats = self.pool.stats()
        healthy = stats["alive"] > 0 and not self._draining
        payload = {
            "status": (
                "draining"
                if self._draining
                else ("ok" if stats["alive"] > 0 else "unavailable")
            ),
            "version": stats["fleet_version"],
            "uptime_s": round(self.uptime_s, 3),
            "workers": stats,
            "fleet": self.pool.worker_details(),
            "http_requests": self.n_http_requests,
            "shed": self.n_shed,
            "inflight": self._inflight,
            "queued": self._waiting,
            "batch": {
                "flushes": self.batcher.n_flushes,
                "coalesced": self.batcher.n_coalesced,
                "pending": self.batcher.n_pending,
                "in_flight": self.batcher.n_in_flight,
            },
        }
        return (200 if healthy else 503), payload

    async def _metrics(self) -> str:
        """Prometheus-text exposition of the whole fleet: this server's
        registry merged with the pool's and with every worker registry
        snapshot the pool holds (piggybacked on health frames)."""
        self._m_uptime.set(self.uptime_s)
        self._m_inflight.set(self._inflight)
        self._m_queued.set(self._waiting)
        self._m_pending.set(self.batcher.n_pending)
        snapshots = [self.registry.snapshot()]
        collect = getattr(self.pool, "collect_metrics", None)
        if collect is not None:
            snapshots.extend(await collect())
        return render_prometheus(merge_snapshots(*snapshots))

    def _finish(self, payload: dict) -> tuple[int, dict]:
        if payload.get("stale"):
            self._m_stale.inc()
        return 200, payload

    async def _recommend(
        self, query: dict, trace: TraceContext | None = None
    ) -> tuple[int, dict]:
        n = positive_int(query, "n", ValueError)
        users = query.get("users")
        if users is not None:
            if not isinstance(users, list) or not users:
                return 400, _error_body(
                    "bad_request", "'users' must be a non-empty list"
                )
            response = await self.pool.call(
                "recommend",
                {"users": users, "n": n},
                timeout=self.request_timeout,
                trace=trace,
            )
            payload = {
                "version": response["version"],
                "users": users,
                "recommendations": response["results"],
            }
            if response.get("stale"):
                payload["stale"] = True
            return self._finish(payload)
        user = query.get("user")
        if not user:
            return 400, _error_body(
                "bad_request", "missing 'user' (or 'users') parameter"
            )
        version, result, stale = await self.batcher.submit(str(user), n, trace)
        payload = {
            "version": version,
            "user": user,
            "recommendations": result,
        }
        if stale:
            payload["stale"] = True
        return self._finish(payload)

    async def _similar_items(
        self, query: dict, trace: TraceContext | None = None
    ) -> tuple[int, dict]:
        item = query.get("item")
        if not item:
            return 400, _error_body("bad_request", "missing 'item' parameter")
        params: dict = {"item": str(item), "k": positive_int(query, "k", ValueError)}
        if query.get("minimum") is not None:
            params["minimum"] = float(query["minimum"])
        response = await self.pool.call(
            "similar_items", params, timeout=self.request_timeout, trace=trace
        )
        payload = {
            "version": response["version"],
            "item": item,
            "neighbors": response["results"],
        }
        if response.get("stale"):
            payload["stale"] = True
        return self._finish(payload)


class _AdmissionTicket:
    """One data request's occupancy of the admission window: a bounded
    wait for an inflight slot, bookkeeping on both edges, and the
    idle event the drain path waits on."""

    def __init__(self, server: GatewayServer) -> None:
        self.server = server

    async def __aenter__(self) -> "_AdmissionTicket":
        server = self.server
        server._waiting += 1
        server._idle.clear()
        try:
            await server._slots.acquire()
        finally:
            server._waiting -= 1
        server._inflight += 1
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        server = self.server
        server._inflight -= 1
        server._slots.release()
        if server._inflight == 0 and server._waiting == 0:
            server._idle.set()
