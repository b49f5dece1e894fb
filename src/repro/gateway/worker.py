"""The serving worker process: one memmapped model, one frame loop.

A worker is spawned by the :class:`~repro.gateway.supervisor.WorkerPool`
as a fresh interpreter (``python -m repro.gateway.worker``) holding one
end of a ``socketpair`` on an inherited file descriptor. It builds a
:class:`~repro.serving.watch.RegistryWatcher` over the shared snapshot
source — the model arrays are memory-mapped, so N
workers on one host share the bytes through the page cache — then
answers length-prefixed JSON requests strictly one at a time.

Convergence is two-speed:

* **idle**: the socket read times out every ``--poll-interval`` seconds
  and the worker polls its watcher, so a quiet worker still follows the
  publisher;
* **on demand**: every request carries the gateway's ``min_version``
  handshake. A worker that pins an older version polls once and retries
  immediately; if the source still has not caught up it answers a
  *retryable* ``stale`` error rather than serving the old model — the
  fleet never goes backwards in time from a client's point of view.

Three named fault points bracket the worker's life so the chaos
harness (:mod:`repro.faults`) can perturb it from the environment:
``gateway.worker.load`` before the snapshot source is opened (a kill
here is a death *during load*, before the first health OK; a delay is
a slow load), ``gateway.worker.request`` once per request frame
(a ``kill`` rule with ``after=3`` is a SIGKILL mid-flight; a plan can
also delay or inject retryable errors), and ``gateway.worker.send``
inside every outgoing frame (drop / corrupt / torn — see
:mod:`repro.gateway.protocol`).

Two request-level contracts ride in the frame:

* ``budget_ms`` — the remaining deadline budget the gateway stamped at
  dispatch. A request whose budget is already exhausted (it sat behind
  a slow frame or a retry storm) is answered with a ``deadline``
  error instead of being computed: late work is dead work, and
  skipping it is what keeps an overloaded fleet from queueing.
* ``allow_stale`` — the gateway's degraded-mode marker. The worker
  still polls once toward ``min_version``, but if the source has not
  caught up it serves the **freshest version it has** and tags the
  response ``stale: true`` (bounded staleness, explicit) instead of
  answering a retryable ``stale`` error.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time

from repro.errors import GatewayError, ReproError, StaleModelError
from repro.faults.plan import InjectedFault, fault_point
from repro.gateway.protocol import positive_int, recv_frame, send_frame
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import TraceContext, event, span
from repro.serving.service import RecommendationService
from repro.serving.watch import RegistryWatcher

DEFAULT_POLL_INTERVAL = 0.2
DEFAULT_LOAD_TIMEOUT = 30.0

LOAD_FAULT_POINT = "gateway.worker.load"
REQUEST_FAULT_POINT = "gateway.worker.request"


def _error_response(kind: str, message: str, retryable: bool, **extra: object) -> dict:
    return {
        "ok": False,
        "error": {
            "type": kind,
            "message": message,
            "retryable": retryable,
            **extra,
        },
    }


class WorkerApp:
    """The request handlers, separated from the socket loop so tests
    can drive them directly."""

    def __init__(
        self,
        watcher: RegistryWatcher,
        service: RecommendationService,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.watcher = watcher
        self.service = service
        self.n_requests = 0
        #: the process-global registry by default: one worker process,
        #: one registry, snapshotted onto every health response so the
        #: gateway can aggregate the fleet.
        self.registry = registry if registry is not None else get_registry()
        self._m_requests = self.registry.counter(
            "worker_requests_total", "request frames handled, by method",
            labels=("method",),
        )
        self._m_serve_seconds = self.registry.histogram(
            "worker_request_seconds", "worker-side serve latency (reads)"
        )
        self._m_errors = self.registry.counter(
            "worker_errors_total", "error responses returned, by type",
            labels=("type",),
        )
        self._m_version = self.registry.gauge(
            "worker_version", "model version this worker currently pins"
        )
        self._m_loads = self.registry.counter(
            "worker_loads_total", "snapshot loads the watcher performed"
        )

    def _error(self, kind: str, message: str, retryable: bool, **extra: object) -> dict:
        self._m_errors.labels(kind).inc()
        return _error_response(kind, message, retryable, **extra)

    def handle(self, frame: dict) -> dict | None:
        """The response for one request frame; ``None`` means a clean
        shutdown was requested."""
        self.n_requests += 1
        method = frame.get("method")
        params = frame.get("params") or {}
        self._m_requests.labels(str(method)).inc()
        wire = frame.get("trace")
        trace = TraceContext.from_wire(wire).child() if wire is not None else None
        try:
            fault_point(REQUEST_FAULT_POINT)
        except InjectedFault as exc:
            event("worker.injected_fault", trace, error=str(exc))
            return self._error("injected", str(exc), retryable=True)
        if method == "shutdown":
            return None
        budget_ms = params.get("budget_ms")
        if budget_ms is not None and method in ("recommend", "similar_items"):
            try:
                exhausted = float(budget_ms) <= 0.0
            except (TypeError, ValueError):
                exhausted = False
            if exhausted:
                event("worker.deadline_reject", trace, budget_ms=budget_ms)
                return self._error(
                    "deadline",
                    "deadline budget exhausted before the worker began",
                    retryable=False,
                )
        try:
            if method == "health":
                return self._health()
            if method == "poll":
                self.watcher.poll()
                return {"ok": True, "version": self.watcher.version}
            if method == "recommend":
                with span("worker.serve", trace, self._m_serve_seconds,
                          method="recommend", pid=os.getpid()):
                    return self._recommend(params)
            if method == "similar_items":
                with span("worker.serve", trace, self._m_serve_seconds,
                          method="similar_items", pid=os.getpid()):
                    return self._similar_items(params)
        except StaleModelError as exc:
            return self._error(
                "stale",
                str(exc),
                retryable=True,
                version=exc.version,
                min_version=exc.min_version,
            )
        except ReproError as exc:
            return self._error(type(exc).__name__, str(exc), retryable=False)
        return self._error(
            "unknown_method",
            f"worker does not understand method {method!r}",
            retryable=False,
        )

    def _health(self) -> dict:
        # Export-on-scrape: the service's own counts bridge into the
        # registry only when a health frame asks, so the data hot path
        # pays nothing for them.
        self.service.export_metrics(self.registry)
        self._m_version.set(self.watcher.version)
        self._m_loads.set(self.watcher.n_loads)
        return {
            "ok": True,
            "version": self.watcher.version,
            "pid": os.getpid(),
            "n_requests": self.n_requests,
            "n_loads": self.watcher.n_loads,
            "n_load_failures": self.watcher.n_load_failures,
            "metrics": self.registry.snapshot(),
        }

    def _fresh(self, min_version: int) -> None:
        """Converge before serving a request that requires a newer
        model than the local registry holds."""
        if min_version > self.watcher.version:
            self.watcher.poll()

    def _recommend(self, params: dict) -> dict:
        users = params.get("users")
        if not isinstance(users, list) or not users:
            raise GatewayError("recommend needs a non-empty 'users' list")
        n = positive_int(params, "n", GatewayError)
        min_version = int(params.get("min_version", 0))
        allow_stale = bool(params.get("allow_stale"))
        self._fresh(min_version)
        version, results = self.service.recommend_batch_pinned(
            users, n, min_version=0 if allow_stale else min_version
        )
        response = {"ok": True, "version": version, "results": results}
        if allow_stale and version < min_version:
            response["stale"] = True
        return response

    def _similar_items(self, params: dict) -> dict:
        item = params.get("item")
        if not isinstance(item, str):
            raise GatewayError("similar_items needs an 'item' string")
        k = positive_int(params, "k", GatewayError)
        minimum = params.get("minimum")
        if minimum is not None:
            minimum = float(minimum)
        min_version = int(params.get("min_version", 0))
        allow_stale = bool(params.get("allow_stale"))
        self._fresh(min_version)
        version, row = self.service.similar_items_pinned(
            item,
            k,
            minimum=minimum,
            min_version=0 if allow_stale else min_version,
        )
        response = {"ok": True, "version": version, "results": row}
        if allow_stale and version < min_version:
            response["stale"] = True
        return response


def wait_for_model(
    watcher: RegistryWatcher,
    timeout: float = DEFAULT_LOAD_TIMEOUT,
    interval: float = 0.05,
) -> int:
    """Poll until the source publishes a first version; the worker must
    not accept traffic while its registry is empty."""
    deadline = time.monotonic() + timeout
    while True:
        version = watcher.poll()
        if version is not None:
            return version
        if watcher.version > 0:
            return watcher.version
        if time.monotonic() >= deadline:
            raise GatewayError(
                f"no model appeared under {watcher.source} within "
                f"{timeout:.1f}s"
            )
        time.sleep(interval)


def serve(
    sock: socket.socket,
    app: WorkerApp,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
) -> None:
    """The frame loop: strictly one request, one response. Returns on
    clean EOF (the supervisor hung up) or an explicit shutdown.

    The watcher polls on two paths: the socket read times out every
    ``poll_interval`` when the worker is idle, and a **busy** worker
    polls between requests once the interval has elapsed — a saturated
    fleet must still converge on new versions, or the version handshake
    would start bouncing every request once one worker got ahead.
    """
    sock.settimeout(poll_interval)
    last_poll = time.monotonic()
    while True:
        try:
            frame = recv_frame(sock)
        except socket.timeout:
            app.watcher.poll()
            last_poll = time.monotonic()
            continue
        except GatewayError:
            return
        if frame is None:
            return
        response = app.handle(frame)
        if response is None:
            return
        try:
            send_frame(sock, response)
        except (BrokenPipeError, ConnectionResetError):
            return
        if time.monotonic() - last_poll >= poll_interval:
            app.watcher.poll()
            last_poll = time.monotonic()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway.worker",
        description="one serving worker of a gateway fleet",
    )
    parser.add_argument(
        "--fd",
        type=int,
        required=True,
        help="inherited socketpair file descriptor",
    )
    parser.add_argument(
        "--watch",
        required=True,
        help="snapshot source directory (catalog, durable store, or "
        "single snapshot)",
    )
    parser.add_argument("--poll-interval", type=float, default=DEFAULT_POLL_INTERVAL)
    parser.add_argument("--load-timeout", type=float, default=DEFAULT_LOAD_TIMEOUT)
    parser.add_argument("--row-cache-size", type=int, default=4096)
    parser.add_argument("--response-cache-size", type=int, default=1024)
    args = parser.parse_args(argv)

    sock = socket.socket(fileno=args.fd)
    # A kill here is a worker dying *during* snapshot load, before its
    # first health OK; a delay rule is a slow-loading source.
    fault_point(LOAD_FAULT_POINT)
    watcher = RegistryWatcher(args.watch)
    wait_for_model(watcher, timeout=args.load_timeout)
    service = RecommendationService(
        watcher.registry,
        row_cache_size=args.row_cache_size,
        response_cache_size=args.response_cache_size,
    )
    try:
        serve(sock, WorkerApp(watcher, service), args.poll_interval)
    finally:
        sock.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
