"""Cross-process request tracing: contexts, spans, decision events.

A :class:`TraceContext` is born at HTTP ingress (honouring a
well-formed incoming ``X-Request-Id``), echoed back on **every**
response as ``X-Request-Id``, and carried in every protocol frame as a
top-level ``"trace"`` field — so one id follows a request from the
client, through the coalescer and the pool's retry/hedge
machinery, into the worker subprocess that scored it, and back into
every log line any of those layers emitted.

Spans and events are **cheap when dark**: a :func:`span` always
records its duration into the histogram it was given (that is the
metrics contract), but the JSON log line is only rendered when the
``REPRO_OBS_LOG`` environment variable is set to something truthy —
the gate is one dict lookup, checked at emit time so a driver can
flip it per process.

Log schema — one JSON object per line on the ``repro.obs`` logger,
keys sorted::

    {"event": "gateway.request", "trace_id": "…", "span_id": "…",
     "ts": 1754600000.123456, "duration_ms": 4.21, …extra fields}

``duration_ms`` is present on span lines only; decision events
(``pool.retry``, ``pool.hedge``, ``gateway.shed``, …) carry whatever
fields the decision site attached.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time

__all__ = [
    "OBS_LOG_ENV",
    "TraceContext",
    "event",
    "log_enabled",
    "new_id",
    "span",
]

#: set truthy (anything but ""/"0"/"false") to emit span/event JSON
#: log lines; metrics recording is unconditional either way.
OBS_LOG_ENV = "REPRO_OBS_LOG"

logger = logging.getLogger("repro.obs")

#: what we accept as a client-supplied request id — anything else is
#: replaced rather than echoed (a header is attacker-controlled input;
#: an unbounded or exotic one must not reach logs verbatim).
_REQUEST_ID = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def log_enabled() -> bool:
    return os.environ.get(OBS_LOG_ENV, "") not in ("", "0", "false")


def new_id() -> str:
    """A 64-bit random hex id. ``os.urandom`` on purpose: ids must be
    unique across the gateway and N worker processes, where any seeded
    generator would collide by construction."""
    return os.urandom(8).hex()


class TraceContext:
    """One request's identity: a fleet-unique ``trace_id``, the current
    ``span_id``, and baggage (deadline budget, ``min_version``) that
    decision sites may stamp for their log lines."""

    __slots__ = ("trace_id", "span_id", "baggage")

    def __init__(
        self,
        trace_id: str | None = None,
        span_id: str | None = None,
        baggage: dict | None = None,
    ) -> None:
        self.trace_id = trace_id if trace_id else new_id()
        self.span_id = span_id if span_id else new_id()
        self.baggage = baggage if baggage is not None else {}

    @classmethod
    def from_request_id(cls, request_id: str | None) -> "TraceContext":
        """The ingress constructor: adopt a well-formed incoming
        ``X-Request-Id`` as the trace id, mint one otherwise."""
        if request_id and _REQUEST_ID.match(request_id):
            return cls(trace_id=request_id)
        return cls()

    def child(self) -> "TraceContext":
        """Same trace, fresh span — one hop deeper."""
        return TraceContext(trace_id=self.trace_id, baggage=dict(self.baggage))

    def to_wire(self) -> dict:
        """The frame field: minimal, JSON-plain."""
        wire = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.baggage:
            wire["baggage"] = dict(self.baggage)
        return wire

    @classmethod
    def from_wire(cls, wire: object) -> "TraceContext":
        """Rebuild from a frame's ``"trace"`` field; tolerant of
        absent/malformed input (an untraced frame still serves)."""
        if not isinstance(wire, dict):
            return cls()
        trace_id = wire.get("trace_id")
        span_id = wire.get("span_id")
        baggage = wire.get("baggage")
        return cls(
            trace_id=str(trace_id) if isinstance(trace_id, str) and trace_id else None,
            span_id=str(span_id) if isinstance(span_id, str) and span_id else None,
            baggage=dict(baggage) if isinstance(baggage, dict) else None,
        )


def _emit(name: str, trace: "TraceContext | None", fields: dict) -> None:
    record: dict[str, object] = {"ts": round(time.time(), 6), "event": name}
    if trace is not None:
        record["trace_id"] = trace.trace_id
        record["span_id"] = trace.span_id
    record.update(fields)
    logger.info("%s", json.dumps(record, sort_keys=True, default=str))


class span:
    """A timed section: ``with span("worker.serve", trace, hist): …``.

    Always observes the duration into *histogram* (when given); emits
    the JSON log line only under ``REPRO_OBS_LOG``. Exceptions pass
    through untouched, stamped onto the log line as ``error``.
    """

    __slots__ = ("name", "trace", "histogram", "fields", "_t0")

    def __init__(
        self,
        name: str,
        trace: TraceContext | None = None,
        histogram=None,
        **fields: object,
    ) -> None:
        self.name = name
        self.trace = trace
        self.histogram = histogram
        self.fields = fields
        self._t0 = 0.0

    def __enter__(self) -> "span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        if self.histogram is not None:
            self.histogram.observe(elapsed)
        if log_enabled():
            fields = dict(self.fields)
            fields["duration_ms"] = round(elapsed * 1000.0, 3)
            if exc is not None:
                fields["error"] = f"{type(exc).__name__}: {exc}"
            _emit(self.name, self.trace, fields)
        return False


def event(name: str, trace: TraceContext | None = None, **fields: object) -> None:
    """A decision marker (retry, hedge, shed, fallback): a log line
    under ``REPRO_OBS_LOG``, free otherwise — callers bump their own
    counters unconditionally beside it."""
    if log_enabled():
        _emit(name, trace, fields)
