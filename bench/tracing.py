"""Spans recorded from outside the program.

The traced run wraps the public entry points of each layer
(``Baseliner.compute``, ``RatingLog.append``, …) with a span for the
duration of one workload and restores them afterwards; ``src/repro`` is
never edited. Spans are kept in memory and written out when the
workload ends. The untraced run installs nothing, so the end-to-end
numbers pay no tracing cost at all.

A span's *self time* is its duration minus the part of that interval
its child spans cover — the time the layer itself was busy rather than
waiting on a layer below it.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request_id: str | None = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder with a call-stack parent link.

    Single-threaded by design: every workload calls into the traced
    layers from one thread (the load generators are never traced — the
    serving path is measured by the ladder and ``/metrics`` instead).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restores: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        record = Span(len(self.spans), name, self.clock(), parent=parent,
                      request_id=request_id)
        self.spans.append(record)
        if parent is not None:
            self.spans[parent].children.append(record.span_id)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def instrument(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`restore`. Handles plain functions, ``classmethod`` and
        ``staticmethod`` attributes of classes (inherited ones are
        shadowed on *owner* only) and module globals."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        inner = raw.__func__ if kind is not None else raw

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        own = attr in vars(owner)
        setattr(owner, attr, kind(traced) if kind is not None else traced)
        if own:
            self._restores.append(lambda: setattr(owner, attr, raw))
        else:
            self._restores.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        """Undo every :meth:`instrument`, newest first."""
        while self._restores:
            self._restores.pop()()

    # -- reading -----------------------------------------------------

    def named(self, name: str, within: Span | None = None) -> list[Span]:
        """Spans called *name*, optionally only descendants of *within*."""
        found = [s for s in self.spans if s.name == name]
        if within is None:
            return found
        return [s for s in found if self.descends(s, within)]

    def descends(self, span: Span, ancestor: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent == ancestor.span_id:
                return True
            parent = self.spans[parent].parent
        return False

    def total(self, name: str, within: Span | None = None) -> float:
        """Summed duration of the *outermost* spans called *name* (a
        re-entrant call is already inside its caller's interval)."""
        spans = self.named(name, within)
        ids = {s.span_id for s in spans}
        return sum(s.duration for s in spans if not self._has_ancestor_in(s, ids))

    def _has_ancestor_in(self, span: Span, ids: set[int]) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in ids:
                return True
            parent = self.spans[parent].parent
        return False

    def durations(self, name: str, within: Span | None = None) -> list[float]:
        return [s.duration for s in self.named(name, within)]

    def self_time(self, span: Span) -> float:
        return self_time(span.duration,
                         [self.spans[c].duration for c in span.children])

    def child_coverage(self, span: Span) -> float:
        """Share of *span*'s duration covered by its direct children."""
        if span.duration <= 0:
            return 0.0
        return 1.0 - self.self_time(span) / span.duration

    def dump(self) -> list[dict]:
        """The spans as plain dicts (``trace.json``)."""
        return [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request_id": s.request_id,
                "self_s": self.self_time(s),
            }
            for s in self.spans
        ]


def self_time(duration: float, child_durations: list[float]) -> float:
    """Duration minus the children's cover, floored at zero (children
    of a single-threaded span never overlap each other)."""
    return max(0.0, duration - sum(child_durations))
