"""The benchmark's own load generator (threads over keep-alive
``repro.gateway.loadgen.GatewayClient`` connections).

Two disciplines, as the traffic they stand for:

* **closed loop** — each client sends its next request when the
  previous one returns: callers that wait for a reply. Measures what
  the serving path can sustain; latency excludes client-side queueing.
* **open loop** — requests are due on a seeded Poisson schedule
  whatever the server does: independent users. Latency is charged from
  the *due* time, so a stall is paid by every request queued behind
  it, and how late the generator itself sent each request is reported
  (a late generator means the numbers are the generator's, not the
  server's).

Every answer is recorded with the connection it came back on, its
model version and ``time.monotonic()`` receive time, and its Top-N is
kept so the correctness gate can replay a sample of them.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import GatewayError
from repro.gateway.loadgen import GatewayClient

from bench import inputs, spec, stats

#: open-loop sender threads/connections. Few on purpose: sizing runs
#: with 32 moved the quiet p50 twice as much between identical runs as
#: with 8 (more threads, more interpreter-lock hand-offs inside the
#: measured interval). ``late_p99_ms`` says when 8 were not enough.
OPEN_LOOP_SENDERS = 8
#: interpreter-lock hand-off period while generating load; the default
#: 5 ms is the size of the latencies being measured.
SWITCH_INTERVAL_S = 0.0005
SAMPLE_RESPONSES = 200


@dataclass
class Answer:
    connection: int
    user: str
    status: int          # 0 = transport failure
    latency_s: float     # from send (closed) or from due time (open)
    late_s: float        # open loop: send time − due time
    received: float      # time.monotonic() when the response was read
    version: int
    rung: int = 0
    due: float = 0.0     # open loop: offset of the due time from the origin


@dataclass
class LoadReport:
    answers: list[Answer] = field(default_factory=list)
    served: list[tuple[str, int, list]] = field(default_factory=list)
    elapsed_s: float = 0.0

    def sampled(self, n: int = SAMPLE_RESPONSES) -> list[tuple[str, int, list]]:
        """*n* served ``(user, version, top-n)`` answers, evenly spaced
        over the run (so every published version is represented)."""
        stride = max(1, len(self.served) // n)
        return self.served[::stride][:n]

    @property
    def sent(self) -> int:
        return len(self.answers)

    @property
    def ok(self) -> list[Answer]:
        return [a for a in self.answers if a.status == 200]

    @property
    def refused(self) -> int:
        return sum(1 for a in self.answers if a.status == 429)

    @property
    def failed(self) -> int:
        """Transport failures and non-200/429 statuses."""
        return sum(1 for a in self.answers if a.status not in (200, 429))

    def ok_within_limit(self, answers: list[Answer] | None = None) -> int:
        limit = spec.LATENCY_LIMIT_MS / 1000.0
        pool = self.answers if answers is None else answers
        return sum(1 for a in pool if a.status == 200 and a.latency_s <= limit)

    def versions_monotone(self) -> bool:
        """Versions never go backwards on any one connection."""
        last: dict[int, int] = {}
        for answer in sorted(self.ok, key=lambda a: a.received):
            if answer.version < last.get(answer.connection, 0):
                return False
            last[answer.connection] = answer.version
        return True

    def first_seen(self, version: int) -> float | None:
        """Receive time of the first response at or past *version*."""
        times = [a.received for a in self.ok if a.version >= version]
        return min(times) if times else None


class _Recorder:
    """Thread-safe sink for answers and their served Top-N."""

    def __init__(self) -> None:
        self.report = LoadReport()
        self._lock = threading.Lock()

    def add(self, answer: Answer, payload: dict) -> None:
        with self._lock:
            self.report.answers.append(answer)
            if answer.status == 200:
                self.report.served.append(
                    (answer.user, answer.version, payload["recommendations"]))


@contextmanager
def _fast_handoff():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(threads: list[threading.Thread], release, budget_s: float,
                 what: str) -> None:
    """Start *threads*, call *release* (the start gate), join them all."""
    with _fast_handoff():
        for thread in threads:
            thread.start()
        release()
        for thread in threads:
            thread.join(budget_s + 60.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"{what} did not finish")


def _ask(client: GatewayClient, user: str) -> tuple[int, dict]:
    try:
        return client.request(f"/recommend?user={user}&n={inputs.TOP_N}")
    except GatewayError:
        return 0, {}


def closed_loop(host: str, port: int, order: list[str], clients: int,
                seconds: float) -> LoadReport:
    """*clients* back-to-back connections for *seconds*; client ``c``
    visits ``order[c], order[c + clients], …`` cyclically, so together
    they walk the permutation lap after lap."""
    recorder = _Recorder()
    start_gate = threading.Barrier(clients + 1)
    deadline = [0.0]

    def loop(c: int) -> None:
        client = GatewayClient(host, port)
        position = c
        start_gate.wait()
        try:
            while time.perf_counter() < deadline[0]:
                user = order[position % len(order)]
                position += clients
                sent = time.perf_counter()
                status, payload = _ask(client, user)
                done = time.perf_counter()
                recorder.add(Answer(c, user, status, done - sent, 0.0,
                                    time.monotonic(), payload.get("version", 0)),
                             payload)
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(clients)]
    started = [0.0]

    def release() -> None:
        started[0] = time.perf_counter()
        deadline[0] = started[0] + seconds
        start_gate.wait()

    _run_threads(threads, release, seconds, "a closed-loop client")
    recorder.report.elapsed_s = time.perf_counter() - started[0]
    return recorder.report


def open_loop(host: str, port: int, rungs: list[tuple[list[float], list[str]]],
              rung_seconds: float, first_rung: int = 0) -> LoadReport:
    """Play each rung's ``(due offsets, users)`` schedule back to back
    (answers are labelled ``first_rung``, ``first_rung + 1``, …).

    Sender threads take arrivals in order from one shared cursor, sleep
    until the arrival is due, send, and charge latency from the due
    time. A rung ends on its clock, not when its answers are in."""
    schedule: list[tuple[float, str, int]] = []
    for rung, (due, users) in enumerate(rungs):
        schedule.extend((rung * rung_seconds + offset, user, first_rung + rung)
                        for offset, user in zip(due, users))
    recorder = _Recorder()
    cursor = [0]
    cursor_lock = threading.Lock()
    start_gate = threading.Barrier(OPEN_LOOP_SENDERS + 1)
    origin = [0.0]

    def loop(c: int) -> None:
        client = GatewayClient(host, port)
        start_gate.wait()
        try:
            while True:
                with cursor_lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                offset, user, rung = schedule[index]
                due = origin[0] + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, payload = _ask(client, user)
                done = time.perf_counter()
                recorder.add(Answer(c, user, status, done - due, sent - due,
                                    time.monotonic(), payload.get("version", 0),
                                    rung, offset), payload)
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(OPEN_LOOP_SENDERS)]
    def release() -> None:
        origin[0] = time.perf_counter() + 0.05
        start_gate.wait()

    _run_threads(threads, release, rung_seconds * len(rungs),
                 "an open-loop sender")
    recorder.report.elapsed_s = time.perf_counter() - origin[0]
    return recorder.report


def backlog_grew(answers: list[Answer]) -> bool:
    """A rung whose last third of requests (by due order) waited more
    than twice as long as its first third, and longer than the latency
    limit, is queueing faster than it drains."""
    if len(answers) < 30:
        return False
    answers = sorted(answers, key=lambda a: a.due)
    third = len(answers) // 3
    head = stats.median([a.latency_s for a in answers[:third]])
    tail = stats.median([a.latency_s for a in answers[-third:]])
    return tail > 2.0 * head and tail > spec.LATENCY_LIMIT_MS / 1000.0
