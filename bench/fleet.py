"""Child processes of the serve workloads: the publisher
(``bench/writer.py``) and the real gateway fleet
(``python -m repro.cli serve-http --port 0 --workers 2`` at CLI
defaults), each in its own session so that a failed run can take its
whole process group down."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.gateway.loadgen import GatewayClient

from bench import common

WORKERS = 2
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 20.0
_LISTENING = re.compile(r"gateway listening on http://([^:]+):(\d+)")


class Child:
    """A subprocess in its own session, with line-oriented stdout."""

    def __init__(self, argv: list[str], log_path: Path, stdin: bool = False) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        self._pending = b""
        self._stopped = False

    def read_line(self, timeout: float) -> str:
        """The next stdout line; raises when the child dies or stalls.
        Reads the raw descriptor so a line already buffered is never
        waited for again."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise common.BenchError(f"{self.proc.args[:4]} said nothing "
                                        f"for {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise common.BenchError(
                        f"{self.proc.args[:4]} exited {self.proc.wait()} early")
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode("utf-8")

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def stop(self, sig: int = signal.SIGTERM) -> int:
        """Ask the child to exit, wait, and kill its whole group if it
        does not (or leaves anything behind). Idempotent."""
        proc = self.proc
        if self._stopped:
            return proc.returncode
        self._stopped = True
        try:
            if proc.poll() is None:
                if proc.stdin is not None:
                    try:
                        proc.stdin.close()
                    except OSError:
                        pass
                if sig:
                    proc.send_signal(sig)
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
            except (ProcessLookupError, PermissionError):
                pass
            code = proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            self._log.close()
        return code


class Writer(Child):
    """``bench/writer.py``: ``ready`` once version 1 is published."""

    def __init__(self, seed: int, directory: Path, period: float,
                 batches: int) -> None:
        super().__init__(
            [sys.executable, str(common.ROOT / "bench" / "writer.py"),
             "--seed", str(seed), "--dir", str(directory),
             "--period", str(period), "--batches", str(batches)],
            directory / "writer.log", stdin=True)
        self.catalog = directory / "catalog"
        try:
            self.ready = self.next_event("ready", START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def next_event(self, kind: str, timeout: float) -> dict:
        event = json.loads(self.read_line(timeout))
        if event.get("event") != kind:
            raise common.BenchError(f"writer said {event!r}, expected {kind!r}")
        return event

    def finish(self) -> tuple[list[dict], dict]:
        """Stop publishing; returns the batch events and the ``done``
        event (which carries the writer's peak RSS)."""
        if self.proc.poll() is None:
            try:
                self.send("stop")
            except (BrokenPipeError, OSError):
                pass
        batches = []
        while True:
            event = json.loads(self.read_line(STOP_TIMEOUT_S))
            if event["event"] == "done":
                self.stop(sig=0)
                return batches, event
            batches.append(event)


class Gateway(Child):
    """The fleet under test, listening on an ephemeral port."""

    def __init__(self, catalog: Path, log_dir: Path) -> None:
        super().__init__(
            [sys.executable, "-m", "repro.cli", "serve-http", "--watch",
             str(catalog), "--port", "0", "--workers", str(WORKERS)],
            log_dir / "gateway.log")
        try:
            match = _LISTENING.search(self.read_line(START_TIMEOUT_S))
            if match is None:
                raise common.BenchError("gateway did not report its port")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self) -> GatewayClient:
        return GatewayClient(self.host, self.port)

    def warm(self, users: list[str], passes: int) -> None:
        """Serial 200s for *users*, *passes* times over — the idle
        queue hands serial requests to the workers in turn, so two
        passes put every user through both workers' lazy set-up and
        caches before anything is timed."""
        client = self.client()
        try:
            for _ in range(passes):
                for user in users:
                    client.get(f"/recommend?user={user}&n=10")
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        """Gateway plus its live workers (``VmHWM`` each)."""
        pids = [self.proc.pid, *common.child_pids(self.proc.pid)]
        return sum(common.process_peak_rss_mb(pid) for pid in pids)

    def scrape(self) -> dict[str, float]:
        """``/metrics`` as ``{'name{labels}': value}``."""
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        return parse_prometheus(text)


def parse_prometheus(text: str) -> dict[str, float]:
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def counter_delta(before: dict[str, float], after: dict[str, float],
                  prefix: str) -> float:
    """Growth of every sample whose key starts with *prefix* (all label
    sets summed) between two scrapes."""
    return sum(value - before.get(key, 0.0)
               for key, value in after.items() if key.startswith(prefix))
