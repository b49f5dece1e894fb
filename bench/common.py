"""What every workload shares: the run context, the result record, the
environment checks and the process bookkeeping."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench import stats
from bench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space stays inside the checkout (ignored by git) — the
#: benchmark reads and writes nowhere else.
TMP_ROOT = ROOT / ".bench_tmp"

#: each of these selects a different program (backend, shard layout,
#: fault plan, span logging); a result taken under one is not a result
#: of this benchmark.
REFUSED_ENV = (
    "REPRO_PURE_PYTHON",
    "REPRO_SHARDS",
    "REPRO_SHARD_PROCS",
    "REPRO_FAULT_PLAN",
    "REPRO_OBS_LOG",
)

#: set-ups a run makes when untraced; their median is ``setup_s``.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark itself cannot run (bad environment, dead fleet)."""


def refuse_foreign_env(environ=os.environ) -> None:
    present = [name for name in REFUSED_ENV if environ.get(name)]
    if present:
        raise BenchError(
            f"refusing to run with {', '.join(present)} set: it selects a "
            f"different program than the one this benchmark measures")


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def child_env() -> dict[str, str]:
    """Environment for every subprocess: the program importable, the
    benchmark importable, nothing else changed."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    tracer: Tracer | None
    tmp: Path

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def span(self, name: str):
        """A span on the traced run, nothing on the untraced one."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @property
    def setup_repeats(self) -> int:
        # the traced run reports no set-up time; one set-up is enough.
        return 1 if self.traced else SETUP_REPEATS


@dataclass
class Result:
    """One workload run: named metric values with their sample counts,
    the operation census and the correctness gates."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(n)

    def put_latency(self, walls_s: list[float]) -> None:
        """The two universal latency metrics from operation walls."""
        millis = [w * 1000.0 for w in walls_s]
        self.put("latency_p50_ms", stats.median(millis), len(millis))
        self.put("latency_p90_ms", stats.percentile(millis, 0.90), len(millis))
        # the highest percentile this sample can actually resolve
        self.info["supported_percentile"] = stats.highest_supported(len(millis))

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(g["ok"] for g in self.gates)

    def finish(self) -> None:
        self.put("failed_share",
                 self.failed / self.attempted if self.attempted else 1.0,
                 self.attempted)


def make_tmp(label: str) -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    path = TMP_ROOT / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_tmp(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only succeeds once the last run has left
    except OSError:
        pass


# -- memory ----------------------------------------------------------


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text(encoding="ascii")
    except OSError:
        return []
    return [int(token) for token in text.split()]


# -- environment stamp -----------------------------------------------


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "loadavg_before": list(os.getloadavg()),
    }
