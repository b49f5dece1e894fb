"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures at full
(default) experiment scale, prints the resulting table to stdout (pytest
shows it with ``-s``), and reports the wall-clock cost through
pytest-benchmark. Experiments are deterministic, so a single round is
meaningful — we use ``benchmark.pedantic(rounds=1)`` throughout.

Run with::

    pytest benchmarks/ --benchmark-only

Nothing is written unless ``REPRO_BENCH_RECORD=1``: a plain run (the
Tier-1 command collects this tree) leaves ``benchmarks/results/`` as
committed, so timing files stop riding along in unrelated diffs. CI's
``paper-artifacts`` and ``bench-smoke`` jobs set it; so does anyone
refreshing the committed results on purpose.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(filename: str, text: str) -> None:
    """The one place a file under ``benchmarks/results/`` is written —
    and only on a recording run (``REPRO_BENCH_RECORD=1``)."""
    if os.environ.get("REPRO_BENCH_RECORD", "") == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / filename).write_text(text)


def record(result) -> None:
    """Print and (on a recording run) persist an ExperimentResult."""
    rendered = result.render()
    print()
    print(rendered)
    write_result(f"{result.experiment_id}.txt", rendered + "\n")


def record_json(name: str, backend: str, payload: dict) -> None:
    """Merge one backend's results into ``BENCH_<name>.json``.

    The machine-readable counterpart of the ``*_{backend}.txt`` tables:
    one file per benchmark, keyed by store backend, so the perf
    trajectory can be diffed across PRs instead of read out of prose.
    Callers only write on full-size runs (same rule as the text files).
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    data: dict = {"benchmark": name}
    if path.exists():
        data = json.loads(path.read_text())
    data.setdefault("backends", {})[backend] = payload
    write_result(path.name, json.dumps(data, indent=2, sort_keys=True) + "\n")
