"""scripts/check_paper_artifacts.py against a throwaway git repository,
and the write guard that keeps ``benchmarks/results/`` out of plain runs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_paper_artifacts.py"


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_paper_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)

    def git(*args):
        subprocess.run(
            ("git", "-c", "user.name=t", "-c", "user.email=t@t", *args),
            cwd=tmp_path, check=True, capture_output=True)

    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "fig11.txt").write_text("speedup 9.1\n")
    (results / "fig1b.txt").write_text("pairs 62407\n")
    (results / "BENCH_gateway.json").write_text("{}\n")
    (tmp_path / "CHANGES.md").write_text("- PR 1: seed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    return module, tmp_path, results


def test_passes_when_nothing_moved(gate):
    module, _, results = gate
    (results / "BENCH_gateway.json").write_text('{"noise": 1}\n')  # not an artefact
    assert module.main() == 0


def test_fails_on_an_unacknowledged_move_and_passes_once_named(gate, capsys):
    module, root, results = gate
    (results / "fig11.txt").write_text("speedup 8.7\n")
    (results / "table9.txt").write_text("new artefact\n")
    assert module.drifted() == [
        "benchmarks/results/fig11.txt", "benchmarks/results/table9.txt"]
    assert module.main() == 1
    assert "fig11.txt (UNEXPLAINED)" in capsys.readouterr().out

    # Naming a different artefact (fig1b, a prefix of nothing here) is
    # not enough; each moved file must be named.
    with (root / "CHANGES.md").open("a") as changes:
        changes.write("- PR 2: fig1b and table9 moved because ...\n")
    assert module.main() == 1
    with (root / "CHANGES.md").open("a") as changes:
        changes.write("- PR 2: fig11.txt and table9 moved because ...\n")
    assert module.main() == 0


def test_results_are_written_only_on_a_recording_run(tmp_path, monkeypatch):
    """Every write under ``benchmarks/results/`` goes through
    ``benchmarks/conftest.py::write_result``; without
    ``REPRO_BENCH_RECORD=1`` (a plain Tier-1 run) the tree stays clean."""
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", REPO / "benchmarks" / "conftest.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")

    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    harness.write_result("fig1b.txt", "pairs 1\n")
    harness.record_json("gateway", "numpy", {"p50_ms": 3.0})
    assert not (tmp_path / "results").exists()

    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    harness.write_result("fig1b.txt", "pairs 1\n")
    harness.record_json("gateway", "numpy", {"p50_ms": 3.0})
    harness.record_json("gateway", "second", {"p50_ms": 9.0})
    assert (tmp_path / "results" / "fig1b.txt").read_text() == "pairs 1\n"
    merged = json.loads((tmp_path / "results" / "BENCH_gateway.json").read_text())
    assert sorted(merged["backends"]) == ["numpy", "second"]

    # No bench file reaches around the helper.
    for bench in (REPO / "benchmarks").glob("test_*_bench.py"):
        assert "RESULTS_DIR" not in bench.read_text(), bench.name
