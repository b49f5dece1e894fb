"""reprolint's own test suite.

Each rule gets a seeded violation (must be caught) and a clean twin
(must pass); the CLI is pinned on exit codes (0 clean / 1 findings /
2 usage-or-parse errors), the suppression and baseline workflows, and
``list-points`` agreeing with the registry extraction. The last test
runs the real checker over the real tree — the same gate CI applies.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_TOOLS = str(REPO_ROOT / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

from reprolint.cli import main  # noqa: E402
from reprolint.core import Checker, Severity  # noqa: E402
from reprolint.rules import ALL_RULES  # noqa: E402
from reprolint.rules.faultpoints import load_registry  # noqa: E402

# ----------------------------------------------------------------------
# Fixture-repo plumbing
# ----------------------------------------------------------------------


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def check(root: Path, *rels: str):
    checker = Checker(ALL_RULES, root)
    return checker.run([root / rel for rel in rels])


def rule_ids(result) -> list[str]:
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# Per-rule fixtures: seeded violation caught, clean twin passes
# ----------------------------------------------------------------------

# (rule id, repo-relative path, violating source, clean twin source)
_RULE_FIXTURES = [
    (
        "REP101",
        "src/repro/engine/route.py",
        """\
        def route(item, n):
            return hash(item) % n
        """,
        """\
        from repro.engine.partitioner import stable_hash


        def route(item, n):
            return stable_hash(item) % n
        """,
    ),
    (
        "REP102",
        "src/repro/engine/sweep.py",
        """\
        import random


        def pick(items):
            return random.choice(items)
        """,
        """\
        import random


        def pick(items, seed):
            return random.Random(seed).choice(items)
        """,
    ),
    (
        "REP102",
        "src/repro/core/sample.py",
        """\
        import numpy as np


        def draw(n):
            return np.random.default_rng().random(n)
        """,
        """\
        import numpy as np


        def draw(n, seed):
            return np.random.default_rng(seed).random(n)
        """,
    ),
    (
        "REP103",
        "src/repro/serving/tick.py",
        """\
        import time


        def stamp():
            return time.time()
        """,
        """\
        import time


        def elapsed(t0):
            return time.monotonic() - t0
        """,
    ),
    (
        "REP301",
        "src/repro/serving/publish.py",
        """\
        import os


        def publish(tmp, final):
            os.replace(tmp, final)
        """,
        """\
        import os


        def publish(tmp, final, dir_fd):
            with open(tmp) as handle:  # noqa: file io fixture
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            _fsync_dir(dir_fd)


        def _fsync_dir(dir_fd):
            os.fsync(dir_fd)
        """,
    ),
    (
        "REP401",
        "src/repro/gateway/pause.py",
        """\
        import time


        async def pause():
            time.sleep(1.0)
        """,
        """\
        import asyncio


        async def pause():
            await asyncio.sleep(1.0)
        """,
    ),
    (
        "REP401",
        "src/repro/gateway/reap.py",
        """\
        async def reap(handle):
            handle.proc.wait()
        """,
        """\
        import asyncio


        async def reap(handle):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, handle.proc.wait)
        """,
    ),
    (
        "REP402",
        "src/repro/gateway/task.py",
        """\
        import asyncio


        async def step():
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                return None
        """,
        """\
        import asyncio


        async def step():
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                raise
        """,
    ),
    (
        "REP403",
        "src/repro/gateway/flush.py",
        """\
        import asyncio


        class Batcher:
            def flush(self, group):
                asyncio.ensure_future(self.dispatch(group))
        """,
        """\
        import asyncio


        class Batcher:
            def flush(self, group):
                task = asyncio.ensure_future(self.dispatch(group))
                self.frames.add(task)
                task.add_done_callback(self.frames.discard)
        """,
    ),
    (
        "REP403",
        "src/repro/cli.py",
        """\
        async def run(loop, serve):
            loop.create_task(serve())
        """,
        """\
        async def run(loop, serve):
            server = loop.create_task(serve())
            await server
        """,
    ),
    (
        "REP501",
        "src/repro/util.py",
        """\
        def close(handle):
            try:
                handle.close()
            except:
                log("close failed")
        """,
        """\
        def close(handle):
            try:
                handle.close()
            except OSError:
                log("close failed")
        """,
    ),
    (
        "REP502",
        "scripts/cleanup.py",
        """\
        def cleanup(path):
            try:
                path.unlink()
            except Exception:
                pass
        """,
        """\
        def cleanup(path):
            try:
                path.unlink()
            except (OSError, RuntimeError):
                pass
        """,
    ),
    (
        "REP701",
        "src/repro/serving/report.py",
        """\
        def report(stats):
            print("served", stats["n"])
        """,
        """\
        import logging

        logger = logging.getLogger("repro.serving")


        def report(stats):
            logger.info("served %d", stats["n"])


        def main():
            print("cli output is fine here")


        if __name__ == "__main__":
            print("and here")
            main()
        """,
    ),
]


@pytest.mark.parametrize(
    "rule_id,rel,bad,good",
    _RULE_FIXTURES,
    ids=[f"{rid}:{Path(rel).stem}" for rid, rel, _, _ in _RULE_FIXTURES],
)
def test_rule_catches_seeded_violation(tmp_path, rule_id, rel, bad, good):
    write(tmp_path, rel, bad)
    result = check(tmp_path, rel)
    assert rule_id in rule_ids(result), (
        f"{rule_id} missed its seeded violation in {rel}: "
        f"{result.findings}"
    )


@pytest.mark.parametrize(
    "rule_id,rel,bad,good",
    _RULE_FIXTURES,
    ids=[f"{rid}:{Path(rel).stem}" for rid, rel, _, _ in _RULE_FIXTURES],
)
def test_rule_passes_clean_twin(tmp_path, rule_id, rel, bad, good):
    write(tmp_path, rel, good)
    result = check(tmp_path, rel)
    assert rule_id not in rule_ids(result), (
        f"{rule_id} false positive on the clean twin of {rel}: "
        f"{result.findings}"
    )


def test_every_rule_has_a_fixture():
    covered = {rule_id for rule_id, _, _, _ in _RULE_FIXTURES}
    covered |= {"REP601", "REP602"}  # the drift pair, below
    all_ids = {rule.id for rule in ALL_RULES} | {
        getattr(rule, "unexercised_id", rule.id) for rule in ALL_RULES
    }
    assert covered == all_ids, (
        "rules without a seeded-violation fixture: "
        f"{sorted(all_ids - covered)}"
    )


# ----------------------------------------------------------------------
# Rule edge cases
# ----------------------------------------------------------------------


def test_salted_hash_exempts_dunder_hash(tmp_path):
    write(
        tmp_path,
        "src/repro/engine/part.py",
        """\
        class Partitioner:
            def __hash__(self):
                return hash(("Partitioner", 4))
        """,
    )
    result = check(tmp_path, "src/repro/engine/part.py")
    assert rule_ids(result) == []


def test_determinism_rules_skip_synthetic_and_gateway(tmp_path):
    body = """\
    import random


    def draw():
        return random.random()
    """
    write(tmp_path, "src/repro/data/synthetic.py", body)
    write(tmp_path, "src/repro/gateway/jitter.py", body)
    result = check(
        tmp_path,
        "src/repro/data/synthetic.py",
        "src/repro/gateway/jitter.py",
    )
    assert "REP102" not in rule_ids(result)


def test_drift_rule_flags_both_directions(tmp_path):
    write(
        tmp_path,
        "src/repro/durability/log.py",
        """\
        def append(record):
            fault_point("wal.append.write")
            fault_point("wal.orphan.point")
        """,
    )
    write(
        tmp_path,
        "tests/test_wal.py",
        """\
        def test_append_crash():
            plan = FaultPlan(rules=[
                FaultRule("wal.append.write", "error"),
                FaultRule("wal.renamed.point", "error"),
            ])
        """,
    )
    result = check(tmp_path, "src/repro/durability/log.py")
    by_rule = {finding.rule: finding.message for finding in result.findings}
    assert "wal.renamed.point" in by_rule["REP601"]
    assert "wal.orphan.point" in by_rule["REP602"]


def test_drift_rule_accepts_globs_wildcards_and_test_namespace(tmp_path):
    write(
        tmp_path,
        "src/repro/durability/log.py",
        """\
        def append(record):
            fault_point("wal.append.write")
            fault_point("wal.fsync")
            frame_fault("gateway.worker.send")
        """,
    )
    write(
        tmp_path,
        "tests/test_wal.py",
        """\
        def test_glob_and_sweep(index):
            FaultRule("wal.*", "error")
            FaultRule("test.synthetic", "error")
            FaultRule("*", "crash", after=index, times=1)
        """,
    )
    result = check(tmp_path, "src/repro/durability/log.py")
    assert rule_ids(result) == []


def test_inline_suppression_counts_as_suppressed(tmp_path):
    write(
        tmp_path,
        "src/repro/engine/route.py",
        """\
        def route(item, n):
            return hash(item) % n  # reprolint: disable=REP101
        """,
    )
    result = check(tmp_path, "src/repro/engine/route.py")
    assert rule_ids(result) == []
    assert [f.rule for f in result.suppressed] == ["REP101"]


def test_findings_are_error_severity_by_default():
    assert all(rule.severity is Severity.ERROR for rule in ALL_RULES)


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------

_CLEAN = """\
def route(item, n):
    return int(item) % n
"""

_DIRTY = """\
def route(item, n):
    return hash(item) % n
"""


def _cli(root: Path, *argv: str) -> int:
    return main(["--root", str(root), *argv])


def test_check_exits_zero_on_clean_tree(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/route.py", _CLEAN)
    code = _cli(tmp_path, "check", str(tmp_path / "src"))
    assert code == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_check_exits_one_on_findings(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/route.py", _DIRTY)
    code = _cli(tmp_path, "check", str(tmp_path / "src"))
    assert code == 1
    out = capsys.readouterr().out
    assert "REP101" in out
    assert "src/repro/engine/route.py:2" in out


def test_check_exits_two_on_missing_path(tmp_path, capsys):
    code = _cli(tmp_path, "check", str(tmp_path / "nope"))
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_check_exits_two_on_parse_error(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/broken.py", "def oops(:\n")
    code = _cli(tmp_path, "check", str(tmp_path / "src"))
    assert code == 2
    assert "PARSE ERROR" in capsys.readouterr().out


def test_check_json_report_is_parseable(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/route.py", _DIRTY)
    code = _cli(tmp_path, "check", str(tmp_path / "src"), "--format", "json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "reprolint-report"
    assert [f["rule"] for f in payload["findings"]] == ["REP101"]


def test_baseline_workflow_grandfathers_findings(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/route.py", _DIRTY)
    src = str(tmp_path / "src")
    assert _cli(tmp_path, "check", src) == 1
    capsys.readouterr()

    assert _cli(tmp_path, "baseline", src) == 0
    assert "1 baseline entry" in capsys.readouterr().out
    baseline = json.loads((tmp_path / "tools/reprolint/baseline.json").read_text())
    assert baseline["format"] == "reprolint-baseline"
    assert len(baseline["entries"]) == 1

    # Baselined: clean exit, but the report still counts it.
    assert _cli(tmp_path, "check", src) == 0
    assert "1 baselined" in capsys.readouterr().out

    # --no-baseline resurfaces it; a new finding is never masked.
    assert _cli(tmp_path, "check", src, "--no-baseline") == 1
    capsys.readouterr()
    write(
        tmp_path,
        "src/repro/engine/other.py",
        "import time\n\n\ndef f():\n    return time.time()\n",
    )
    assert _cli(tmp_path, "check", src) == 1
    assert "REP103" in capsys.readouterr().out


def test_baseline_matching_survives_line_moves(tmp_path, capsys):
    path = write(tmp_path, "src/repro/engine/route.py", _DIRTY)
    src = str(tmp_path / "src")
    assert _cli(tmp_path, "baseline", src) == 0
    # Unrelated edits above the finding shift its line; the baseline
    # matches on (rule, path, obj, message), so it stays grandfathered.
    path.write_text("X = 1\n\n\n" + _DIRTY, encoding="utf-8")
    assert _cli(tmp_path, "check", src) == 0


def test_corrupt_baseline_is_a_usage_error(tmp_path, capsys):
    write(tmp_path, "src/repro/engine/route.py", _CLEAN)
    write(tmp_path, "tools/reprolint/baseline.json", '{"format": "nope"}')
    code = _cli(tmp_path, "check", str(tmp_path / "src"))
    assert code == 2
    assert "bad baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# list-points and the real tree
# ----------------------------------------------------------------------


def test_list_points_matches_registry_extraction(capsys):
    declarations, references = load_registry(REPO_ROOT)
    assert declarations, "the real tree declares fault points"
    code = _cli(REPO_ROOT, "list-points", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "reprolint-points"
    listed = {entry["point"] for entry in payload["points"]}
    assert listed == {decl.point for decl in declarations}
    # The durability sweep's wildcard reference covers every point.
    for entry in payload["points"]:
        assert entry["referenced_by"], entry["point"]


def test_real_tree_is_clean(capsys):
    code = _cli(
        REPO_ROOT,
        "check",
        str(REPO_ROOT / "src"),
        str(REPO_ROOT / "scripts"),
    )
    assert code == 0, capsys.readouterr().out
