"""Self-tests of the benchmark harness: fast, no subprocesses, no
writes into the repository."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from bench import common, compare, inputs, run, spec, stats
from bench.tracing import Tracer, self_time

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- statistics ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 0.30) == 20
    assert stats.percentile(values, 0.40) == 20
    assert stats.percentile(values, 0.50) == 35
    assert stats.percentile(values, 1.00) == 50
    assert stats.percentile(list(range(1, 101)), 0.99) == 99
    assert stats.percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_highest_percentile_with_ten_samples_beyond():
    assert stats.highest_supported(10) is None
    assert stats.highest_supported(20) == 0.50
    assert stats.highest_supported(40) == 0.75
    assert stats.highest_supported(100) == 0.90
    assert stats.highest_supported(999) == 0.95
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(10_000) == 0.999


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    spread = stats.quartile_spread(values)
    assert spread == pytest.approx((17.25 - 11.75) / 14.5)


# -- spans ---------------------------------------------------------------


def test_span_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", request_id="r1") as outer:
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert outer.duration == 10.0
    assert tracer.durations("inner") == [2.0, 5.0]
    assert tracer.self_time(outer) == 3.0
    assert tracer.child_coverage(outer) == pytest.approx(0.7)
    inner = tracer.named("inner")[0]
    assert inner.parent == outer.span_id and inner.request_id == "r1"
    assert tracer.total("inner", within=outer) == 7.0
    assert self_time(1.0, [0.75, 0.5]) == 0.0  # never negative


def test_instrument_wraps_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    class Child(Layer):
        pass

    tracer = Tracer()
    tracer.instrument(Layer, "make", "layer.make")
    tracer.instrument(Child, "work", "child.work")  # inherited attribute
    assert Child.make().work(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.make", "child.work"]
    tracer.restore()
    assert "work" not in vars(Child)
    assert Layer().work(1) == 2 and len(tracer.spans) == 2


# -- seeded inputs -------------------------------------------------------


def test_seeded_inputs_are_reproducible():
    users = [f"u{k:04d}" for k in range(500)]
    assert inputs.poisson_schedule(200, 2.0, 7) == inputs.poisson_schedule(200, 2.0, 7)
    assert inputs.poisson_schedule(200, 2.0, 7) != inputs.poisson_schedule(200, 2.0, 8)
    due = inputs.poisson_schedule(200, 2.0, 7)
    assert due == sorted(due) and 0 < due[0] and due[-1] < 2.0
    assert 300 < len(due) < 500

    order = inputs.user_permutation(users, 3)
    assert order == inputs.user_permutation(list(reversed(users)), 3)
    assert sorted(order) == users and order != users

    draws = inputs.zipf_hot_draws(users, 2000, 3, 30)
    assert draws == inputs.zipf_hot_draws(users, 2000, 3, 30)
    hot = set(inputs.hot_users(users, 3))
    assert len(hot) == inputs.HOT_USERS
    share = sum(1 for user in draws if user in hot) / len(draws)
    assert 0.85 < share < 0.97


# -- the contract --------------------------------------------------------


def test_benchmark_json_matches_spec_and_contract_limits():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    declared = json.loads(text)
    assert declared == spec.benchmark_json()
    assert len(text.encode("utf-8")) <= 64 * 1024
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = [w["name"] for w in declared["workloads"]]
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in declared["end_to_end"])}]


def _record(trace: int, metrics: dict[str, float]) -> dict:
    return {"workload": "xmap_fit", "trace": trace, "correct": True,
            "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x", "n": 1}
                        for name, value in metrics.items()}}


def test_result_line_carries_every_declared_metric():
    declared = spec.benchmark_json()
    untraced = run.result_line(_record(0, {m.name: 1.5 for m in spec.END_TO_END}))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    traced = run.result_line(_record(1, {"fit_s": 5.0}))
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    assert traced["metrics"]["fit_s"] == {"value": 5.0, "unit": "s"}
    # a layer the workload never entered did no work there
    assert traced["metrics"]["core.extender.extend_s"]["value"] == 0.0
    with pytest.raises(common.BenchError):
        run.result_line(_record(0, {"setup_s": 1.0}))


def _emitted_name_patterns() -> list[re.Pattern]:
    """Every string literal in the workload sources, f-strings as
    patterns — what ``Result.put`` can possibly be called with."""
    patterns = []
    sources = list((ROOT / "bench" / "workloads").glob("*.py"))
    sources.append(ROOT / "bench" / "common.py")
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                patterns.append(re.compile(re.escape(node.value)))
            elif isinstance(node, ast.JoinedStr):
                parts = [re.escape(part.value) if isinstance(part, ast.Constant)
                         else "[A-Za-z0-9_]+" for part in node.values]
                patterns.append(re.compile("".join(parts)))
    return patterns


def test_every_declared_metric_is_emitted_by_a_workload():
    patterns = _emitted_name_patterns()
    declared = spec.END_TO_END + spec.WORKLOAD_METRICS + spec.PER_LAYER
    missing = [m.name for m in declared
               if not any(p.fullmatch(m.name) for p in patterns)]
    assert missing == []
    assert set(run.HEADLINE) == set(spec.WORKLOADS)


def test_refuses_env_that_selects_another_program():
    common.refuse_foreign_env({})
    common.refuse_foreign_env({"REPRO_SHARDS": ""})
    for name in ("REPRO_PURE_PYTHON", "REPRO_SHARDS", "REPRO_SHARD_PROCS",
                 "REPRO_FAULT_PLAN", "REPRO_OBS_LOG"):
        with pytest.raises(common.BenchError, match=name):
            common.refuse_foreign_env({name: "1"})


# -- compare -------------------------------------------------------------


def test_compare_verdicts_follow_the_pair_rule():
    metric = spec.Metric("latency_p50_ms", "ms", "lower", 0.10)
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1]
    faster = [value * 0.8 for value in parent]
    assert compare.verdict(metric, parent, faster)["verdict"] == "win"
    assert compare.verdict(metric, faster, parent)["verdict"] == "loss"
    assert compare.verdict(metric, parent, parent[::-1])["verdict"] == "unchanged"
    assert compare.verdict(metric, parent[:5], faster[:5])["verdict"] == "unresolved"
    noisy = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 15.0, 6.0, 11.0]
    assert compare.verdict(metric, noisy, noisy[::-1])["verdict"] == "unresolved"
    # wins 8 of 10 pairs only: a large median gap is still not a win
    mixed = faster[:8] + [value * 1.3 for value in parent[8:]]
    assert compare.verdict(metric, parent, mixed)["verdict"] != "win"


def test_worse_by_respects_direction():
    lower = spec.Metric("x_ms", "ms", "lower", 0.1)
    higher = spec.Metric("x_per_s", "1/s", "higher", 0.1)
    assert run.worse_by(lower, 10.0, 12.0) == pytest.approx(0.2)
    assert run.worse_by(lower, 10.0, 8.0) == pytest.approx(-0.2)
    assert run.worse_by(higher, 100.0, 80.0) == pytest.approx(0.2)
