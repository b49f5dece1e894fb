"""The general fault-injection plan and the circuit breaker, in-process.

The plan layer (`repro.faults`) is pure bookkeeping — seeded RNGs,
visit counters, kind filtering — so almost everything here runs without
a subprocess. The chaos tests over real worker fleets live in
``test_chaos.py``; this file pins the semantics those tests rely on:
deterministic per-seed decisions, the crash-point superset contract,
frame-kind filtering, and the breaker's state machine.
"""

from __future__ import annotations

import random
import socket
import time

import pytest

from repro.data.ratings import Rating
from repro.durability.log import SEGMENT_MAGIC, RatingLog
from repro.errors import GatewayError, ReproError
from repro.faults import (
    PLAN_ENV,
    SPAWN_SEQ_ENV,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    fault_point,
    frame_fault,
    injected_faults,
)
from repro.gateway.protocol import recv_frame, send_frame
from repro.gateway.supervisor import CircuitBreaker

# ----------------------------------------------------------------------
# Rules and plans
# ----------------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ReproError, match="unknown fault kind"):
        FaultRule("test.p", "explode")
    with pytest.raises(ReproError, match="probability"):
        FaultRule("test.p", "error", probability=1.5)
    with pytest.raises(ReproError, match="after"):
        FaultRule("test.p", "error", after=0)
    with pytest.raises(ReproError, match="times"):
        FaultRule("test.p", "error", times=0)
    with pytest.raises(ReproError, match="delay_s"):
        FaultRule("test.p", "delay", delay_s=-1.0)


def test_plan_json_roundtrip():
    plan = FaultPlan(seed=42, rules=[
        FaultRule("gateway.worker.request", "error", after=3, times=2),
        FaultRule("gateway.worker.send", "drop", probability=0.25),
        FaultRule("gateway.worker.load", "kill", max_spawn_seq=2),
    ])
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.to_dict() == plan.to_dict()
    env = plan.to_env()
    assert set(env) == {PLAN_ENV}
    assert FaultPlan.from_json(env[PLAN_ENV]).seed == 42
    with pytest.raises(ReproError, match="malformed"):
        FaultPlan.from_json("{nope")


@pytest.mark.parametrize("raw, names", [
    ('{"rules":[{"pint":"x","kind":"kill"}]}', r"rule #0.*'pint'"),
    ('{"rules":[{"point":"x","kind":"kill"},{"kind":"kill"}]}', r"rule #1.*'point'"),
    ("[1,2]", "JSON object"),
    ('{"seed":"x"}', "'seed'"),
], ids=["unknown-key", "missing-key", "not-an-object", "seed"])
def test_malformed_plan_is_a_structured_error(raw, names):
    """Valid JSON of the wrong shape: the plan arrives through the
    environment, so it is a ReproError naming the key or rule at fault,
    not a TypeError out of whichever fault point parsed it."""
    with pytest.raises(ReproError, match=names):
        FaultPlan.from_json(raw)


def test_decide_schedules_after_and_times():
    plan = FaultPlan(rules=[FaultRule("test.p", "error", after=2, times=2)])
    fired = [plan.decide("test.p") is not None for _ in range(5)]
    # Skips visit 1, fires on visits 2 and 3, then is spent.
    assert fired == [False, True, True, False, False]


def test_decide_matches_globs_and_filters_kinds():
    plan = FaultPlan(rules=[
        FaultRule("wal.*", "delay", delay_s=0.0),
        FaultRule("gateway.*", "drop"),
    ])
    assert plan.decide("wal.fsync").kind == "delay"
    assert plan.decide("snapshot.rename") is None
    # Frame-only kinds never fire at plain points ...
    assert plan.decide("gateway.worker.send") is None
    # ... but do at frame points, where error-kind rules are skipped.
    assert plan.decide("gateway.worker.send", frame=True).kind == "drop"
    error_plan = FaultPlan(rules=[FaultRule("test.p", "error")])
    assert error_plan.decide("test.p", frame=True) is None


def test_probability_decisions_are_deterministic_per_seed():
    def firings(seed: int) -> list[bool]:
        plan = FaultPlan(seed=seed, rules=[
            FaultRule("test.p", "error", probability=0.5)])
        return [plan.decide("test.p") is not None for _ in range(64)]

    assert firings(7) == firings(7)  # same seed: same schedule
    assert firings(7) != firings(8)  # different seed: different one
    assert any(firings(7)) and not all(firings(7))


def test_spawn_seq_decorrelates_the_workers_of_one_plan(monkeypatch):
    """Workers sharing a plan draw different schedules (a frame retried
    on a sibling must not meet the same firing visit), each reproducible
    from (seed, spawn sequence, rule); spawn 0 is the unsequenced one."""
    raw = FaultPlan(seed=7, rules=[
        FaultRule("test.p", "error", probability=0.5),
        FaultRule("test.q", "delay", probability=0.5)]).to_json()

    def firings(spawn_seq: str | None) -> list[list[bool]]:
        if spawn_seq is None:
            monkeypatch.delenv(SPAWN_SEQ_ENV, raising=False)
        else:
            monkeypatch.setenv(SPAWN_SEQ_ENV, spawn_seq)
        plan = FaultPlan.from_json(raw)  # what a worker arms at start-up
        return [[plan.decide(point) is not None for _ in range(64)]
                for point in ("test.p", "test.q")]

    assert firings("1") == firings("1")
    for first, second in zip(firings("1"), firings("2")):
        assert first != second  # per rule, not just per plan
    assert firings("0") == firings(None)
    assert firings("1") != firings(None)


def test_spawn_seq_gates_rules(monkeypatch):
    plan = FaultPlan(rules=[FaultRule("test.p", "error", max_spawn_seq=2)])
    monkeypatch.setenv(SPAWN_SEQ_ENV, "1")
    assert plan.decide("test.p") is not None
    monkeypatch.setenv(SPAWN_SEQ_ENV, "2")
    assert plan.decide("test.p") is None  # the third spawn is spared
    monkeypatch.delenv(SPAWN_SEQ_ENV)
    assert plan.decide("test.p") is not None  # unset counts as spawn 0


# ----------------------------------------------------------------------
# The hooks
# ----------------------------------------------------------------------


def test_fault_point_raises_injected_fault():
    plan = FaultPlan(rules=[FaultRule("test.my.point", "error", after=2)])
    with injected_faults(plan):
        fault_point("test.my.point")  # visit 1: spared
        with pytest.raises(InjectedFault) as excinfo:
            fault_point("test.my.point")
        assert excinfo.value.point == "test.my.point"
    fault_point("test.my.point")  # uninstalled: free no-op


def test_fault_point_crash_kind_raises_injected_crash():
    plan = FaultPlan(rules=[FaultRule("test.my.point", "crash")])
    with injected_faults(plan):
        with pytest.raises(InjectedCrash):
            fault_point("test.my.point")


_BATCH = [Rating("u1", "i1", 4.0, 0), Rating("u2", "i1", 2.5, 1)]


def test_plan_fires_at_durability_crash_points(tmp_path):
    """One injector: the durability layer's filesystem transitions are
    ordinary plan points, so any kind of rule fires at them."""
    plan = FaultPlan(rules=[FaultRule("wal.fsync", "error")])
    with RatingLog(tmp_path / "wal") as log, injected_faults(plan):
        with pytest.raises(InjectedFault):
            log.append(_BATCH, sync=True)


def test_plan_rule_reaches_the_torn_frame_point(tmp_path):
    """Any armed plan makes the WAL split its frame write, so a rule at
    ``wal.append.torn`` dies with half a frame on disk — which the next
    open truncates back to the last whole record."""
    log = RatingLog(tmp_path / "wal")
    assert log.append(_BATCH) == 1
    whole = log.total_bytes
    plan = FaultPlan(rules=[FaultRule("wal.append.torn", "crash")])
    with injected_faults(plan):
        with pytest.raises(InjectedCrash) as excinfo:
            log.append(_BATCH)
    assert excinfo.value.point == "wal.append.torn"
    log.close()
    segment, = (tmp_path / "wal").glob("*.wal")
    frame = whole - len(SEGMENT_MAGIC)
    assert segment.stat().st_size == whole + frame // 2
    with RatingLog(tmp_path / "wal") as reopened:
        assert reopened.last_seq == 1
        assert any("truncating" in repair for repair in reopened.repairs)
        assert segment.stat().st_size == whole
        assert [record.ratings for record in reopened.replay()] == [tuple(_BATCH)]


def test_delay_rule_sleeps():
    plan = FaultPlan(rules=[FaultRule("test.p", "delay", delay_s=0.05, times=1)])
    with injected_faults(plan):
        t0 = time.perf_counter()
        fault_point("test.p")
        assert time.perf_counter() - t0 >= 0.04
        t0 = time.perf_counter()
        fault_point("test.p")  # times=1: the second visit is free
        assert time.perf_counter() - t0 < 0.04


def test_frame_fault_returns_byte_level_rules():
    plan = FaultPlan(rules=[FaultRule("test.wire", "corrupt", after=2)])
    with injected_faults(plan):
        assert frame_fault("test.wire") is None
        rule = frame_fault("test.wire")
        assert rule is not None and rule.kind == "corrupt"
    assert frame_fault("test.wire") is None


def test_send_frame_drop_swallows_the_frame():
    plan = FaultPlan(rules=[FaultRule("gateway.worker.send", "drop", times=1)])
    left, right = socket.socketpair()
    try:
        right.settimeout(0.2)
        with injected_faults(plan):
            send_frame(left, {"seq": 1})  # dropped: the peer sees silence
            with pytest.raises(socket.timeout):
                recv_frame(right)
            send_frame(left, {"seq": 2})  # rule spent: goes through
            assert recv_frame(right) == {"seq": 2}
    finally:
        left.close()
        right.close()


def test_send_frame_corrupt_is_detected_by_the_reader():
    plan = FaultPlan(rules=[FaultRule("gateway.worker.send", "corrupt")])
    left, right = socket.socketpair()
    try:
        right.settimeout(1.0)
        with injected_faults(plan):
            send_frame(left, {"seq": 1})
        with pytest.raises(GatewayError, match="corrupt"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# The circuit breaker
# ----------------------------------------------------------------------


def test_breaker_trips_at_threshold_and_closes_on_success():
    breaker = CircuitBreaker(threshold=3, rng=random.Random(0))
    assert breaker.state == "closed" and breaker.next_delay() == 0.0
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open" and breaker.n_trips == 1
    breaker.on_probe()
    assert breaker.state == "half_open"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.consecutive_failures == 0


def test_breaker_reopens_when_the_probe_fails():
    breaker = CircuitBreaker(threshold=3, rng=random.Random(0))
    for _ in range(3):
        breaker.record_failure()
    breaker.on_probe()
    breaker.record_failure()  # the probe's first outcome is a failure
    assert breaker.state == "open" and breaker.n_trips == 2


def test_breaker_backoff_is_exponential_jittered_and_capped():
    breaker = CircuitBreaker(
        threshold=2, base_delay=0.1, max_delay=1.0,
        rng=random.Random(123))
    delays = []
    for _ in range(8):
        breaker.record_failure()
        delays.append(breaker.next_delay())
    # Equal jitter: uniform in [ceiling/2, ceiling] for
    # ceiling = min(cap, base * 2^(n-1)).
    for n, delay in enumerate(delays, start=1):
        ceiling = min(1.0, 0.1 * 2 ** (n - 1))
        assert ceiling / 2 <= delay <= ceiling
    assert delays[-1] <= 1.0  # capped, not unbounded


def test_breaker_validation():
    with pytest.raises(GatewayError, match="threshold"):
        CircuitBreaker(threshold=0)
    with pytest.raises(GatewayError, match="base_delay"):
        CircuitBreaker(base_delay=0.5, max_delay=0.1)
