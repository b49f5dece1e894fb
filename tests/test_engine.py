"""Unit tests for Fig. 11's simulated cluster (repro.engine.cluster)."""

import numpy as np
import pytest

from repro.engine.cluster import (
    ClusterSpec,
    CostModel,
    Stage,
    broadcast_seconds,
    job_makespan,
    speedup_curve,
    stage_makespan,
    task_seconds,
)
from repro.errors import EngineError


class TestClusterSpec:
    def test_validation(self):
        with pytest.raises(EngineError):
            ClusterSpec(n_machines=0).validated()
        with pytest.raises(EngineError):
            ClusterSpec(n_machines=1, n_slots_per_machine=0).validated()
        with pytest.raises(EngineError):
            ClusterSpec(n_machines=1, cost=CostModel(task_overhead=-1)).validated()

    def test_slots(self):
        spec = ClusterSpec(n_machines=3, n_slots_per_machine=4)
        assert spec.total_slots == 12
        assert spec.default_parallelism() == 24


class TestScheduler:
    def test_empty_stage(self):
        assert stage_makespan([], ClusterSpec(n_machines=2)) == 0.0

    def test_single_slot_sums(self):
        spec = ClusterSpec(n_machines=1, n_slots_per_machine=1)
        assert stage_makespan([1.0, 2.0, 3.0], spec) == pytest.approx(6.0)

    def test_parallel_slots_split(self):
        spec = ClusterSpec(n_machines=1, n_slots_per_machine=2)
        assert stage_makespan([2.0, 2.0], spec) == pytest.approx(2.0)

    def test_lpt_handles_skew(self):
        spec = ClusterSpec(n_machines=1, n_slots_per_machine=2)
        # one whale bounds the makespan
        assert stage_makespan([10.0, 1.0, 1.0], spec) == pytest.approx(10.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(EngineError):
            stage_makespan([-1.0], ClusterSpec(n_machines=1))
        with pytest.raises(EngineError):
            stage_makespan(np.array([1.0, -0.5]), ClusterSpec(n_machines=1))


#: Whole-number costs so the per-task formula is checked exactly.
_COST = CostModel(compute_per_record=1.0, task_overhead=100.0,
                  shuffle_per_record=10.0, stage_barrier=1000.0,
                  broadcast_per_record_machine=0.5)


class TestJobMakespan:
    def test_keys_are_dealt_round_robin_onto_tasks(self):
        # 1 machine × 1 slot → 2 tasks: keys 0, 2, 4 and keys 1, 3.
        cluster = ClusterSpec(n_machines=1, n_slots_per_machine=1, cost=_COST)
        stage = Stage("s", work=np.array([1.0, 2, 3, 4, 5]),
                      out=np.array([0.0, 1, 0, 1, 0]),
                      moved=np.array([1.0, 0, 0, 0, 2]))
        # overhead + shuffle·2·moved + compute·(work + out)
        expected = [100 + 10 * 2 * 3 + (1 + 3 + 5), 100 + 0 + (2 + 1 + 4 + 1)]
        assert task_seconds(stage, cluster).tolist() == expected

    def test_fewer_keys_than_parallelism_give_one_task_each(self):
        cluster = ClusterSpec(n_machines=4, cost=_COST)
        stage = Stage("s", work=np.array([1.0, 2.0]), out=np.zeros(2))
        assert task_seconds(stage, cluster).tolist() == [101.0, 102.0]
        assert job_makespan([Stage("empty", np.zeros(0), np.zeros(0))], [],
                            cluster) == 1000.0

    def test_makespan_adds_stages_barriers_and_broadcasts(self):
        cluster = ClusterSpec(n_machines=3, n_slots_per_machine=1, cost=_COST)
        stages = [Stage("a", work=np.ones(6), out=np.zeros(6)),
                  Stage("b", work=np.full(3, 4.0), out=np.ones(3))]
        # a: 6 tasks of 101 on 3 slots → 202; b: 3 tasks of 105 → 105.
        assert job_makespan(stages, [4, 6], cluster) == (
            202 + 105 + 2 * 1000 + 10 * 0.5 * 3)

    def test_broadcast_seconds_scale_with_machines(self):
        assert broadcast_seconds([4, 6], ClusterSpec(2, cost=_COST)) == 10.0
        assert broadcast_seconds([4, 6], ClusterSpec(8, cost=_COST)) == 40.0
        with pytest.raises(EngineError):
            broadcast_seconds([3, -1], ClusterSpec(2))

    def test_invalid_cluster_rejected(self):
        stage = Stage("s", work=np.ones(3), out=np.ones(3))
        with pytest.raises(EngineError):
            job_makespan([stage], [], ClusterSpec(n_machines=0))
        with pytest.raises(EngineError):
            job_makespan([stage], [], ClusterSpec(
                n_machines=2, cost=CostModel(shuffle_per_record=-1e-5)))


class TestSpeedupCurve:
    def test_relative_to_baseline(self):
        curve = speedup_curve({5: 10.0, 10: 5.0, 20: 2.5})
        assert curve == {5: 1.0, 10: 2.0, 20: 4.0}

    def test_missing_baseline_rejected(self):
        with pytest.raises(EngineError):
            speedup_curve({10: 5.0}, baseline_machines=5)
