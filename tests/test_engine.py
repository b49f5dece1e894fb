"""Unit tests for the sparklite dataflow engine (repro.engine)."""

import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.cluster import ClusterSpec, CostModel
from repro.engine.dataset_api import DataflowContext
from repro.engine.metrics import merge_reports, speedup_curve
from repro.engine.partitioner import HashPartitioner, stable_hash
from repro.engine.scheduler import stage_makespan
from repro.errors import EngineError


@pytest.fixture()
def context():
    return DataflowContext(ClusterSpec(n_machines=2))


#: Keys mixing every repr-stable type the engine shuffles, with their
#: pinned FNV-1a values. Pinning exact integers is the strongest possible
#: cross-process/cross-run guarantee: any change to repr formatting, the
#: hash constants or the guard would break these on every platform.
_GOLDEN_HASHES = [
    ("u00042", 5148693919920118806),
    (("u7", 3.5), 2188899342245529074),
    ((1, 2.5, "x"), 17917055962576785306),
    (0.1, 5627490830035591270),
    (-0.0, 13250730907835653014),
    (float("inf"), 3143526941665320968),
    (12345, 16534377278781491704),
    (b"bytes", 922132580873029630),
    (None, 7393530455478880603),
    (True, 9649694456298746757),
]

#: Hashable repr-stable scalars for the partition-assignment property.
_scalar_keys = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
_stable_keys = st.one_of(_scalar_keys, st.tuples(_scalar_keys, _scalar_keys))


class TestPartitioner:
    def test_stable_across_calls(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_range(self):
        partitioner = HashPartitioner(7)
        for key in ("x", "y", 123, ("a", "b")):
            assert 0 <= partitioner.partition_of(key) < 7

    def test_invalid_partition_count(self):
        with pytest.raises(EngineError):
            HashPartitioner(0)

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_golden_hashes_pinned(self):
        for key, expected in _GOLDEN_HASHES:
            assert stable_hash(key) == expected, key

    @given(key=_stable_keys, n_partitions=st.integers(1, 16))
    def test_partition_assignment_is_value_determined(self, key, n_partitions):
        # repr-stable keys (floats included: repr is the shortest
        # round-tripping decimal, fixed since CPython 3.1) must route to
        # one partition however many times and wherever they are hashed.
        partitioner = HashPartitioner(n_partitions)
        first = partitioner.partition_of(key)
        assert 0 <= first < n_partitions
        assert partitioner.partition_of(key) == first
        assert stable_hash(key) == stable_hash(eval(repr(key)))

    def test_assignment_identical_in_fresh_process(self):
        # The property the recorded Figure-11 curve leans on: a fresh
        # process (no shared interpreter state, new hash salt) routes
        # every key exactly as the recording run did.
        import os
        from pathlib import Path

        import repro

        keys = [key for key, _ in _GOLDEN_HASHES]
        expected = [stable_hash(key) for key in keys]
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.engine.partitioner import stable_hash\n"
            "inf = float('inf')\n"
            f"keys = {keys!r}\n"
            "print([stable_hash(k) for k in keys])\n")
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="random")
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=env).stdout
        assert eval(output) == expected

    def test_id_based_default_repr_rejected(self):
        class Opaque:
            pass

        with pytest.raises(EngineError, match="id-based repr"):
            stable_hash(Opaque())
        with pytest.raises(EngineError, match="id-based repr"):
            HashPartitioner(4).partition_of(("u1", Opaque()))

    def test_unordered_collections_rejected(self):
        # Set repr order follows the per-process hash salt — hashing it
        # would partition nondeterministically, so it must raise instead.
        with pytest.raises(EngineError, match="repr order"):
            stable_hash(frozenset({"a", "b"}))
        with pytest.raises(EngineError, match="repr order"):
            HashPartitioner(4).partition_of(("u1", {"x", "y"}))

    def test_value_repr_with_scary_substring_allowed(self):
        # The guard must not reject value-typed keys whose repr merely
        # contains the " at 0x" marker.
        assert stable_hash("object at 0xdeadbeef") == stable_hash(
            "object at 0xdeadbeef")


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


class TestTransformations:
    def test_map_filter_collect(self, context):
        result = (context.parallelize(range(10))
                  .map(lambda x: x * 2)
                  .filter(lambda x: x % 4 == 0)
                  .collect())
        assert sorted(result) == [0, 4, 8, 12, 16]

    def test_flat_map(self, context):
        result = context.parallelize([1, 2]).flat_map(lambda x: [x] * x).collect()
        assert sorted(result) == [1, 2, 2]

    def test_reduce_by_key(self, context):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        result = context.parallelize(pairs).reduce_by_key(lambda x, y: x + y).collect()
        assert sorted(result) == [("a", 4), ("b", 2)]

    def test_group_by_key(self, context):
        pairs = [("a", 1), ("a", 2), ("b", 3)]
        result = dict(context.parallelize(pairs).group_by_key().collect())
        assert sorted(result["a"]) == [1, 2]
        assert result["b"] == [3]

    def test_map_values_and_key_by(self, context):
        result = (context.parallelize([1, 2, 3])
                  .key_by(lambda x: x % 2)
                  .map_values(lambda v: v * 10)
                  .collect())
        assert sorted(result) == [(0, 20), (1, 10), (1, 30)]

    def test_join(self, context):
        left = context.parallelize([("a", 1), ("b", 2)])
        right = context.parallelize([("a", "x"), ("c", "y")])
        assert left.join(right).collect() == [("a", (1, "x"))]

    def test_union(self, context):
        left = context.parallelize([1, 2])
        right = context.parallelize([3])
        assert sorted(left.union(right).collect()) == [1, 2, 3]

    def test_count(self, context):
        assert context.parallelize(range(17)).count() == 17

    def test_keyed_op_requires_pairs(self, context):
        collection = context.parallelize([1, 2, 3]).reduce_by_key(lambda a, b: a + b)
        with pytest.raises(EngineError, match="requires .key, value."):
            collection.collect()

    def test_cross_context_join_rejected(self, context):
        other = DataflowContext(ClusterSpec(n_machines=1))
        left = context.parallelize([("a", 1)])
        right = other.parallelize([("a", 2)])
        with pytest.raises(EngineError, match="different contexts"):
            left.join(right)

    def test_map_partitions(self, context):
        result = context.parallelize(range(8), n_partitions=2).map_partitions(
            lambda part: [sum(part)]).collect()
        assert sum(result) == sum(range(8))

    def test_cache_reuses_materialisation(self, context):
        calls = []

        def spy(x):
            calls.append(x)
            return x
        cached = context.parallelize(range(5)).map(spy).cache()
        cached.collect()
        first = len(calls)
        cached.collect()
        assert len(calls) == first  # no recomputation

    def test_results_independent_of_machine_count(self):
        pairs = [(k % 5, k) for k in range(60)]
        results = []
        for machines in (1, 4, 9):
            ctx = DataflowContext(ClusterSpec(n_machines=machines))
            results.append(sorted(ctx.parallelize(pairs).reduce_by_key(
                lambda a, b: a + b).collect()))
        assert results[0] == results[1] == results[2]


class TestReports:
    def test_report_contains_stages(self, context):
        _, report = (context.parallelize(range(50))
                     .map(lambda x: (x % 3, x))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect_with_report())
        assert report.makespan > 0
        assert any("reduce_by_key" in s.description for s in report.stages)

    def test_narrow_ops_fused_into_one_stage(self, context):
        _, report = (context.parallelize(range(10))
                     .map(lambda x: x + 1)
                     .filter(lambda x: x > 2)
                     .map(lambda x: x * 2)
                     .collect_with_report())
        assert len(report.stages) == 1
        assert "map+filter+map" in report.stages[0].description

    def test_broadcast_cost_charged_once(self, context):
        context.broadcast([1] * 100, n_records=100)
        _, report = context.parallelize([1]).map(lambda x: x).collect_with_report()
        assert report.broadcast_seconds > 0
        _, second = context.parallelize([1]).map(lambda x: x).collect_with_report()
        assert second.broadcast_seconds == 0.0

    def test_merge_reports(self, context):
        _, first = context.parallelize([1]).map(lambda x: x).collect_with_report()
        _, second = context.parallelize([2]).map(lambda x: x).collect_with_report()
        merged = merge_reports([first, second])
        assert merged.makespan == pytest.approx(first.makespan + second.makespan)

    def test_merge_rejects_mixed_clusters(self, context):
        other = DataflowContext(ClusterSpec(n_machines=9))
        _, first = context.parallelize([1]).map(lambda x: x).collect_with_report()
        _, second = other.parallelize([1]).map(lambda x: x).collect_with_report()
        with pytest.raises(EngineError):
            merge_reports([first, second])


class TestSpeedupCurve:
    def test_relative_to_baseline(self):
        curve = speedup_curve({5: 10.0, 10: 5.0, 20: 2.5})
        assert curve == {5: 1.0, 10: 2.0, 20: 4.0}

    def test_missing_baseline_rejected(self):
        with pytest.raises(EngineError):
            speedup_curve({10: 5.0}, baseline_machines=5)
