"""The durability layer: WAL, checkpoints, fault-injected recovery.

Contracts under test:

* **RatingLog** — append → replay round trips batches bit-identically
  (floats through ``repr``), segments rotate by size, group commit
  lags ``durable_seq`` behind ``last_seq`` until a sync, pruning never
  touches the active segment.
* **Repair** — a torn tail, a corrupt CRC frame, or a truncated
  segment cuts the log back to the last valid record (later segments
  dropped), keeps sequence numbering pinned, and read-only opens
  diagnose without modifying a byte.
* **Recovery bit-identity** — the tentpole property: for *every*
  enumerated crash point in a write/checkpoint stream (torn mid-frame
  appends and mid-checkpoint deaths included), recovering the store
  yields stores / indexes / adjacency
  bit-identical to a writer that never
  crashed past the durable prefix. Crashes *during recovery itself*
  are swept the same way.
* **kill -9** — the same property under real uncatchable ``SIGKILL``
  in a subprocess writer at deterministic env-armed crash points
  (marked ``crash`` so constrained environments can deselect them).
* **Registry** — :meth:`ModelRegistry.recover` serves exactly what
  the never-crashed registry does across interleaved update rounds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.durability.log import SEGMENT_MAGIC, RatingLog
from repro.durability.manager import (
    CHECKPOINT_FILE,
    CheckpointPolicy,
    DurableSweep,
)
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import DataError, DurabilityError
from repro.faults import (
    PLAN_ENV,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    injected_faults,
)
from repro.obs.metrics import get_registry
from repro.serving.registry import ModelRegistry
from repro.serving.service import RecommendationService
from repro.serving.snapshot import STORE_ARRAY_NAMES
from repro.serving.watch import SnapshotCatalog
from repro.similarity.graph import build_similarity_graph

_SRC = Path(__file__).resolve().parent.parent / "src"


def _aslist(values):
    return values.tolist()


def _batch(*specs) -> list[Rating]:
    return [Rating(user, item, value, timestep)
            for user, item, value, timestep in specs]


def _scenario(seed: int = 3, n_base: int = 36, n_batches: int = 5, batch_size: int = 3):
    """A deterministic base table plus append batches; batches bring in
    new users and new items, (user, item) pairs never repeat."""
    rng = random.Random(seed)
    pairs: set[tuple[str, str]] = set()

    def fresh(n_users, n_items):
        while True:
            pair = (f"u{rng.randrange(n_users)}", f"i{rng.randrange(n_items)}")
            if pair not in pairs:
                pairs.add(pair)
                return pair

    timestep = 0
    base = []
    for _ in range(n_base):
        user, item = fresh(10, 10)
        base.append(Rating(user, item, float(rng.choice([1, 2, 3, 4, 5])), timestep))
        timestep += 1
    batches = []
    for _ in range(n_batches):
        batch = []
        for _ in range(batch_size):
            user, item = fresh(13, 13)
            batch.append(Rating(user, item,
                                float(rng.choice([1, 2, 3, 4, 5])),
                                timestep))
            timestep += 1
        batches.append(batch)
    return RatingTable(base), batches


# The writer configuration the crash sweeps run under: checkpoints
# every 2 batches, rotation after ~192 bytes, fsync every 2nd append —
# small enough that one scenario visits every kind of crash point.
_WRITER_KWARGS = dict(cf_k=8, group_commit=2, segment_bytes=192)


def _run_writer(directory, table, batches):
    durable = DurableSweep(directory, table,
                           policy=CheckpointPolicy(max_batches=2),
                           **_WRITER_KWARGS)
    for batch in batches:
        durable.update(batch)
    durable.close()


def _reference(cache: dict, table: RatingTable, batches, applied: int
               ) -> IncrementalSweep:
    """The never-crashed writer after *applied* batches."""
    if applied not in cache:
        sweep = IncrementalSweep(table)
        for batch in batches[:applied]:
            sweep.update(batch)
        cache[applied] = sweep
    return cache[applied]


def _index_tuple(index):
    if index is None:
        return None
    return (list(index.items), _aslist(index.ptr),
            _aslist(index.neighbor_ids), _aslist(index.weights))


def assert_sweeps_equal(got, want) -> None:
    """Bit-identical equality over everything recovery reconstructs."""
    assert got.store.users == want.store.users
    assert got.store.items == want.store.items
    assert got.store.n_ratings == want.store.n_ratings
    assert got.store.global_mean == want.store.global_mean
    for name in STORE_ARRAY_NAMES:
        assert _aslist(getattr(got.store, name)) \
            == _aslist(getattr(want.store, name)), name
    assert _index_tuple(got.index) == _index_tuple(want.index)
    assert got.graph.index is got.index


# ----------------------------------------------------------------------
# RatingLog basics
# ----------------------------------------------------------------------


class TestRatingLog:
    def test_append_replay_roundtrip_bit_identical(self, tmp_path):
        batches = [
            _batch(("u1", "i1", 4.5, 0), ("u2", "i2", 1.0, 1)),
            _batch(("u1", "i2", 0.30000000000000004, 2)),  # repr exact
            _batch(("ü", "ï", 3.0, 3)),  # non-ASCII ids survive
        ]
        with RatingLog(tmp_path / "wal") as log:
            for k, batch in enumerate(batches):
                assert log.append(batch) == k + 1
            assert [(r.seq, list(r.ratings)) for r in log.replay()] \
                == [(k + 1, batch) for k, batch in enumerate(batches)]
        # A fresh open replays the same history from disk alone.
        with RatingLog(tmp_path / "wal") as log:
            assert log.last_seq == 3
            assert [list(r.ratings) for r in log.replay()] == batches
            assert [r.seq for r in log.replay(after_seq=2)] == [3]

    def test_appends_continue_across_reopen(self, tmp_path):
        with RatingLog(tmp_path / "wal") as log:
            log.append(_batch(("u", "i", 1.0, 0)))
        with RatingLog(tmp_path / "wal") as log:
            assert log.append(_batch(("u", "j", 2.0, 1))) == 2
            assert [r.seq for r in log.replay()] == [1, 2]

    def test_group_commit_watermark_lags_until_sync(self, tmp_path):
        log = RatingLog(tmp_path / "wal", group_commit=3)
        log.append(_batch(("u", "i", 1.0, 0)))
        log.append(_batch(("u", "j", 2.0, 1)))
        assert (log.last_seq, log.durable_seq) == (2, 0)
        log.append(_batch(("u", "k", 3.0, 2)))  # 3rd append fsyncs
        assert (log.last_seq, log.durable_seq) == (3, 3)
        log.append(_batch(("u", "l", 4.0, 3)))
        assert log.durable_seq == 3
        assert log.sync() == 4
        log.append(_batch(("u", "m", 5.0, 4)), sync=True)
        assert log.durable_seq == 5
        log.close()

    def test_rotation_and_prune(self, tmp_path):
        log = RatingLog(tmp_path / "wal", segment_bytes=64)
        for k in range(6):
            log.append(_batch((f"user{k}", f"item{k}", 3.0, k)))
        segments = sorted((tmp_path / "wal").glob("segment-*.wal"))
        assert len(segments) > 1
        # Pruning below the watermark never deletes the active segment.
        deleted = log.prune(upto_seq=4)
        assert deleted >= 1
        remaining = sorted((tmp_path / "wal").glob("segment-*.wal"))
        assert remaining and remaining[-1] == segments[-1]
        assert [r.seq for r in log.replay(after_seq=4)] == [5, 6]
        assert log.append(_batch(("u", "z", 1.0, 9))) == 7
        log.close()
        # The rotated + pruned log reopens with full continuity.
        with RatingLog(tmp_path / "wal", segment_bytes=64) as log:
            assert log.last_seq == 7

    def test_readonly_diagnoses_without_touching(self, tmp_path):
        with RatingLog(tmp_path / "wal") as log:
            log.append(_batch(("u", "i", 1.0, 0)))
        path = next((tmp_path / "wal").glob("segment-*.wal"))
        path.write_bytes(path.read_bytes() + b"torn-garbage")
        before = path.read_bytes()
        readonly = RatingLog(tmp_path / "wal", readonly=True)
        assert readonly.info().segments[-1].torn
        assert [r.seq for r in readonly.replay()] == [1]
        assert path.read_bytes() == before  # untouched
        with pytest.raises(DurabilityError, match="readonly"):
            readonly.append(_batch(("u", "j", 1.0, 1)))
        with pytest.raises(DurabilityError, match="readonly"):
            readonly.prune(1)

    def test_open_validation(self, tmp_path):
        with pytest.raises(DurabilityError, match="segment_bytes"):
            RatingLog(tmp_path / "wal", segment_bytes=0)
        with pytest.raises(DurabilityError, match="group_commit"):
            RatingLog(tmp_path / "wal", group_commit=0)
        with pytest.raises(DurabilityError, match="no log directory"):
            RatingLog(tmp_path / "missing", readonly=True)
        (tmp_path / "wal").mkdir()
        (tmp_path / "wal" / "segment-bogus.wal").write_bytes(b"")
        with pytest.raises(DurabilityError, match="unrecognised"):
            RatingLog(tmp_path / "wal")


# ----------------------------------------------------------------------
# Repair: torn tails, corrupt CRC frames, truncated segments
# ----------------------------------------------------------------------


def _write_log(directory, n_batches: int = 4, **kwargs) -> list[Path]:
    with RatingLog(directory, **kwargs) as log:
        for k in range(n_batches):
            log.append(_batch((f"user{k}", f"item{k}", 3.0, k)))
    return sorted(directory.glob("segment-*.wal"))


class TestRepair:
    def test_torn_tail_truncated_to_last_valid_record(self, tmp_path):
        [segment] = _write_log(tmp_path / "wal")
        whole = segment.read_bytes()
        segment.write_bytes(whole[:len(whole) - 7])  # tear the tail
        with RatingLog(tmp_path / "wal") as log:
            assert log.repairs and "torn" in log.repairs[0]
            assert log.last_seq == 3
            assert [r.seq for r in log.replay()] == [1, 2, 3]
            # Sequence numbering continues past the repaired tail.
            assert log.append(_batch(("u", "x", 1.0, 9))) == 4
        # The repair is durable: a re-open finds nothing left to fix.
        with RatingLog(tmp_path / "wal") as log:
            assert log.repairs == ()
            assert log.last_seq == 4

    def test_corrupt_crc_frame_dropped(self, tmp_path):
        [segment] = _write_log(tmp_path / "wal")
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte inside the last frame
        segment.write_bytes(bytes(data))
        with RatingLog(tmp_path / "wal") as log:
            assert log.repairs and "crc mismatch" in log.repairs[0]
            assert log.last_seq == 3

    def test_mid_segment_corruption_drops_later_segments(self, tmp_path):
        segments = _write_log(tmp_path / "wal", n_batches=6, segment_bytes=64)
        assert len(segments) >= 3
        data = bytearray(segments[0].read_bytes())
        data[len(SEGMENT_MAGIC) + 9] ^= 0xFF  # corrupt the first frame
        segments[0].write_bytes(bytes(data))
        with RatingLog(tmp_path / "wal", segment_bytes=64) as log:
            assert log.last_seq == 0
            assert [path for path in segments[1:] if path.exists()] == []
            # The corrupted segment survives as a valid empty file: its
            # name pins the sequence numbering.
            assert log.append(_batch(("u", "x", 1.0, 9))) == 1

    def test_segment_truncated_below_magic_keeps_numbering(self, tmp_path):
        segments = _write_log(tmp_path / "wal", n_batches=6, segment_bytes=64)
        last_first_seq = int(segments[-1].name[len("segment-"):-4])
        segments[-1].write_bytes(b"XMA")  # torn during segment creation
        with RatingLog(tmp_path / "wal", segment_bytes=64) as log:
            assert log.last_seq == last_first_seq - 1
            assert segments[-1].read_bytes() == SEGMENT_MAGIC
            assert log.append(_batch(("u", "x", 1.0, 9))) \
                == last_first_seq

    def test_sequence_gap_between_segments_drops_tail(self, tmp_path):
        segments = _write_log(tmp_path / "wal", n_batches=6, segment_bytes=64)
        assert len(segments) >= 3
        segments[1].unlink()  # a whole segment vanished
        with RatingLog(tmp_path / "wal", segment_bytes=64) as log:
            assert log.last_seq == int(segments[1].name[len("segment-"):-4]) - 1
            assert any("sequence gap" in repair for repair in log.repairs)


# ----------------------------------------------------------------------
# DurableSweep: checkpoints, compaction, recovery
# ----------------------------------------------------------------------


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(DurabilityError, match="max_batches"):
            CheckpointPolicy(max_batches=0)
        with pytest.raises(DurabilityError, match="max_log_bytes"):
            CheckpointPolicy(max_log_bytes=-1)

    def test_triggers(self):
        policy = CheckpointPolicy(max_log_bytes=100, max_batches=4,
                                  max_staleness_seconds=60.0)
        assert not policy.due(log_bytes=99, batches=3, staleness_seconds=59.0)
        assert policy.due(log_bytes=100, batches=0, staleness_seconds=0)
        assert policy.due(log_bytes=0, batches=4, staleness_seconds=0)
        assert policy.due(log_bytes=0, batches=0, staleness_seconds=60)
        disabled = CheckpointPolicy(max_log_bytes=None, max_batches=None,
                                    max_staleness_seconds=None)
        assert not disabled.due(log_bytes=1 << 40, batches=1 << 20,
                                staleness_seconds=1e9)


class TestDurableSweep:
    def test_recover_equals_never_crashed_run(self, tmp_path):
        table, batches = _scenario()
        _run_writer(tmp_path / "store", table, batches)
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == len(batches)
        assert_sweeps_equal(recovered, _reference({}, table, batches, len(batches)))
        # The recovered writer keeps writing — and stays recoverable.
        extra = _batch(("u20", "i20", 4.0, 900), ("u21", "i21", 2.0, 901))
        stats = recovered.update(extra)
        assert stats.wal_seq == len(batches) + 1
        recovered.close()
        again = DurableSweep.recover(tmp_path / "store")
        assert_sweeps_equal(
            again, _reference({}, table, batches + [extra], len(batches) + 1))
        again.close()

    def test_checkpoint_compaction_bounds_the_log(self, tmp_path):
        table, batches = _scenario()
        durable = DurableSweep(tmp_path / "store", table,
                               policy=CheckpointPolicy(max_batches=2),
                               **_WRITER_KWARGS)
        for batch in batches:
            durable.update(batch)
        snapshots = sorted((tmp_path / "store" / "snapshots").iterdir())
        assert [path.name for path in snapshots] \
            == [f"ckpt-{4:012d}"]  # only the adopted checkpoint remains
        pointer = json.loads((tmp_path / "store" / CHECKPOINT_FILE).read_text())
        assert pointer["applied_seq"] == 4
        # An explicit checkpoint adopts seq 5 and compacts: nothing
        # below the watermark survives except the active segment.
        durable.checkpoint()
        info = durable.log_info()
        assert json.loads((tmp_path / "store" / CHECKPOINT_FILE)
                          .read_text())["applied_seq"] == 5
        assert [segment for segment in info.segments
                if segment is not info.segments[-1]
                and segment.last_seq <= 5] == []
        durable.close()

    def test_create_and_recover_guards(self, tmp_path):
        table, _ = _scenario()
        with pytest.raises(DurabilityError, match="needs the initial"):
            DurableSweep(tmp_path / "store")
        durable = DurableSweep(tmp_path / "store", table)
        durable.close()
        with pytest.raises(DurabilityError, match="already holds"):
            DurableSweep(tmp_path / "store", table)
        with pytest.raises(DurabilityError, match="not a durable store"):
            DurableSweep.recover(tmp_path / "elsewhere")
        pointer = tmp_path / "store" / CHECKPOINT_FILE
        pointer.write_text("{broken", encoding="utf-8")
        with pytest.raises(DurabilityError, match="corrupt checkpoint"):
            DurableSweep.recover(tmp_path / "store")
        pointer.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(DurabilityError, match="not a durable store"):
            DurableSweep.recover(tmp_path / "store")

    @pytest.mark.parametrize("path, value, names", [
        *(pytest.param((key,), None, key, id=f"no-{key}")
          for key in ("config", "applied_seq", "snapshot")),
        *(pytest.param(("config", key), None, key, id=f"no-config-{key}")
          for key in ("min_common_users", "min_abs_similarity",
                      "cf_k", "positive_only", "group_commit",
                      "segment_bytes", "fsync", "policy")),
        pytest.param(("config", "policy", "max_batches"), None, "max_batches",
                     id="no-policy-max_batches"),
        pytest.param(("config",), ["cf_k"], "config", id="config-a-list"),
        pytest.param(("applied_seq",), "3", "applied_seq", id="applied_seq-a-string"),
        pytest.param(("config", "fsync"), 1, "fsync", id="fsync-an-int"),
        pytest.param(("config", "policy"), "often", "policy", id="policy-a-string"),
        pytest.param((), ["pointer"], "not a JSON object", id="a-json-list"),
    ])
    def test_incomplete_pointer_is_a_durability_error(
            self, tmp_path, path, value, names):
        """A JSON-valid ``CHECKPOINT.json`` that lacks (*value* None) or
        mistypes a key is a ``DurabilityError`` naming it — and is
        refused before the log is opened, so nothing on disk moves."""
        table, batches = _scenario(n_batches=2)
        _run_writer(tmp_path / "store", table, batches)
        pointer_path = tmp_path / "store" / CHECKPOINT_FILE
        pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
        if not path:
            pointer = value
        else:
            holder = pointer
            for key in path[:-1]:
                holder = holder[key]
            if value is None:
                del holder[path[-1]]
            else:
                holder[path[-1]] = value
        pointer_path.write_text(json.dumps(pointer), encoding="utf-8")
        wal = {entry.name: entry.read_bytes()
               for entry in (tmp_path / "store" / "wal").iterdir()}
        with pytest.raises(DurabilityError, match=names):
            DurableSweep.recover(tmp_path / "store")
        assert wal == {entry.name: entry.read_bytes()
                       for entry in (tmp_path / "store" / "wal").iterdir()}

    def test_pointer_written_with_the_significance_flag_on_recovers(self, tmp_path):
        """Format v1 backward compatibility, by hand: a pointer whose
        ``config`` says ``"with_significance": true`` (what a build that
        folded the bulk Definition-2 census wrote) recovers to the same
        sweep — and the same Top-N — as the constant ``false``."""
        table, batches = _scenario()
        _run_writer(tmp_path / "store", table, batches)
        flagged = _copy_store(tmp_path / "store", tmp_path / "flagged")
        pointer_path = flagged / CHECKPOINT_FILE
        pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
        assert pointer["config"]["with_significance"] is False
        pointer["config"]["with_significance"] = True
        pointer_path.write_text(json.dumps(pointer), encoding="utf-8")
        plain = DurableSweep.recover(tmp_path / "store")
        recovered = DurableSweep.recover(flagged)
        assert_sweeps_equal(recovered, plain)
        _assert_serving_equal(RecommendationService(recovered.registry()),
                              RecommendationService(plain.registry()))
        plain.close()
        recovered.close()

    def test_pointer_written_at_four_shards_recovers_at_the_one_layout(
            self, tmp_path):
        """Format v1 backward compatibility, by hand: a pointer whose
        ``config`` says ``"n_shards": 4`` (what a build that could split
        the sweep into user shards wrote) recovers to the same sweep —
        and serves the same Top-N — as the constant 1, and its next
        checkpoint writes the constant back."""
        table, batches = _scenario()
        _run_writer(tmp_path / "store", table, batches)
        sharded = _copy_store(tmp_path / "store", tmp_path / "sharded")
        pointer_path = sharded / CHECKPOINT_FILE
        pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
        assert pointer["config"]["n_shards"] == 1
        pointer["config"]["n_shards"] = 4
        pointer_path.write_text(json.dumps(pointer), encoding="utf-8")
        plain = DurableSweep.recover(tmp_path / "store")
        recovered = DurableSweep.recover(sharded)
        assert_sweeps_equal(recovered, plain)
        _assert_serving_equal(RecommendationService(recovered.registry()),
                              RecommendationService(plain.registry()))
        recovered.checkpoint()
        pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
        assert pointer["config"]["n_shards"] == 1
        plain.close()
        recovered.close()

    def test_recover_survives_lost_log(self, monkeypatch, tmp_path):
        """A log that lost records below the adopted watermark (fsync
        off + power loss) restarts numbering at the checkpoint."""
        table, batches = _scenario()
        _run_writer(tmp_path / "store", table, batches)
        for segment in (tmp_path / "store" / "wal").glob("*.wal"):
            segment.unlink()  # the power loss ate the whole log
        recovered = DurableSweep.recover(tmp_path / "store")
        # Checkpoints landed every 2 batches: seq 4 is the adopted one.
        assert recovered.applied_seq == 4
        assert_sweeps_equal(recovered, _reference({}, table, batches, 4))
        assert recovered.update(_batch(("u20", "i20", 4.0, 900))).wal_seq == 5
        recovered.close()

    def test_recover_drops_corrupt_crc_tail(self, monkeypatch, tmp_path):
        table, batches = _scenario()
        _run_writer(tmp_path / "store", table, batches)
        segment = sorted((tmp_path / "store" / "wal").glob("*.wal"))[-1]
        data = bytearray(segment.read_bytes())
        data[-2] ^= 0xFF
        segment.write_bytes(bytes(data))
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == len(batches) - 1
        assert any("crc mismatch" in repair
                   for repair in recovered.last_recovery.log_repairs)
        assert_sweeps_equal(recovered, _reference({}, table, batches, len(batches) - 1))
        recovered.close()

    @pytest.mark.parametrize("bad_value", [99.0, float("nan"), float("inf")])
    def test_rejected_batch_never_reaches_the_log(self, tmp_path, bad_value):
        """A batch the table refuses must not leave a record behind:
        replay would refuse it too, and every later recovery would die
        on it."""
        table, batches = _scenario()
        rejected = get_registry().counter("incremental_batches_rejected_total")
        durable = DurableSweep(tmp_path / "store", table, **_WRITER_KWARGS)
        durable.update(batches[0])
        before = rejected.value
        with pytest.raises(DataError, match="outside scale"):
            durable.update(batches[1] + _batch(("u5", "i1", bad_value, 950)))
        assert rejected.value == before + 1
        assert durable.log.last_seq == 1
        assert durable.applied_seq == 1
        assert durable.update(batches[1]).wal_seq == 2
        durable.close()
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == 2
        assert_sweeps_equal(recovered, _reference({}, table, batches, 2))
        recovered.close()

    @pytest.mark.parametrize("bad_id", ["u\n10", "i\u20289", "u\r"])
    def test_line_break_id_never_reaches_the_log(self, tmp_path, bad_id):
        """An id the snapshot's one-id-per-line files cannot hold would
        pass the table's checks, reach log and memory, and then fail
        every publish and checkpoint after it — and every recovery,
        which replays it. It is refused where NaN is."""
        table, batches = _scenario()
        rejected = get_registry().counter("incremental_batches_rejected_total")
        durable = DurableSweep(tmp_path / "store", table, **_WRITER_KWARGS)
        registry = durable.registry()
        catalog = SnapshotCatalog(tmp_path / "catalog")
        catalog.attach(registry)
        registry.update(batches[0])
        before = rejected.value
        hostile = ((bad_id, "i1", 3.0, 950) if bad_id.startswith("u")
                   else ("u5", bad_id, 3.0, 950))
        with pytest.raises(DataError, match="line break"):
            registry.update(batches[1] + _batch(hostile))
        assert rejected.value == before + 1
        assert durable.log.last_seq == 1
        assert durable.applied_seq == 1
        assert registry.current().version == catalog.current()[0]
        version = registry.current().version
        assert_sweeps_equal(durable, _reference({}, table, batches, 1))
        # The next good batch publishes and checkpoints.
        registry.update(batches[1])
        assert registry.current().version == catalog.current()[0] == version + 1
        durable.checkpoint()
        catalog.detach()
        durable.close()
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == 2
        assert_sweeps_equal(recovered, _reference({}, table, batches, 2))
        recovered.close()

    @pytest.mark.parametrize("bad", [
        ("u1", "i1", 3.0, "x"),            # recovery's int("x") raised
        ("u1", "i1", 3.0, 2.7),            # logged, replayed as 2
        ("u1", "i1", 3.0, np.int64(5)),    # the log's JSON encoder raised
        ("u1", "i1", np.float32(3.0), 5),  # likewise
        ("u1", "i1", "3", 5),              # the scale check raised
        ("u1", "i1", None, 5),             # likewise
        (5, "i1", 3.0, 5),                 # line_break_id raised
        ("u1", None, 3.0, 5),              # likewise
        ("u1", "i1", True, 5),             # logged as `true`, not a rating
        ("u1", "i1", 3.0, False),          # likewise
        ("u1", "i1", 3.0, 2**63),          # no int64 timestep column holds it
    ])
    def test_mistyped_field_never_reaches_the_log(self, tmp_path, bad):
        """A field replay would refuse or change is refused before the
        log, as a counted DataError, and recovery still equals the
        never-crashed writer."""
        table, batches = _scenario()
        rejected = get_registry().counter("incremental_batches_rejected_total")
        durable = DurableSweep(tmp_path / "store", table, **_WRITER_KWARGS)
        durable.update(batches[0])
        before = rejected.value
        with pytest.raises(DataError, match="could not replay"):
            durable.update(batches[1] + [Rating(*bad)])
        assert rejected.value == before + 1
        assert durable.log.last_seq == durable.applied_seq == 1
        assert_sweeps_equal(durable, _reference({}, table, batches, 1))
        assert durable.update(batches[1]).wal_seq == 2
        durable.close()
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == 2
        assert_sweeps_equal(recovered, _reference({}, table, batches, 2))
        recovered.close()

    def test_non_rating_batch_entry_never_reaches_the_log(self, tmp_path):
        table, batches = _scenario()
        durable = DurableSweep(tmp_path / "store", table, **_WRITER_KWARGS)
        with pytest.raises(DataError, match="not a Rating"):
            durable.update([("u1", "i1", 3.0, 5)])
        assert durable.log.last_seq == durable.applied_seq == 0
        durable.close()


    def test_logged_batch_that_fails_to_apply_stops_the_sweep(self, tmp_path):
        """A batch logged and then not applied leaves the sweep behind
        its log. It must refuse later batches rather than serve and
        publish a model recovery would never rebuild; recovery replays
        the batch."""
        table, batches = _scenario()
        failures = get_registry().counter("incremental_apply_failures_total")
        durable = DurableSweep(tmp_path / "store", table, **_WRITER_KWARGS)
        durable.update(batches[0])
        before = failures.value
        plan = FaultPlan(rules=[FaultRule("sweep.apply", "error", times=1)])
        with injected_faults(plan), pytest.raises(InjectedFault):
            durable.update(batches[1])
        assert failures.value == before + 1
        assert durable.log.last_seq == 2
        assert durable.applied_seq == 1
        assert_sweeps_equal(durable, _reference({}, table, batches, 1))
        with pytest.raises(DurabilityError, match="seq 2 .*recover"):
            durable.update(batches[2])
        assert durable.log.last_seq == 2
        durable.close()
        recovered = DurableSweep.recover(tmp_path / "store")
        assert recovered.applied_seq == 2
        assert_sweeps_equal(recovered, _reference({}, table, batches, 2))
        assert recovered.update(batches[2]).wal_seq == 3
        recovered.close()

    def test_failed_apply_leaves_a_walless_sweep_as_it_was(self, monkeypatch):
        """Without a log nothing was written ahead: a failure anywhere
        in the apply — here after the append and the fold — leaves every
        attribute as it was, and the sweep keeps updating."""
        table, batches = _scenario()
        failures = get_registry().counter("incremental_apply_failures_total")
        sweep = IncrementalSweep(table)
        sweep.update(batches[0])
        state = (sweep.table, sweep.store, sweep.accumulation, sweep.index)
        before = failures.value
        splice = MatrixRatingStore.splice_row_refresh

        def fail_once(*args, **kwargs):
            monkeypatch.setattr(MatrixRatingStore, "splice_row_refresh", splice)
            raise MemoryError("injected")

        monkeypatch.setattr(MatrixRatingStore, "splice_row_refresh", fail_once)
        with pytest.raises(MemoryError):
            sweep.update(batches[1])
        assert (sweep.table, sweep.store, sweep.accumulation, sweep.index) == state
        plan = FaultPlan(rules=[FaultRule("sweep.apply", "error", times=1)])
        with injected_faults(plan), pytest.raises(InjectedFault):
            sweep.update(batches[1])
        assert (sweep.table, sweep.store, sweep.accumulation, sweep.index) == state
        assert failures.value == before
        for batch in batches[1:]:
            sweep.update(batch)
        assert_sweeps_equal(sweep, _reference({}, table, batches, len(batches)))


def test_write_path_graph_is_its_index_at_each_version(tmp_path):
    """Through the durable write path — build, onboard- and
    heavy-shaped updates, registry and catalog publish, checkpoint,
    recovery with a replayed tail — the sweep's graph is its index,
    equal to a fresh build at each version, and a graph taken before an
    update keeps describing its version."""
    table = amazon_like(SyntheticConfig(
        n_users_source=40, n_users_target=40, n_overlap=8,
        n_items_source=45, n_items_target=43, ratings_per_user=5.0,
        min_ratings_per_user=2, seed=3)).merged()
    tail_items = sorted(table.items, key=lambda i: (len(table.item_profile(i)), i))
    head = max(table.users, key=lambda u: (len(table.user_profile(u)), u))
    batches = [
        [Rating("n-onboard-1", item, 4.0, 10_000 + k)
         for k, item in enumerate(tail_items[:4])],
        [Rating(head, item, 1.0, 10_100 + k)
         for k, item in enumerate(sorted(table.user_profile(head))[:3])],
        [Rating("n-onboard-2", item, 2.0, 10_200 + k)
         for k, item in enumerate(tail_items[4:8])],
    ]
    durable = DurableSweep(tmp_path / "store", table,
                           policy=CheckpointPolicy(max_batches=2), **_WRITER_KWARGS)
    registry = durable.registry()
    catalog = SnapshotCatalog(tmp_path / "catalog", keep_last=2)
    catalog.attach(registry)
    for batch in batches:
        registry.update(batch)
    catalog.detach()
    durable.close()
    recovered = DurableSweep.recover(tmp_path / "store")
    assert recovered.last_recovery.replayed_batches == 1

    graph = recovered.graph
    assert graph.index is recovered.sweep.index
    final = table
    for batch in batches:
        final = final.with_ratings(batch)
    assert _index_tuple(graph.index) == _index_tuple(
        build_similarity_graph(RatingTable(list(final))).index)

    taken = _index_tuple(graph.index)
    more = [Rating("n-onboard-3", tail_items[0], 5.0, 10_300),
            Rating("n-onboard-3", tail_items[-1], 1.0, 10_301)]
    recovered.update(more)
    assert _index_tuple(graph.index) == taken
    fresh = recovered.graph
    assert fresh.index is not graph.index
    assert _index_tuple(fresh.index) == _index_tuple(
        build_similarity_graph(RatingTable(list(final.with_ratings(more)))).index)
    recovered.close()


# ----------------------------------------------------------------------
# The tentpole property: bit-identical recovery at every crash point
# ----------------------------------------------------------------------


def _recover_and_check(store_dir, table, batches, references) -> None:
    """Recover *store_dir* and compare against the never-crashed
    reference for whatever prefix the log made durable."""
    recovered = DurableSweep.recover(store_dir)
    applied = recovered.applied_seq
    assert 0 <= applied <= len(batches)
    assert_sweeps_equal(recovered, _reference(references, table, batches, applied))
    recovered.close()


@pytest.mark.slow
def test_recovery_bit_identical_at_every_crash_point(tmp_path):
    """Enumerate every crash point the write/checkpoint stream visits,
    then die at each one and prove recovery reconstructs the exact
    never-crashed state for the durable prefix."""
    table, batches = _scenario()
    with injected_faults(FaultPlan()) as recorder:  # no rules: counts only
        _run_writer(tmp_path / "clean", table, batches)
    n_points = sum(recorder.visited.values())
    # The scenario must exercise the interesting transitions.
    for point in ("wal.append.write", "wal.append.torn", "wal.fsync",
                  "wal.rotate.create", "wal.prune.unlink",
                  "checkpoint.snapshot.save", "checkpoint.pointer.rename",
                  "snapshot.manifest.write", "snapshot.array.fsync"):
        assert point in recorder.visited, point
    references: dict = {}
    skipped_preborn = 0
    for index in range(1, n_points + 1):
        store_dir = tmp_path / f"crash{index}"
        plan = FaultPlan(rules=[FaultRule("*", "crash", after=index, times=1)])
        with pytest.raises(InjectedCrash), injected_faults(plan):
            _run_writer(store_dir, table, batches)
        if not (store_dir / CHECKPOINT_FILE).exists():
            # Died before the store's very first checkpoint pointer:
            # nothing was ever acknowledged, nothing to recover.
            skipped_preborn += 1
            continue
        _recover_and_check(store_dir, table, batches, references)
        shutil.rmtree(store_dir)  # keep tmp usage bounded
    # The pre-born window is the first checkpoint only — the sweep must
    # have actually tested recovery for the vast majority of points.
    assert skipped_preborn < n_points / 3


@pytest.mark.parametrize("preparation", ["torn-append", "lost-log"])
def test_crash_during_recovery_is_recoverable(tmp_path, preparation):
    """Recovery itself (repair truncation, segment unlinks, log reset)
    can die at any of its own crash points; a second recovery still
    lands on the exact same state."""
    table, batches = _scenario()
    crashed = tmp_path / "crashed"
    if preparation == "torn-append":
        plan = FaultPlan(rules=[
            FaultRule("wal.append.torn", "crash", after=3, times=1)])
        with pytest.raises(InjectedCrash), injected_faults(plan):
            _run_writer(crashed, table, batches)
    else:
        _run_writer(crashed, table, batches)
        for segment in (crashed / "wal").glob("*.wal"):
            segment.unlink()
    references: dict = {}
    _recover_and_check(  # the baseline: clean recovery works at all
        _copy_store(crashed, tmp_path / "baseline"),
        table, batches, references)
    with injected_faults(FaultPlan()) as recorder:
        DurableSweep.recover(_copy_store(crashed, tmp_path / "enumerate")).close()
    for index in range(1, sum(recorder.visited.values()) + 1):
        store_dir = _copy_store(crashed, tmp_path / f"rcrash{index}")
        plan = FaultPlan(rules=[FaultRule("*", "crash", after=index, times=1)])
        with pytest.raises(InjectedCrash), injected_faults(plan):
            DurableSweep.recover(store_dir)
        _recover_and_check(store_dir, table, batches, references)
        shutil.rmtree(store_dir)


def _copy_store(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    return destination


# ----------------------------------------------------------------------
# Real kill -9: subprocess writers dying at env-armed crash points
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """\
import json, sys
plan_path, store_dir = sys.argv[1], sys.argv[2]
from repro.data.ratings import Rating, RatingTable
from repro.durability.manager import CheckpointPolicy, DurableSweep
plan = json.load(open(plan_path))
durable = DurableSweep(
    store_dir, RatingTable([Rating(*r) for r in plan["base"]]),
    cf_k=8,
    policy=CheckpointPolicy(max_batches=2),
    group_commit=2, segment_bytes=192)
for batch in plan["batches"]:
    durable.update([Rating(*r) for r in batch])
durable.close()
"""


def _subprocess_env(plan: FaultPlan | None) -> dict:
    env = {**os.environ,
           "PYTHONPATH": str(_SRC) + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    env.pop(PLAN_ENV, None)
    if plan is not None:
        env.update(plan.to_env())
    return env


@pytest.mark.crash
@pytest.mark.slow
def test_kill9_writer_recovers_bit_identical(tmp_path):
    table, batches = _scenario()
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "base": [[r.user, r.item, r.value, r.timestep] for r in table],
        "batches": [[[r.user, r.item, r.value, r.timestep]
                     for r in batch] for batch in batches]}),
        encoding="utf-8")
    script = tmp_path / "writer.py"
    script.write_text(_WRITER_SCRIPT, encoding="utf-8")

    # One clean run pins the crash-point count for this scenario; the
    # in-process recorder agrees with the subprocess because both run
    # the identical deterministic stream with a plan armed.
    with injected_faults(FaultPlan()) as recorder:
        _run_writer(tmp_path / "clean", table, batches)
    n_points = sum(recorder.visited.values())
    # Deterministic "random" kill points: spread across the stream,
    # seeded so every CI run reproduces the same deaths.
    indices = sorted(random.Random(20_17).sample(range(2, n_points + 1), 5))
    references: dict = {}
    for index in indices:
        store_dir = tmp_path / f"kill{index}"
        result = subprocess.run(
            [sys.executable, str(script), str(plan), str(store_dir)],
            env=_subprocess_env(FaultPlan(rules=[
                FaultRule("*", "kill", after=index, times=1)])),
            capture_output=True, text=True, timeout=120)
        assert result.returncode == -signal.SIGKILL, result.stderr
        if not (store_dir / CHECKPOINT_FILE).exists():
            continue  # killed before the store's first checkpoint
        _recover_and_check(store_dir, table, batches, references)
        shutil.rmtree(store_dir)


@pytest.mark.crash
def test_kill9_env_activation_matches_named_point(tmp_path):
    """A one-rule ``kill`` plan in ``REPRO_FAULT_PLAN`` arms exactly the
    named point — the subprocess dies by SIGKILL there, and an unarmed
    subprocess finishes cleanly with the same environment shape."""
    table, batches = _scenario(n_base=12, n_batches=2)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "base": [[r.user, r.item, r.value, r.timestep] for r in table],
        "batches": [[[r.user, r.item, r.value, r.timestep]
                     for r in batch] for batch in batches]}),
        encoding="utf-8")
    script = tmp_path / "writer.py"
    script.write_text(_WRITER_SCRIPT, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(script), str(plan), str(tmp_path / "s1")],
        env=_subprocess_env(FaultPlan(rules=[
            FaultRule("wal.fsync", "kill", after=1, times=1)])),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == -signal.SIGKILL, result.stderr
    clean = subprocess.run(
        [sys.executable, str(script), str(plan), str(tmp_path / "s2")],
        env=_subprocess_env(None),
        capture_output=True, text=True, timeout=120)
    assert clean.returncode == 0, clean.stderr


# ----------------------------------------------------------------------
# Registry recovery: the serving layer over a recovered store
# ----------------------------------------------------------------------


def _assert_serving_equal(got: RecommendationService,
                          want: RecommendationService) -> None:
    snapshot = want.registry.current()
    users = sorted(snapshot.store.user_index)
    items = sorted(snapshot.store.item_index)[:10]
    for user in users:
        for item in items:
            assert got.predict(user, item) == want.predict(user, item)
        assert got.recommend(user, n=5) == want.recommend(user, n=5)


def test_registry_recover_serves_identically(tmp_path):
    """Interleaved publish/update rounds, a crash, recovery via
    ModelRegistry.recover, more rounds — the recovered registry serves
    exactly what the never-crashed one does throughout."""
    table, batches = _scenario(seed=5)
    durable = DurableSweep(tmp_path / "store", table,
                           policy=CheckpointPolicy(max_batches=2),
                           **_WRITER_KWARGS)
    registry = durable.registry()
    mirror = ModelRegistry(sweep=IncrementalSweep(table), cf_k=8)
    for batch in batches[:3]:
        registry.update(batch)
        mirror.update(batch)
    _assert_serving_equal(RecommendationService(registry),
                          RecommendationService(mirror))
    # The crash: the durable writer is abandoned mid-life (no close,
    # no final checkpoint) and rebuilt from disk alone.
    del registry, durable
    recovered = ModelRegistry.recover(tmp_path / "store")
    _assert_serving_equal(RecommendationService(recovered),
                          RecommendationService(mirror))
    for batch in batches[3:]:
        recovered.update(batch)
        mirror.update(batch)
    _assert_serving_equal(RecommendationService(recovered),
                          RecommendationService(mirror))
    # Serving parameters travelled through the persisted config.
    assert recovered.current().cf_k == 8
