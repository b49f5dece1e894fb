"""Checkpointed durable sweeps: WAL + snapshot + replay = crash safety.

A :class:`DurableSweep` wraps an
:class:`~repro.engine.sharded_sweep.IncrementalSweep` with the full
durability loop:

* every :meth:`update` batch is appended to a
  :class:`~repro.durability.log.RatingLog` **before** it is applied
  (the sweep's own ``wal`` hook enforces the order);
* a :class:`CheckpointPolicy` (log bytes / batch count / staleness)
  decides when the current model is frozen to a
  :class:`~repro.serving.snapshot.ModelSnapshot` checkpoint, after
  which log segments below the watermark are pruned — the log never
  grows without bound;
* :meth:`DurableSweep.recover` loads the last complete checkpoint and
  replays the log tail through the same incremental machinery,
  reconstructing a store / index / edge census **bit-identical** to
  the never-crashed run — the property the
  incremental path already guarantees for ``update == rebuild``,
  composed with the snapshot round trip (tested under injected crashes
  at every crash point, and under real ``kill -9``, in
  ``tests/test_durability.py``).

On-disk layout (one directory per durable store)::

    CHECKPOINT.json       # atomically replaced pointer: which snapshot
                          # is current, the applied-seq watermark, and
                          # the build configuration recovery reuses
    wal/segment-*.wal     # the write-ahead rating log
    snapshots/ckpt-<seq>/ # one ModelSnapshot per checkpoint (only the
                          # pointed-to one is retained after pruning)

Crash ordering: a checkpoint first fsyncs the log, then writes the
snapshot (MANIFEST-last, every byte fsynced), then atomically replaces
``CHECKPOINT.json`` (tmp + fsync + rename + directory fsync), and only
then prunes. A crash between any two steps leaves either the old
checkpoint fully intact or the new one fully adopted — never a state
recovery cannot use. ``config`` keeps two format-v1 constants this
build writes and never reads: ``"with_significance": false`` (builds
that folded a bulk Definition-2 census index the key on recovery) and
``"n_shards": 1`` (builds that could split the sweep into user shards
do). A store written at any shard count recovers here by replaying at
the one layout.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.durability.log import LogInfo, RatingLog, _fsync_dir
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import DurabilityError
from repro.faults.plan import fault_point
from repro.serving.snapshot import ModelSnapshot, required_field

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.ratings import Rating, RatingTable
    from repro.engine.sharded_sweep import IncrementalUpdateStats

CHECKPOINT_FILE = "CHECKPOINT.json"
_FORMAT = "xmap-durable-store"
_FORMAT_VERSION = 1
_WAL_DIR = "wal"
_SNAPSHOT_DIR = "snapshots"
#: The ``config`` keys :meth:`DurableSweep.recover` reads, with the JSON
#: types it accepts for each.
_CONFIG_TYPES = {
    "min_common_users": (int,),
    "min_abs_similarity": (int, float), "cf_k": (int,),
    "positive_only": (bool,), "group_commit": (int,),
    "segment_bytes": (int,), "fsync": (bool,), "policy": (dict,),
}
_POLICY_TYPES = {
    "max_log_bytes": (int, type(None)), "max_batches": (int, type(None)),
    "max_staleness_seconds": (int, float, type(None)),
}


def _checkpoint_name(seq: int) -> str:
    return f"ckpt-{seq:012d}"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to freeze a checkpoint and prune the log.

    A checkpoint is due when **any** enabled trigger fires; ``None``
    disables a trigger. The defaults favour bounded recovery time over
    checkpoint frequency: recovery replays at most *max_batches*
    batches (or *max_log_bytes* of log) past the last snapshot.

    Attributes:
        max_log_bytes: checkpoint once the log holds this many bytes.
        max_batches: checkpoint every this many applied batches.
        max_staleness_seconds: checkpoint when the last one is older
            than this, measured at update time (an idle store does not
            spontaneously checkpoint — there is nothing new to save).
    """

    max_log_bytes: int | None = 16 << 20
    max_batches: int | None = 256
    max_staleness_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_log_bytes", "max_batches", "max_staleness_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise DurabilityError(f"{name} must be positive or None, got {value}")

    def due(self, *, log_bytes: int, batches: int, staleness_seconds: float) -> bool:
        if self.max_log_bytes is not None and log_bytes >= self.max_log_bytes:
            return True
        if self.max_batches is not None and batches >= self.max_batches:
            return True
        return (
            self.max_staleness_seconds is not None
            and staleness_seconds >= self.max_staleness_seconds
        )

    def as_dict(self) -> dict:
        return {
            "max_log_bytes": self.max_log_bytes,
            "max_batches": self.max_batches,
            "max_staleness_seconds": self.max_staleness_seconds,
        }


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableSweep.recover` did."""

    checkpoint_seq: int          # applied-seq watermark of the snapshot
    snapshot_path: Path          # the checkpoint directory loaded
    replayed_batches: int        # log records replayed past the watermark
    replayed_ratings: int        # ratings inside those batches
    log_repairs: tuple[str, ...]  # torn-tail / corruption repairs made
    seconds: float               # wall clock for load + rebuild + replay


class DurableSweep:
    """An :class:`~repro.engine.sharded_sweep.IncrementalSweep` whose
    every accepted batch survives a crash.

    Create one with a *table* on a fresh directory; re-open an existing
    directory with :meth:`recover`. The build configuration (edge
    filters, serving parameters, log knobs) is persisted in
    ``CHECKPOINT.json`` so recovery reconstructs the same machine
    without the caller repeating it — the log and checkpoint settings
    can still be overridden at recovery time.

    The instance quacks like its inner sweep where the serving side
    needs it (``store`` / ``index`` / ``table`` / ``graph`` /
    ``update``), so
    :meth:`~repro.serving.snapshot.ModelSnapshot.from_sweep` and
    :class:`~repro.serving.registry.ModelRegistry` accept it directly —
    a registry built over a ``DurableSweep`` publishes exactly what it
    would over a plain sweep, with the WAL-first write and checkpoint
    policy running underneath.
    """

    def __init__(
        self,
        directory,
        table: "RatingTable | None" = None,
        *,
        min_common_users: int = 1,
        min_abs_similarity: float = 0.0,
        cf_k: int = 50,
        positive_only: bool = True,
        policy: CheckpointPolicy | None = None,
        group_commit: int = 1,
        segment_bytes: int = 4 << 20,
        fsync: bool = True,
    ) -> None:
        directory = Path(directory)
        if (directory / CHECKPOINT_FILE).exists():
            raise DurabilityError(
                f"{directory} already holds a durable store; open it "
                f"with DurableSweep.recover() instead"
            )
        if table is None:
            raise DurabilityError(
                "creating a durable store needs the initial rating "
                "table (recover() re-opens an existing directory)"
            )
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.cf_k = cf_k
        self.positive_only = positive_only
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.log = RatingLog(
            directory / _WAL_DIR,
            segment_bytes=segment_bytes,
            group_commit=group_commit,
            fsync=fsync,
        )
        self.sweep = IncrementalSweep(
            table,
            min_common_users=min_common_users,
            min_abs_similarity=min_abs_similarity,
            wal=self.log,
        )
        self.applied_seq = self.log.last_seq
        self.last_recovery: RecoveryReport | None = None
        self._batches_since_checkpoint = 0
        self._last_checkpoint_monotonic = time.monotonic()
        self.checkpoint()

    # ------------------------------------------------------------------
    # The sweep facade (what ModelSnapshot.from_sweep / the registry use)
    # ------------------------------------------------------------------

    @property
    def store(self):
        return self.sweep.store

    @property
    def index(self):
        return self.sweep.index

    @property
    def table(self) -> "RatingTable":
        return self.sweep.table

    @property
    def graph(self):
        return self.sweep.graph

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def update(self, batch: "Iterable[Rating]") -> "IncrementalUpdateStats":
        """Log, apply, and maybe checkpoint one rating batch.

        The inner sweep appends the batch to the WAL before touching
        any in-memory state; once applied, the checkpoint policy runs.
        Returns the sweep's update stats (``wal_seq`` carries the
        batch's log sequence number).
        """
        stats = self.sweep.update(batch)
        self.applied_seq = self.log.last_seq
        self._batches_since_checkpoint += 1
        staleness = time.monotonic() - self._last_checkpoint_monotonic
        if self.policy.due(
            log_bytes=self.log.total_bytes,
            batches=self._batches_since_checkpoint,
            staleness_seconds=staleness,
        ):
            self.checkpoint()
        return stats

    def checkpoint(self) -> Path:
        """Freeze the current model to a snapshot, atomically adopt it
        as the recovery root, and prune the log below the watermark.

        Safe to call at any time (the policy calls it automatically).
        Returns the checkpoint snapshot directory.
        """
        self.log.sync()
        seq = self.applied_seq
        snapshot_dir = self.directory / _SNAPSHOT_DIR / _checkpoint_name(seq)
        fault_point("checkpoint.snapshot.save")
        ModelSnapshot.from_sweep(
            self.sweep,
            cf_k=self.cf_k,
            positive_only=self.positive_only,
        ).save(snapshot_dir, overwrite=True)

        pointer = {
            "format": _FORMAT,
            "format_version": _FORMAT_VERSION,
            "applied_seq": seq,
            "snapshot": f"{_SNAPSHOT_DIR}/{_checkpoint_name(seq)}",
            "config": {
                "n_shards": 1,  # format-v1 constant
                "min_common_users": self.sweep.min_common_users,
                "min_abs_similarity": self.sweep.min_abs_similarity,
                "with_significance": False,  # format-v1 constant
                "cf_k": self.cf_k,
                "positive_only": self.positive_only,
                "group_commit": self.log.group_commit,
                "segment_bytes": self.log.segment_bytes,
                "fsync": self.log.fsync_enabled,
                "policy": self.policy.as_dict(),
            },
        }
        tmp_path = self.directory / (CHECKPOINT_FILE + ".tmp")
        fault_point("checkpoint.pointer.write")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(pointer, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            fault_point("checkpoint.pointer.fsync")
            os.fsync(handle.fileno())
        fault_point("checkpoint.pointer.rename")
        os.replace(tmp_path, self.directory / CHECKPOINT_FILE)
        fault_point("checkpoint.pointer.dirsync")
        _fsync_dir(self.directory)

        # Compaction below the adopted watermark: old log segments and
        # superseded (or half-written) checkpoint directories. A crash
        # anywhere in here only leaves extra files for the next
        # checkpoint to sweep up.
        self.log.prune(seq)
        snapshots_root = self.directory / _SNAPSHOT_DIR
        for stale in sorted(snapshots_root.iterdir()):
            if stale.name != _checkpoint_name(seq) and stale.is_dir():
                fault_point("checkpoint.prune.snapshot")
                shutil.rmtree(stale)
        self._batches_since_checkpoint = 0
        self._last_checkpoint_monotonic = time.monotonic()
        return snapshot_dir

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        *,
        policy: CheckpointPolicy | None = None,
        group_commit: int | None = None,
        fsync: bool | None = None,
    ) -> "DurableSweep":
        """Rebuild the pre-crash sweep from *directory*.

        Loads the pointed-to checkpoint snapshot, rebuilds the
        incremental machinery over its table (the snapshot's arrays are
        adopted, so nothing is re-interned), repairs the log (torn
        tails, truncated segments and corrupt CRC frames are cut back
        to the last valid record) and replays every record past the
        checkpoint watermark through
        :meth:`~repro.engine.sharded_sweep.IncrementalSweep.update`.
        The result is bit-identical to a writer that never crashed
        after its last durable append.

        Overrides (*policy*, *group_commit*, *fsync*)
        default to the persisted configuration. The recovery telemetry
        lands in :attr:`last_recovery`.
        """
        started = time.perf_counter()
        directory = Path(directory)
        pointer_path = directory / CHECKPOINT_FILE
        if not pointer_path.exists():
            raise DurabilityError(
                f"{directory} is not a durable store (no "
                f"{CHECKPOINT_FILE})"
            )
        try:
            pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DurabilityError(
                f"corrupt checkpoint pointer {pointer_path}: {exc}"
            ) from exc
        if not isinstance(pointer, dict):
            raise DurabilityError(
                f"corrupt checkpoint pointer {pointer_path}: not a JSON object"
            )
        if pointer.get("format") != _FORMAT:
            raise DurabilityError(
                f"{directory} is not a durable store "
                f"(format={pointer.get('format')!r})"
            )
        if pointer.get("format_version") != _FORMAT_VERSION:
            raise DurabilityError(
                f"durable store format version "
                f"{pointer.get('format_version')!r} is not supported "
                f"(this build reads version {_FORMAT_VERSION})"
            )

        def _fields(document, types: dict) -> dict:
            return {
                key: required_field(
                    document, key, kinds, f"checkpoint pointer {pointer_path}",
                    error=DurabilityError)
                for key, kinds in types.items()
            }

        # Every key is read before the snapshot is mapped or the log
        # opened (opening repairs it): a refused pointer changes nothing.
        head = _fields(
            pointer, {"config": (dict,), "applied_seq": (int,), "snapshot": (str,)})
        config = _fields(head["config"], _CONFIG_TYPES)
        config["policy"] = _fields(config["policy"], _POLICY_TYPES)
        checkpoint_seq = head["applied_seq"]
        snapshot_path = directory / head["snapshot"]

        snapshot = ModelSnapshot.load(snapshot_path)
        if group_commit is None:
            group_commit = int(config["group_commit"])
        if fsync is None:
            fsync = bool(config["fsync"])
        log = RatingLog(
            directory / _WAL_DIR,
            segment_bytes=int(config["segment_bytes"]),
            group_commit=group_commit,
            fsync=fsync,
        )
        if log.last_seq < checkpoint_seq:
            # Only possible when fsync was off (or the disk dropped
            # synced writes): frames below the watermark vanished. They
            # are already baked into the checkpoint — restart the log
            # numbering there so replay watermarks stay monotone.
            log.reset_to(checkpoint_seq)

        instance = cls.__new__(cls)
        instance.directory = directory
        instance.cf_k = int(config["cf_k"])
        instance.positive_only = bool(config["positive_only"])
        if policy is None:
            policy = CheckpointPolicy(**config["policy"])
        instance.policy = policy
        instance.log = log
        instance.sweep = IncrementalSweep(
            snapshot.table(),
            min_common_users=int(config["min_common_users"]),
            min_abs_similarity=float(config["min_abs_similarity"]),
        )
        replayed_batches = 0
        replayed_ratings = 0
        for record in log.replay(after_seq=checkpoint_seq):
            instance.sweep.update(record.ratings)
            replayed_batches += 1
            replayed_ratings += len(record.ratings)
        # Arm the WAL hook only after replay — replayed batches are
        # already in the log.
        instance.sweep.wal = log
        instance.applied_seq = log.last_seq
        instance._batches_since_checkpoint = replayed_batches
        instance._last_checkpoint_monotonic = time.monotonic()
        instance.last_recovery = RecoveryReport(
            checkpoint_seq=checkpoint_seq,
            snapshot_path=snapshot_path,
            replayed_batches=replayed_batches,
            replayed_ratings=replayed_ratings,
            log_repairs=log.repairs,
            seconds=time.perf_counter() - started,
        )
        return instance

    # ------------------------------------------------------------------
    # Serving / housekeeping
    # ------------------------------------------------------------------

    def registry(self, **kwargs):
        """A :class:`~repro.serving.registry.ModelRegistry` writing
        through this durable sweep (its current state becomes
        version 1)."""
        from repro.serving.registry import ModelRegistry

        kwargs.setdefault("cf_k", self.cf_k)
        kwargs.setdefault("positive_only", self.positive_only)
        return ModelRegistry(sweep=self, **kwargs)

    def log_info(self) -> LogInfo:
        return self.log.info()

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "DurableSweep":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableSweep({str(self.directory)!r}, "
            f"applied_seq={self.applied_seq})"
        )
