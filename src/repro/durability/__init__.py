"""Durability: write-ahead rating log, checkpoints, crash recovery.

Two layers, bottom up:

* :mod:`repro.durability.log` — :class:`~repro.durability.log.RatingLog`,
  the append-only CRC-framed segment-rotated batch log with fsync group
  commit and torn-tail repair.
* :mod:`repro.durability.manager` —
  :class:`~repro.durability.manager.DurableSweep`, which writes every
  update through the log, checkpoints
  :class:`~repro.serving.snapshot.ModelSnapshot`\\ s on a
  :class:`~repro.durability.manager.CheckpointPolicy`, prunes the log
  below the watermark, and recovers bit-identically after any crash.

Every dangerous filesystem transition in both (and in the snapshot
writer) is a named :func:`~repro.faults.plan.fault_point`; the whole
layer is tested by dying at each one under a
:class:`~repro.faults.plan.FaultPlan` (raise-or-``SIGKILL``).
"""

from __future__ import annotations

from repro.durability.log import LogInfo, LogRecord, RatingLog, SegmentInfo
from repro.durability.manager import CheckpointPolicy, DurableSweep, RecoveryReport

__all__ = [
    "CheckpointPolicy",
    "DurableSweep",
    "LogInfo",
    "LogRecord",
    "RatingLog",
    "RecoveryReport",
    "SegmentInfo",
]
