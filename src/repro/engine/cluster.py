"""The simulated cluster behind Figure 11: cost model, stages, makespan.

The paper runs X-Map and MLlib-ALS on Spark and reports their speedup
on 5–20 machines (Figure 11). We cannot ship a cluster, so a job is
costed instead of run: the real fit counts each stage's work once, and
this module lays those counts onto a cluster of any size.

A job is a list of :class:`Stage` — per key (a user, an item, a pair),
the work units it reads, the records it writes and the records it pulls
through a shuffle — plus the record counts it broadcasts. On a cluster,
a stage's keys are dealt round-robin by index onto
``default_parallelism()`` tasks, and each task costs

    task_overhead + shuffle · 2 · moved + compute · (work + out)

(a shuffled record is written once and read once). Longest Processing
Time list scheduling lays the tasks onto the slots, as Spark's
scheduler does with uniform-ish tasks; each stage adds a barrier, and
each broadcast record is shipped to every machine. The model mirrors
the first-order costs of a Spark deployment on the paper's testbed
(20 × Xeon E5520, 2×GigE). Absolute values are arbitrary simulated
seconds; only ratios matter for the speedup curves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EngineError


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated costs (seconds).

    Attributes:
        compute_per_record: charge per work unit or output record of a
            task.
        task_overhead: fixed charge per task (launch + scheduling).
        shuffle_per_record: charge per record written to or read from a
            shuffle.
        stage_barrier: fixed charge per stage (driver synchronisation).
        broadcast_per_record_machine: charge per broadcast record per
            machine (all-to-all distribution).
    """

    compute_per_record: float = 2e-4
    task_overhead: float = 8e-3
    shuffle_per_record: float = 5e-5
    stage_barrier: float = 2e-2
    broadcast_per_record_machine: float = 5e-6

    def validated(self) -> "CostModel":
        """Raise :class:`~repro.errors.EngineError` on negative costs."""
        for name in ("compute_per_record", "task_overhead",
                     "shuffle_per_record", "stage_barrier",
                     "broadcast_per_record_machine"):
            if getattr(self, name) < 0:
                raise EngineError(f"{name} must be >= 0")
        return self


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated cluster: machine count plus the cost model.

    Attributes:
        n_machines: worker machines (the paper varies 5–20).
        n_slots_per_machine: concurrent task slots per machine (the
            testbed's E5520 has 4 physical cores; Spark defaults to one
            task per core).
        cost: the :class:`CostModel`.
    """

    n_machines: int
    n_slots_per_machine: int = 4
    cost: CostModel = CostModel()

    def validated(self) -> "ClusterSpec":
        """Raise :class:`~repro.errors.EngineError` on bad values."""
        if self.n_machines <= 0:
            raise EngineError(f"n_machines must be positive, got {self.n_machines}")
        if self.n_slots_per_machine <= 0:
            raise EngineError(
                f"n_slots_per_machine must be positive, "
                f"got {self.n_slots_per_machine}")
        self.cost.validated()
        return self

    @property
    def total_slots(self) -> int:
        """Cluster-wide parallel task slots."""
        return self.n_machines * self.n_slots_per_machine

    def default_parallelism(self) -> int:
        """Tasks per stage (2× slots, the usual Spark guidance)."""
        return self.total_slots * 2


@dataclass(frozen=True)
class Stage:
    """One stage of a job, as per-key counts (equal-length arrays).

    Attributes:
        name: label ("baseliner", "extend", ...).
        work: work units each key reads.
        out: records each key writes.
        moved: records each key pulls through a shuffle (0 for a stage
            that reads cached or local input).
    """

    name: str
    work: np.ndarray
    out: np.ndarray
    moved: np.ndarray | float = 0.0


def stage_makespan(task_durations: Sequence[float], cluster: ClusterSpec) -> float:
    """LPT makespan of one stage's tasks on the cluster's slots.

    An empty stage takes zero time. Negative durations are a caller bug.
    """
    durations = np.asarray(task_durations, dtype=np.float64)
    if not durations.size:
        return 0.0
    if (durations < 0).any():
        raise EngineError("task durations must be >= 0")
    slots = [0.0] * cluster.total_slots
    for duration in sorted(durations.tolist(), reverse=True):
        heapq.heappush(slots, heapq.heappop(slots) + duration)
    return max(slots)


def task_seconds(stage: Stage, cluster: ClusterSpec) -> np.ndarray:
    """Per-task simulated seconds of *stage*: its keys dealt round-robin
    by index onto ``cluster.default_parallelism()`` tasks (fewer when
    the stage has fewer keys)."""
    cost = cluster.cost
    n_tasks = min(cluster.default_parallelism(), len(stage.work))
    per_key = (cost.shuffle_per_record * 2 * stage.moved
               + cost.compute_per_record * (stage.work + stage.out))
    task = np.arange(len(per_key)) % max(n_tasks, 1)
    return cost.task_overhead + np.bincount(task, weights=per_key, minlength=n_tasks)


def broadcast_seconds(broadcasts: Iterable[int], cluster: ClusterSpec) -> float:
    """Seconds to ship *broadcasts* (record counts) to every machine."""
    records = list(broadcasts)
    if any(count < 0 for count in records):
        raise EngineError(f"broadcast record counts must be >= 0, got {records}")
    return (sum(records) * cluster.cost.broadcast_per_record_machine
            * cluster.n_machines)


def job_makespan(stages: Sequence[Stage], broadcasts: Iterable[int],
                 cluster: ClusterSpec) -> float:
    """Simulated seconds of a job on *cluster*: its stages' makespans
    one after the other, a barrier per stage, and its broadcasts."""
    cluster = cluster.validated()
    return (sum(stage_makespan(task_seconds(stage, cluster), cluster)
                for stage in stages)
            + cluster.cost.stage_barrier * len(stages)
            + broadcast_seconds(broadcasts, cluster))


def speedup_curve(makespans: dict[int, float],
                  baseline_machines: int = 5) -> dict[int, float]:
    """Figure 11's curve: ``S_p = T_baseline / T_p`` — relative to the
    5-machine run (the paper uses T_5 instead of a sequential T_1 "due
    to the considerable amount of computations").

    Args:
        makespans: machines → simulated makespan.
        baseline_machines: the reference point (paper: 5).
    """
    if baseline_machines not in makespans:
        raise EngineError(
            f"baseline machine count {baseline_machines} missing from "
            f"makespans {sorted(makespans)}")
    baseline = makespans[baseline_machines]
    if baseline <= 0:
        raise EngineError("baseline makespan must be positive")
    return {machines: baseline / value for machines, value in sorted(makespans.items())}
