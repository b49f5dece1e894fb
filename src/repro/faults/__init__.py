"""Seeded fault injection for the whole stack — the one injector.

A :class:`~repro.faults.plan.FaultPlan` is a seeded, serialisable
schedule of :class:`~repro.faults.plan.FaultRule` entries that can
**delay**, **drop**, **corrupt**, **tear**, **error**, **crash** or
**kill** at any named point, activated in-process
(:func:`~repro.faults.plan.injected_faults`) or through
``REPRO_FAULT_PLAN`` in subprocesses. Code under test declares its
points with one of two hooks: :func:`~repro.faults.plan.fault_point`
at a plain point (the durability layer's filesystem transitions, the
gateway worker's request/load steps) and
:func:`~repro.faults.plan.frame_fault` where bytes are about to go on
the wire. A delay rule can slow a WAL fsync and a crash rule can die
between a snapshot's manifest write and its rename through the same
plan that drops a gateway frame.
"""

from repro.faults.plan import (
    PLAN_ENV,
    SPAWN_SEQ_ENV,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
    fault_point,
    frame_fault,
    injected_faults,
    install_plan,
    uninstall_plan,
)

__all__ = [
    "PLAN_ENV",
    "SPAWN_SEQ_ENV",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "fault_point",
    "frame_fault",
    "injected_faults",
    "install_plan",
    "uninstall_plan",
]
