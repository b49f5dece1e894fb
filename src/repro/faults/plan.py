"""Seeded fault plans: which named point misbehaves, how, and when.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` entries
plus a seed. Code under test declares **named points** — every
dangerous filesystem transition of the write-ahead log, the snapshot
writer and the checkpoint manager, plus the gateway's transport points
(``gateway.worker.request``, ``gateway.worker.send``,
``gateway.worker.load``) — and the plan decides, deterministically per
seed, whether each visit misbehaves:

=========  ============================================================
kind       effect at a firing visit
=========  ============================================================
delay      sleep ``delay_s`` seconds, then proceed normally
error      raise :class:`InjectedFault` (a retryable synthetic error —
           the gateway worker maps it to a retryable error response)
crash      raise :class:`InjectedCrash` (simulated process death; a
           ``BaseException``): the harness catches it, abandons every
           in-memory object — what a real crash does to them — and
           drives recovery against whatever bytes reached the disk
kill       ``SIGKILL`` the current process — real, uncatchable death;
           in a subprocess armed through the environment, the
           strongest crash model a single machine offers
drop       frame points only: swallow the outgoing frame entirely (the
           peer sees silence, i.e. a hang)
corrupt    frame points only: clobber the length header with an
           over-limit value (the reader detects a corrupt stream —
           deliberately *detectable* corruption; flipping payload
           bytes could mutate a score into silently-wrong-but-valid
           JSON, which no correctness gate should ever inject)
torn       frame points only: send half the frame, then ``SIGKILL`` —
           the peer observes a genuine mid-frame EOF
=========  ============================================================

Rules are scheduled per rule, not globally: each rule counts the
visits whose point matches its (glob) pattern, fires from visit
``after`` on, at most ``times`` times, each time with ``probability``
drawn from a :class:`random.Random` seeded by ``(plan seed, spawn
sequence number, rule index)`` — so a recorded failure reproduces from
its seed, while the workers of one fleet (each spawned with its own
sequence number) do not fire in lockstep: were they to share a
schedule, a frame retried from one worker to the next could meet the
same firing visit again and exhaust its retries on a low-rate rule.

``max_spawn_seq`` gates a rule on the **spawn sequence number** the
supervisor exports to each worker it forks (``REPRO_FAULT_SPAWN_SEQ``):
a rule with ``max_spawn_seq=2`` only fires in the first two spawned
workers, which is how a test says "the first two workers die during
snapshot load; their replacements come up clean".

Activation is :func:`install_plan` / :func:`injected_faults`
in-process, or ``REPRO_FAULT_PLAN`` (the plan's JSON,
:meth:`FaultPlan.to_env`) in subprocess environments.

The plan counts every visit (:attr:`FaultPlan.visited`), so a test can
first run a scenario under an empty plan to enumerate its points, then
sweep *every* index with a one-rule ``FaultRule("*", "crash", after=n,
times=1)`` — the property harness in ``tests/test_durability.py`` does
exactly that. While any plan is armed the WAL splits each frame write
around the ``wal.append.torn`` point, so dying there leaves a genuinely
half-written record rather than an all-or-nothing buffer drop.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import signal
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import get_registry

_M_INJECTED = get_registry().counter(
    "faults_injected_total",
    "fault-plan rules that fired, by kind and point",
    labels=("kind", "point"),
)
_M_DELAY_SECONDS = get_registry().counter(
    "faults_injected_delay_seconds_total",
    "seconds of sleep the plan's delay rules injected, by point",
    labels=("point",),
)
_M_PLANS = get_registry().counter(
    "fault_plans_installed_total", "fault plans armed in this process"
)

PLAN_ENV = "REPRO_FAULT_PLAN"
SPAWN_SEQ_ENV = "REPRO_FAULT_SPAWN_SEQ"

#: every kind a rule may carry …
KINDS = ("delay", "error", "crash", "kill", "drop", "corrupt", "torn")
#: … the subset that only makes sense where bytes are about to go on
#: the wire (``frame_fault``), and the subset valid at plain points.
FRAME_ONLY_KINDS = ("drop", "corrupt", "torn")
POINT_KINDS = ("delay", "error", "crash", "kill")


class InjectedCrash(BaseException):
    """A simulated process death at a named point.

    Deliberately **not** a :class:`ReproError` (nor an
    :class:`Exception`): library code must never catch it, the same way
    it cannot catch a power loss.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected crash at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit


class InjectedFault(ReproError):
    """A synthetic *recoverable* fault at a named point.

    Unlike :class:`InjectedCrash` this is an ordinary
    :class:`~repro.errors.ReproError`: it models a transient failure
    the caller is expected to survive (the gateway worker answers it as
    a retryable error response), not a process death.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit


@dataclass
class FaultRule:
    """One line of a fault plan (see the module docstring)."""

    point: str
    kind: str
    probability: float = 1.0
    after: int = 1
    times: int | None = None
    delay_s: float = 0.0
    max_spawn_seq: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"probability must be within [0, 1], got {self.probability}"
            )
        if self.after < 1:
            raise ReproError(f"after must be >= 1, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ReproError(f"times must be >= 1 or None, got {self.times}")
        if self.delay_s < 0:
            raise ReproError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches(self, point: str) -> bool:
        return self.point == point or fnmatch.fnmatchcase(point, self.point)

    def to_dict(self) -> dict:
        out = {"point": self.point, "kind": self.kind}
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.after != 1:
            out["after"] = self.after
        if self.times is not None:
            out["times"] = self.times
        if self.delay_s:
            out["delay_s"] = self.delay_s
        if self.max_spawn_seq is not None:
            out["max_spawn_seq"] = self.max_spawn_seq
        return out


@dataclass
class _RuleState:
    """Per-process scheduling state for one rule."""

    rng: random.Random
    visits: int = 0
    fired: int = 0


@dataclass
class FaultPlan:
    """A seeded, serialisable schedule of fault rules.

    The plan itself is immutable data plus per-process counters; two
    processes holding the same plan (same seed, same rules) at the same
    spawn sequence number draw the same probability sequence per rule,
    so a subprocess fleet under one ``REPRO_FAULT_PLAN`` misbehaves
    reproducibly per worker — and differently from worker to worker.
    """

    seed: int = 0
    rules: list[FaultRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        # One RNG per rule, seeded by (plan seed, spawn sequence, rule
        # index) folded into an int — hash() is salted per process, so
        # it must not be involved anywhere in this derivation. Spawn
        # sequence 0 (every in-process plan, and a fleet's first
        # worker) folds to the (seed, index) value alone.
        spawn_seq = _spawn_seq()
        self._states = [
            _RuleState(rng=random.Random((self.seed << 32) ^ (spawn_seq << 16) ^ index))
            for index in range(len(self.rules))
        ]
        self.visited: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(self, point: str, frame: bool = False) -> FaultRule | None:
        """The rule (if any) that fires at this visit of *point*.

        Frame points admit every kind except ``error`` (an exception
        raised mid-send would just kill the sender unrecognisably);
        plain points admit everything except the byte-level kinds.
        """
        self.visited[point] = self.visited.get(point, 0) + 1
        spawn_seq = _spawn_seq()
        decision: FaultRule | None = None
        for rule, state in zip(self.rules, self._states):
            if frame:
                if rule.kind == "error":
                    continue
            elif rule.kind in FRAME_ONLY_KINDS:
                continue
            if not rule.matches(point):
                continue
            state.visits += 1
            if decision is not None:
                continue  # keep counting visits for later rules
            if rule.max_spawn_seq is not None and spawn_seq >= rule.max_spawn_seq:
                continue
            if state.visits < rule.after:
                continue
            if rule.times is not None and state.fired >= rule.times:
                continue
            if rule.probability < 1.0 and state.rng.random() >= rule.probability:
                continue
            state.fired += 1
            decision = rule
        if decision is not None:
            # decide() is the single choke point every firing rule
            # passes through — counting here covers plain and frame
            # points alike, in whichever process the plan is armed.
            _M_INJECTED.labels(decision.kind, point).inc()
            if decision.kind == "delay":
                _M_DELAY_SECONDS.labels(point).inc(decision.delay_s)
        return decision

    # ------------------------------------------------------------------
    # Serialisation (the subprocess activation path)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: object) -> "FaultPlan":
        """Build a plan from parsed JSON; anything of the wrong shape is
        a :class:`~repro.errors.ReproError` naming the key or rule at
        fault — the plan arrives through the environment, and is parsed
        inside whichever fault point a process visits first."""
        if not isinstance(data, dict):
            raise ReproError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        seed, rules = data.get("seed", 0), data.get("rules", [])
        if not isinstance(seed, int):
            raise ReproError(f"fault plan 'seed' must be an integer, got {seed!r}")
        if not isinstance(rules, list):
            raise ReproError(f"fault plan 'rules' must be a list, got {rules!r}")
        plan_rules = []
        for index, rule in enumerate(rules):
            try:
                plan_rules.append(FaultRule(**rule))
            except (TypeError, ReproError) as exc:
                # TypeError: not an object, an unknown or missing key
                # (the message names it), or a value of the wrong type.
                raise ReproError(f"fault plan rule #{index}: {exc}") from exc
        return cls(seed=seed, rules=plan_rules)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ReproError(f"malformed fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_env(self) -> dict[str, str]:
        """The environment that activates this plan in a subprocess."""
        return {PLAN_ENV: self.to_json()}


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------

_plan: FaultPlan | None = None
_env_checked = False


def _spawn_seq() -> int:
    raw = os.environ.get(SPAWN_SEQ_ENV, "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


def install_plan(plan: FaultPlan) -> None:
    """Arm *plan* for every subsequent fault point in-process."""
    global _plan
    _plan = plan
    _M_PLANS.inc()


def uninstall_plan() -> None:
    global _plan
    _plan = None


def _from_environment() -> None:
    global _env_checked
    _env_checked = True
    raw = os.environ.get(PLAN_ENV, "")
    if raw:
        install_plan(FaultPlan.from_json(raw))


def active_plan() -> FaultPlan | None:
    """The armed plan, if any (checks ``REPRO_FAULT_PLAN`` once)."""
    if not _env_checked:
        _from_environment()
    return _plan


class injected_faults:
    """``with injected_faults(plan) as plan: ...`` — arm a plan for the
    block, uninstall on exit (fault or crash included)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        uninstall_plan()


# ----------------------------------------------------------------------
# The hooks code under test calls
# ----------------------------------------------------------------------


def _apply(rule: FaultRule, point: str, hit: int) -> None:
    """Apply a non-frame rule at *point* (the frame kinds are applied
    by the wire layer, which owns the bytes)."""
    if rule.kind == "delay":
        time.sleep(rule.delay_s)
    elif rule.kind == "error":
        raise InjectedFault(point, hit)
    elif rule.kind == "crash":
        raise InjectedCrash(point, hit)
    elif rule.kind == "kill":  # pragma: no cover - kills the process
        os.kill(os.getpid(), signal.SIGKILL)


def fault_point(point: str) -> None:
    """Declare a plain named point: the armed plan's delay / error /
    crash / kill rules fire here. Free when nothing is armed."""
    plan = active_plan()
    if plan is None:
        return
    rule = plan.decide(point, frame=False)
    if rule is not None:
        _apply(rule, point, plan.visited.get(point, 1))


def frame_fault(point: str) -> FaultRule | None:
    """Consult the plan where bytes are about to hit the wire.

    Returns the rule for the caller to apply when its kind needs the
    bytes (``delay``/``drop``/``corrupt``/``torn``); process-death
    kinds are applied here directly.
    """
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.decide(point, frame=True)
    if rule is None:
        return None
    if rule.kind in ("crash", "kill"):
        _apply(rule, point, plan.visited.get(point, 1))
        return None
    return rule
