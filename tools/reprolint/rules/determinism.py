"""Determinism rules: the artifact trees must be bit-identical across
processes and re-runs.

* **REP101 salted-hash** — builtin ``hash()`` is salted per process
  (PYTHONHASHSEED); partition routing or tie-breaking on it churns
  every artifact. The incident: ``hash(item)`` genre-split tie-breaks
  randomized the table2/3 artifacts until PR 1 pinned ``stable_hash``.
* **REP102 unseeded-random** — module-level ``random.*`` /
  ``np.random.*`` draws (or RNG constructions without a seed) make
  sweeps unreproducible. Only ``data/synthetic.py`` consumes entropy,
  and only through its seeded API boundary.
* **REP103 wallclock-time** — ``time.time()`` in a compute path leaks
  the clock into artifacts and flakes tests; schedule with
  ``time.monotonic()`` and stamp artifacts at the CLI edge instead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.config import DETERMINISM_EXEMPT, DETERMINISTIC_TREES, in_trees
from reprolint.core import Finding, Rule, SourceFile

#: ``random.<fn>`` draws that hit the process-global unseeded RNG.
_GLOBAL_RANDOM_FNS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

#: numpy module aliases this repo uses.
_NUMPY_ALIASES = {"np", "_np", "numpy"}


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"] (empty when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _DeterministicTreeRule(Rule):
    def applies(self, source: SourceFile) -> bool:
        return in_trees(source.rel, DETERMINISTIC_TREES) and not in_trees(
            source.rel, DETERMINISM_EXEMPT
        )


class SaltedHashRule(_DeterministicTreeRule):
    id = "REP101"
    name = "salted-hash"
    description = (
        "builtin hash() in a deterministic tree — use "
        "repro.engine.partitioner.stable_hash"
    )
    rationale = (
        "hash(item) tie-breaks churned the table2/3 artifacts per "
        "process until PR 1 pinned stable_hash"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Name) and func.id == "hash"):
                continue
            # A __hash__ implementation delegating to hash() is fine:
            # per-process identity is that protocol's entire contract.
            if source.qualname_at(node.lineno).endswith("__hash__"):
                continue
            yield self.finding(
                source,
                node,
                "salted builtin hash() in a deterministic path; use "
                "stable_hash (repro.engine.partitioner) so partitions "
                "and tie-breaks survive PYTHONHASHSEED",
            )


class UnseededRandomRule(_DeterministicTreeRule):
    id = "REP102"
    name = "unseeded-random"
    description = ("unseeded random/np.random usage outside data/synthetic.py")
    rationale = (
        "sweeps and artifacts must reproduce bit-identically; only the "
        "seeded synthetic generator may consume entropy"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            message = self._diagnose(node, chain)
            if message is not None:
                yield self.finding(source, node, message)

    def _diagnose(self, node: ast.Call, chain: list[str]) -> str | None:
        if len(chain) == 2 and chain[0] == "random":
            fn = chain[1]
            if fn in _GLOBAL_RANDOM_FNS:
                return (
                    f"random.{fn}() draws from the process-global "
                    "unseeded RNG; construct random.Random(seed)"
                )
            if fn == "Random" and _seedless(node):
                return (
                    "random.Random() without a seed; thread an explicit "
                    "seed through the caller"
                )
            if fn == "seed":
                return (
                    "random.seed() mutates the process-global RNG; "
                    "construct random.Random(seed) instead"
                )
        if (len(chain) == 3 and chain[0] in _NUMPY_ALIASES and chain[1] == "random"):
            fn = chain[2]
            if fn == "default_rng":
                if _seedless(node):
                    return (
                        "np.random.default_rng() without a seed; pass "
                        "the config's seed explicitly"
                    )
                return None
            if fn in ("Generator", "SeedSequence", "PCG64"):
                return None
            return (
                f"np.random.{fn}() uses numpy's process-global RNG; "
                "use np.random.default_rng(seed)"
            )
        return None


def _seedless(node: ast.Call) -> bool:
    """No positional seed and no seed= keyword, or an explicit None."""
    if node.args:
        return isinstance(node.args[0], ast.Constant) and (node.args[0].value is None)
    for keyword in node.keywords:
        if keyword.arg in ("seed", "x") or keyword.arg is None:
            return isinstance(keyword.value, ast.Constant) and (
                keyword.value.value is None
            )
    return True


class WallClockRule(_DeterministicTreeRule):
    id = "REP103"
    name = "wallclock-time"
    description = "time.time() inside a deterministic compute path"
    rationale = (
        "wall-clock reads leak into artifacts and flake comparisons; "
        "use time.monotonic() for scheduling, stamp outputs at the edge"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if _attr_chain(node.func) == ["time", "time"]:
                yield self.finding(
                    source,
                    node,
                    "time.time() in a deterministic tree; use "
                    "time.monotonic() for intervals or stamp at the "
                    "CLI/reporting edge",
                )
