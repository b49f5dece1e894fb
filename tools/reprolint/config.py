"""Repo-aware configuration: which trees each invariant governs.

reprolint is deliberately *not* generic — every constant here names a
real seam of this repository. Keep the lists in sync with the module
docstrings they mirror (``repro.faults.plan`` for the fault-point
registry).
"""

from __future__ import annotations

#: Trees whose outputs must be bit-identical across processes and
#: re-runs: the similarity core, the Baseliner sweep and Fig. 11's cost
#: model, the serving and durability layers. The gateway is excluded on
#: purpose — its backoff jitter and hedging are *intentionally*
#: nondeterministic.
DETERMINISTIC_TREES = (
    "src/repro/cf/",
    "src/repro/core/",
    "src/repro/data/",
    "src/repro/durability/",
    "src/repro/engine/",
    "src/repro/serving/",
    "src/repro/similarity/",
)

#: The one module allowed to consume entropy freely: the synthetic
#: trace generator is seeded at its API boundary.
DETERMINISM_EXEMPT = ("src/repro/data/synthetic.py",)

#: Where async code runs on the event loop and must neither block it
#: nor swallow cancellation.
ASYNC_TREES = ("src/repro/gateway/", "src/repro/cli.py")

#: Canonical roots for the fault-point registry: declarations live in
#: src/, references (fault plan rules) live in tests/ and scripts/.
FAULT_DECL_ROOTS = ("src",)
FAULT_REF_ROOTS = ("tests", "scripts")

#: Point names under this namespace are reserved for unit tests of the
#: fault-plan machinery itself (rule validation, glob matching, the
#: decide() schedule) and are not required to resolve to a src/
#: declaration.
SYNTHETIC_POINT_PREFIX = "test."

#: The default committed baseline location (repo-relative).
DEFAULT_BASELINE = "tools/reprolint/baseline.json"


def in_trees(rel: str, trees: tuple[str, ...]) -> bool:
    """Whether repo-relative *rel* lives under any of *trees* (a
    trailing-slash entry scopes a directory, others match exactly)."""
    for tree in trees:
        if tree.endswith("/"):
            if rel.startswith(tree):
                return True
        elif rel == tree:
            return True
    return False
