"""The shipped rule set. ``ALL_RULES`` is the registry the CLI runs;
order is cosmetic (findings are location-sorted by the checker)."""

from __future__ import annotations

from reprolint.core import Rule
from reprolint.rules.asyncio_hygiene import (
    BlockingCallInAsyncRule,
    CancelledErrorSwallowedRule,
    UnreferencedTaskRule,
)
from reprolint.rules.determinism import (
    SaltedHashRule,
    UnseededRandomRule,
    WallClockRule,
)
from reprolint.rules.durability import UnsyncedRenameRule
from reprolint.rules.exceptions import BareExceptRule, SilentExceptionRule
from reprolint.rules.faultpoints import FaultPointDriftRule
from reprolint.rules.observability import PrintInLibraryRule

ALL_RULES: tuple[Rule, ...] = (
    SaltedHashRule(),
    UnseededRandomRule(),
    WallClockRule(),
    UnsyncedRenameRule(),
    BlockingCallInAsyncRule(),
    CancelledErrorSwallowedRule(),
    UnreferencedTaskRule(),
    BareExceptRule(),
    SilentExceptionRule(),
    FaultPointDriftRule(),
    PrintInLibraryRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id or rule.name == rule_id:
            return rule
    raise KeyError(rule_id)


__all__ = ["ALL_RULES", "rule_by_id"]
