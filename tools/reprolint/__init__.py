"""reprolint — repo-aware static analysis for the X-Map reproduction.

The general-purpose linters (ruff, mypy) cannot see the invariants this
codebase actually depends on: deterministic artifacts order by value
(or ``hashlib.blake2b``), never by salted ``hash()``; every write-then-rename
must fsync the tmp file before the rename and the directory after;
asyncio code must not
block the loop or swallow ``CancelledError``; and every named fault or
crash point wired into a test must still exist in ``src/``. Each of
those rules encodes an incident the repo already had once — see the
rule docstrings and the README "Static analysis" section.

Usage (from the repo root)::

    python -m reprolint check src scripts      # lint, honoring baseline
    python -m reprolint list-points            # the fault-point registry
    python -m reprolint baseline src scripts   # regenerate the baseline

The implementation lives under ``tools/reprolint``; the repo-root
``reprolint.py`` shim makes the bare ``python -m reprolint`` invocation
work from a checkout (equivalently: ``PYTHONPATH=tools``).
"""

from reprolint.core import Checker, Finding, Rule, Severity, SourceFile

__version__ = "1.0.0"

__all__ = [
    "Checker",
    "Finding",
    "Rule",
    "Severity",
    "SourceFile",
    "__version__",
]
