"""Gate: the ``src/`` line count in CHANGES.md is the tree's.

Each CHANGES.md entry records its change's line delta over the tracked
library sources as "`src/**/*.py` A → B" (ROADMAP aim 2: the number
goes down). This fails unless the ``B`` of the newest entry equals the
line total of ``git ls-files 'src/**/*.py'`` in the working tree — the
number ``git ls-files 'src/**/*.py' | xargs wc -l`` prints — so the
ledger cannot drift from the code it describes.

Usage::

    python scripts/check_src_lines.py

Exit status 0 when the two agree, 1 otherwise (both numbers are
printed).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEDGER = re.compile(r"`src/\*\*/\*\.py` ([\d,]+) → ([\d,]+)")


def _git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def tree_lines() -> int:
    """Newlines over the tracked ``src/**/*.py`` files, as ``wc -l``
    counts them."""
    paths = _git("ls-files", "-z", "src/**/*.py").split("\0")
    return sum((REPO / path).read_bytes().count(b"\n") for path in paths if path)


def newest_entry() -> str:
    """The last non-empty line of CHANGES.md — the current change's
    entry (the file is append-only, one line per PR)."""
    lines = (REPO / "CHANGES.md").read_text().splitlines()
    return next((line for line in reversed(lines) if line.strip()), "")


def recorded() -> int | None:
    """The ``B`` of the newest entry's "`src/**/*.py` A → B", or
    ``None`` when the entry has no such pair."""
    match = LEDGER.search(newest_entry())
    return None if match is None else int(match.group(2).replace(",", ""))


def main() -> int:
    lines = tree_lines()
    claimed = recorded()
    if claimed == lines:
        print(f"src/**/*.py: {lines:,} lines, as the newest CHANGES.md entry records")
        return 0
    if claimed is None:
        print(
            "the newest CHANGES.md entry records no '`src/**/*.py` A → B' pair",
            file=sys.stderr,
        )
    else:
        print(
            f"the newest CHANGES.md entry records {claimed:,} src/**/*.py lines; "
            f"the tree has {lines:,}",
            file=sys.stderr,
        )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
