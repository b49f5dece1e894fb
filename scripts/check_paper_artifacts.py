"""Gate: the paper's artefacts only move when CHANGES.md says so.

``benchmarks/results/{fig*,table*,ablations*}.txt`` are the regenerated
figures and tables of the paper — part of the repository's contract
(ROADMAP aim 3). Run this after the figure benches
(``pytest benchmarks/test_fig*_bench.py benchmarks/test_table*_bench.py
benchmarks/test_ablations_bench.py``), which rewrite those files in
place: it fails when one of them differs from ``HEAD`` unless the
newest CHANGES.md entry names it (``fig11`` or ``fig11.txt``), i.e.
the change that moved the artefact says that it did, and why.

Usage::

    python scripts/check_paper_artifacts.py

Exit status 0 when nothing moved or every move is acknowledged, 1
otherwise (the drifting files and their diffstat are printed).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = "benchmarks/results"
PATTERNS = ("fig*.txt", "table*.txt", "ablations*.txt")


def _git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def drifted() -> list[str]:
    """Artefacts whose working-tree content differs from ``HEAD``
    (modified, deleted, or new and untracked), repo-relative."""
    specs = [f"{RESULTS}/{pattern}" for pattern in PATTERNS]
    changed = _git("diff", "--name-only", "HEAD", "--", *specs).split()
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", *specs).split()
    return sorted({*changed, *untracked})


def newest_entry() -> str:
    """The last non-empty line of CHANGES.md — the current change's
    entry (the file is append-only, one line per PR)."""
    lines = (REPO / "CHANGES.md").read_text().splitlines()
    return next((line for line in reversed(lines) if line.strip()), "")


def main() -> int:
    moved = drifted()
    if not moved:
        print("paper artefacts: unchanged against HEAD")
        return 0
    entry = newest_entry()
    unexplained = [
        path
        for path in moved
        if not re.search(rf"\b{re.escape(Path(path).stem)}\b", entry)
    ]
    for path in moved:
        note = "UNEXPLAINED" if path in unexplained else "named in CHANGES.md"
        print(f"paper artefact moved: {path} ({note})")
    if not unexplained:
        return 0
    print(_git("diff", "--stat", "HEAD", "--", *unexplained), end="")
    print(
        "the newest CHANGES.md entry must name each moved artefact "
        "(e.g. 'fig11') and say why it moved",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
