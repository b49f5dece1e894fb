"""scripts/check_src_lines.py against a throwaway git repository."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_src_lines.py"


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)

    def git(*args):
        subprocess.run(
            ("git", "-c", "user.name=t", "-c", "user.email=t@t", *args),
            cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\nb = 2\n")
    (package / "sub" / "mod.py").write_text("x = 1\n" * 1200)
    (package / "notes.txt").write_text("not python\n" * 50)
    (tmp_path / "CHANGES.md").write_text("- PR 1: seed, **`src/**/*.py` 0 → 1,202**\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    return module, tmp_path, git


def test_passes_when_the_newest_entry_matches_the_tree(gate, capsys):
    module, _, _ = gate
    assert module.tree_lines() == 1202
    assert module.recorded() == 1202
    assert module.main() == 0
    assert "1,202 lines" in capsys.readouterr().out


def test_fails_when_the_tree_moves_until_the_entry_says_so(gate, capsys):
    module, root, git = gate
    (root / "src" / "pkg" / "sub" / "mod.py").write_text("x = 1\n" * 1190)
    assert module.main() == 1
    assert "records 1,202" in capsys.readouterr().err

    # Only the newest entry counts, and untracked files do not.
    (root / "src" / "pkg" / "scratch.py").write_text("y = 2\n" * 99)
    with (root / "CHANGES.md").open("a") as changes:
        changes.write("- PR 2: shrink, **`src/**/*.py` 1,202 → 1,192 (−10)**\n")
    assert module.main() == 0
    git("add", "-A")
    assert module.main() == 1


def test_fails_when_the_newest_entry_records_no_pair(gate, capsys):
    module, root, _ = gate
    with (root / "CHANGES.md").open("a") as changes:
        changes.write("- PR 2: docs only\n\n")
    assert module.recorded() is None
    assert module.main() == 1
    assert "no '`src/**/*.py` A → B' pair" in capsys.readouterr().err
