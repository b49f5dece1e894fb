"""Fault-point drift: the named fault point registry stays closed
under refactoring.

* **REP601 unknown-fault-point** — a point name referenced by a
  ``FaultRule(...)`` in ``tests/`` or ``scripts/`` must resolve
  (glob-aware) to a ``fault_point``/``frame_fault`` call in ``src/`` —
  otherwise the test silently stopped injecting anything the day the
  point was renamed, and "passes" by testing nothing.
* **REP602 unexercised-fault-point** — the other direction: a point
  declared in ``src/`` that no test or script can ever hit (not even
  through a glob or an any-point ``"*"`` sweep) is dead chaos surface;
  wire it into a plan or delete it.

Declarations are extracted statically: literal arguments to
``fault_point(...)`` / ``frame_fault(...)`` plus module-level
constants passed to them
(``LOAD_FAULT_POINT = "gateway.worker.load"``). The same extraction
powers ``python -m reprolint list-points``. Point names under the
reserved ``test.`` namespace are synthetic fixtures for the plan
machinery's own unit tests and are exempt from REP601.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from reprolint.config import (
    FAULT_DECL_ROOTS,
    FAULT_REF_ROOTS,
    SYNTHETIC_POINT_PREFIX,
)
from reprolint.core import Finding, Rule, SourceFile, iter_python_files

_DECL_FNS = {"fault_point", "frame_fault"}
_REF_CTOR = "FaultRule"


@dataclass(frozen=True)
class PointDecl:
    """One ``fault_point``/``frame_fault`` call site in src/."""

    point: str
    path: str
    line: int


@dataclass(frozen=True)
class PointRef:
    """One point name (possibly a glob) referenced by tests/scripts.
    ``pattern`` of ``*`` is the any-point wildcard an enumerating
    sweep uses."""

    pattern: str
    path: str
    line: int


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _module_str_constants(tree: ast.Module) -> dict[str, str]:
    constants: dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


def collect_declarations(
    sources: Iterable[SourceFile],
) -> list[PointDecl]:
    declarations: list[PointDecl] = []
    for source in sources:
        constants = _module_str_constants(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in _DECL_FNS or not node.args:
                continue
            arg = node.args[0]
            point: str | None = None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                point = arg.value
            elif isinstance(arg, ast.Name):
                point = constants.get(arg.id)
            if point is not None:
                declarations.append(PointDecl(point, source.rel, node.lineno))
    return declarations


def collect_references(sources: Iterable[SourceFile]) -> list[PointRef]:
    references: list[PointRef] = []
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or _call_name(node) != _REF_CTOR:
                continue
            arg: ast.expr | None = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "point":
                    arg = keyword.value
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                references.append(PointRef(arg.value, source.rel, node.lineno))
    return references


def load_registry(
    root: Path,
) -> tuple[list[PointDecl], list[PointRef]]:
    """Parse the canonical roots and return (declarations,
    references); parse failures are skipped (the per-file rules
    already report them for analyzed paths)."""

    resolved = root.resolve()

    def parse_root(names: Sequence[str]) -> list[SourceFile]:
        sources = []
        for name in names:
            base = resolved / name
            if not base.exists():
                continue
            for path in iter_python_files([base]):
                try:
                    rel = path.resolve().relative_to(resolved).as_posix()
                    sources.append(
                        SourceFile(path, rel, path.read_text(encoding="utf-8"))
                    )
                except (SyntaxError, UnicodeDecodeError, ValueError):
                    continue
        return sources

    declarations = collect_declarations(parse_root(FAULT_DECL_ROOTS))
    references = collect_references(parse_root(FAULT_REF_ROOTS))
    return declarations, references


class FaultPointDriftRule(Rule):
    id = "REP601"
    name = "fault-point-drift"
    description = "fault point names in tests/scripts and src/ have drifted apart"
    rationale = (
        "a renamed point turns its chaos/crash tests into no-ops that "
        "still pass; the registry must stay closed in both directions"
    )
    project_rule = True

    #: the companion id for the unexercised direction; same rule
    #: object, two finding streams.
    unexercised_id = "REP602"
    unexercised_name = "unexercised-fault-point"

    def check_project(
        self, sources: Sequence[SourceFile], root: Path
    ) -> Iterable[Finding]:
        declarations, references = load_registry(root)
        declared_names = {decl.point for decl in declarations}
        for ref in references:
            if ref.pattern == "*":
                continue
            if ref.pattern.startswith(SYNTHETIC_POINT_PREFIX):
                # Reserved namespace for unit tests of the fault-plan
                # machinery itself — no src/ declaration expected.
                continue
            if any(fnmatchcase(name, ref.pattern) for name in declared_names):
                continue
            yield Finding(
                rule=self.id,
                name=self.name,
                severity=self.severity,
                path=ref.path,
                line=ref.line,
                col=0,
                message=(
                    f"fault point {ref.pattern!r} does not match any "
                    "fault_point/frame_fault call in src/ — the "
                    "injection this test relies on no longer exists"
                ),
                obj="",
            )
        wildcard = any(ref.pattern == "*" for ref in references)
        patterns = {ref.pattern for ref in references}
        for decl in declarations:
            if wildcard or any(
                fnmatchcase(decl.point, pattern) for pattern in patterns
            ):
                continue
            yield Finding(
                rule=self.unexercised_id,
                name=self.unexercised_name,
                severity=self.severity,
                path=decl.path,
                line=decl.line,
                col=0,
                message=(
                    f"fault point {decl.point!r} is declared but no "
                    "test or script can reach it (no FaultRule "
                    "reference matches)"
                ),
                obj="",
            )
