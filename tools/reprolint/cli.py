"""The reprolint command line.

``check`` exits 0 when clean (inline suppressions and the committed
baseline both count as clean), 1 when any error-severity finding
remains, 2 on usage or parse problems. ``list-points`` prints the
fault point registry extracted from ``src/``. ``baseline``
regenerates the committed baseline from the current findings.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Sequence, TextIO

from reprolint import baseline as baseline_mod
from reprolint.config import DEFAULT_BASELINE
from reprolint.core import Checker, Severity
from reprolint.reporters import report_json, report_text
from reprolint.rules import ALL_RULES
from reprolint.rules.faultpoints import load_registry

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=("repo-aware static analysis for the X-Map reproduction"),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (default: the current directory)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="lint paths and report findings")
    check.add_argument("paths", nargs="+", help="files or directories to lint")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="report baselined findings too",
    )

    points = commands.add_parser(
        "list-points",
        help="print the named fault point registry from src/",
    )
    points.add_argument("--format", choices=("text", "json"), default="text")

    rebase = commands.add_parser(
        "baseline",
        help="regenerate the committed baseline from current findings",
    )
    rebase.add_argument("paths", nargs="+")
    rebase.add_argument("--baseline", default=None)
    return parser


def _resolve_paths(raw: Sequence[str], stderr: TextIO) -> list[Path] | None:
    paths = []
    for entry in raw:
        path = Path(entry)
        if not path.exists():
            stderr.write(f"reprolint: no such path: {entry}\n")
            return None
        paths.append(path)
    return paths


def _cmd_check(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    root = Path(args.root)
    paths = _resolve_paths(args.paths, stderr)
    if paths is None:
        return EXIT_ERROR
    checker = Checker(ALL_RULES, root)
    result = checker.run(paths)
    baseline_path = Path(
        args.baseline
        if args.baseline is not None
        else root / DEFAULT_BASELINE
    )
    if args.no_baseline:
        fresh, baselined = list(result.findings), []
    else:
        try:
            entries = baseline_mod.load(baseline_path)
        except (ValueError, OSError) as exc:
            stderr.write(f"reprolint: bad baseline: {exc}\n")
            return EXIT_ERROR
        fresh, baselined = baseline_mod.split(result.findings, entries)
    reporter = report_json if args.format == "json" else report_text
    reporter(
        stdout,
        fresh,
        n_files=result.n_files,
        n_suppressed=len(result.suppressed),
        n_baselined=len(baselined),
        parse_errors=result.parse_errors,
    )
    if result.parse_errors:
        return EXIT_ERROR
    if any(f.severity is Severity.ERROR for f in fresh):
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_list_points(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    root = Path(args.root)
    declarations, references = load_registry(root)
    by_point: dict[str, list] = {}
    for decl in declarations:
        by_point.setdefault(decl.point, []).append(decl)
    ref_patterns = sorted({ref.pattern for ref in references})
    if args.format == "json":
        import json

        payload = {
            "format": "reprolint-points",
            "points": [
                {
                    "point": point,
                    "sites": [
                        {"path": d.path, "line": d.line}
                        for d in sorted(decls, key=lambda d: (d.path, d.line))
                    ],
                    "referenced_by": [
                        pattern
                        for pattern in ref_patterns
                        if pattern == "*"
                        or fnmatchcase(point, pattern)
                    ],
                }
                for point, decls in sorted(by_point.items())
            ],
        }
        stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_CLEAN
    width = max((len(point) for point in by_point), default=0)
    for point, decls in sorted(by_point.items()):
        sites = ", ".join(
            f"{d.path}:{d.line}"
            for d in sorted(decls, key=lambda d: (d.path, d.line))
        )
        stdout.write(f"{point.ljust(width)}  {sites}\n")
    stdout.write(
        f"{len(by_point)} named points at "
        f"{len(declarations)} sites; referenced by "
        f"{len(ref_patterns)} distinct test/script patterns\n"
    )
    return EXIT_CLEAN


def _cmd_baseline(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    root = Path(args.root)
    paths = _resolve_paths(args.paths, stderr)
    if paths is None:
        return EXIT_ERROR
    checker = Checker(ALL_RULES, root)
    result = checker.run(paths)
    if result.parse_errors:
        for error in result.parse_errors:
            stderr.write(f"PARSE ERROR: {error}\n")
        return EXIT_ERROR
    baseline_path = Path(
        args.baseline
        if args.baseline is not None
        else root / DEFAULT_BASELINE
    )
    count = baseline_mod.save(baseline_path, result.findings)
    stdout.write(
        f"wrote {count} baseline entr"
        f"{'y' if count == 1 else 'ies'} to {baseline_path}\n"
    )
    return EXIT_CLEAN


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stdout, stderr = sys.stdout, sys.stderr
    if args.command == "check":
        return _cmd_check(args, stdout, stderr)
    if args.command == "list-points":
        return _cmd_list_points(args, stdout, stderr)
    if args.command == "baseline":
        return _cmd_baseline(args, stdout, stderr)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_ERROR  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
