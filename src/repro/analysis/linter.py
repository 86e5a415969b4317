"""The ``repro lint`` driver: file discovery, parsing, rule dispatch.

Exit codes follow the compiler convention the CLI already uses:
``0`` clean, ``1`` findings, ``2`` usage/IO errors (bad ``--select``
code, unreadable path).  A file that fails to *parse* is reported as a
finding with the reserved code ``R100`` rather than crashing the run —
a broken file in a lint sweep is a result, not an infrastructure error.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.findings import Finding, format_report
from repro.analysis.rules import LintContext, Rule, default_rules, rules_by_code, run_rules
from repro.analysis.suppressions import is_suppressed, line_suppressions
from repro.errors import ConfigurationError

#: Reserved code for files the linter cannot parse.
PARSE_ERROR_CODE = "R100"

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Iterable) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files kept as-is, directories
    walked recursively, cache/VCS directories skipped), de-duplicated
    and sorted for a stable report order."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
        if path.is_file():
            found.add(path)
            continue
        for candidate in path.rglob("*.py"):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                found.add(candidate)
    return sorted(found)


def lint_file(
    path, config: AnalysisConfig = DEFAULT_CONFIG, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """All unsuppressed findings for one file, sorted by location."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    context = LintContext(path, tree, config)
    findings = run_rules(default_rules() if rules is None else rules, context)
    suppressions = line_suppressions(source)
    return sorted(f for f in findings if not is_suppressed(f, suppressions))


def lint_paths(
    paths: Iterable,
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """All unsuppressed findings under ``paths``, sorted by location."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, config, rules))
    return sorted(findings)


def _select_rules(select: str | None) -> list[Rule] | None:
    if select is None:
        return None
    registry = rules_by_code()
    chosen: list[Rule] = []
    for token in select.split(","):
        code = token.strip().upper()
        if not code:
            continue
        if code not in registry:
            raise ConfigurationError(
                f"unknown rule code {code!r}; known: {', '.join(sorted(registry))}"
            )
        chosen.append(registry[code]())
    if not chosen:
        raise ConfigurationError("--select named no rules")
    return chosen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Determinism-contract linter: checks the REPRO1xx invariants "
            "(RNG discipline, seed sources, hot-path iteration order, "
            "resource hygiene, pool-buffer encapsulation)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all), e.g. R101,R105",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def run(argv: Sequence[str] | None = None, *, out=None) -> int:
    """Parse arguments, lint, print the report; returns the exit code.

    This is both the ``python -m repro.analysis`` entry point and the
    body of the ``repro lint`` subcommand (which passes the subcommand's
    remainder args through).
    """
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for cls in rules_by_code().values():
            print(f"{cls.code}  {cls.description}", file=out)
        return 0
    rules = _select_rules(args.select)
    findings = lint_paths(args.paths, rules=rules)
    print(format_report(findings), file=out)
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point with the CLI's error convention."""
    try:
        return run(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
