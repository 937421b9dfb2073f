"""File discovery and the ``repro lint`` / ``python -m repro.analysis`` CLI.

The runner turns paths into :class:`~repro.analysis.core.ParsedModule`
objects, runs the registered rules over them as one project, and renders
the findings through :mod:`repro.analysis.report`.

Exit codes are part of the contract (CI and pre-commit hooks consume
them): **0** clean, **1** at least one non-baselined finding, **2**
analyzer-internal error (unknown rule, unreadable path, a file that is
not valid UTF-8, malformed baseline).  A file that fails to *parse* is
reported as a ``parse-error`` finding (exit 1) — a broken target is a
property of the tree, not of the analyzer.

``--update-baseline`` rewrites the baseline file to exactly the current
findings' fingerprints (sorted, stable), warning on stderr about pruned
entries — fingerprints that no longer match any finding, including those
newly silenced by ``# repro: ignore[...]`` comments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import (
    Baseline,
    Finding,
    ParsedModule,
    lint_modules,
    resolve_rules,
    RULES,
)
from repro.analysis.report import render_github, render_json, render_text

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def default_paths() -> List[str]:
    """The default lint target: the installed ``repro`` package tree."""
    import repro

    return [str(Path(repro.__file__).parent)]


def iter_python_files(
    paths: Iterable[str],
    exclude: Iterable[str] = (),
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``exclude`` adds directory names to the skip set (``--exclude
    fixtures`` keeps the deliberately-broken lint fixtures out of a
    tree-wide run); explicitly listed files are never excluded.
    """
    skipped = _SKIPPED_DIRS | set(exclude)
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {entry}")
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part in skipped or part.startswith(".")
                    for part in candidate.parts
                )
            )
        else:
            files.append(path)
    return files


def load_modules(
    files: Sequence[Path],
) -> Tuple[List[ParsedModule], List[Finding]]:
    """Parse files into modules; syntax errors become ``parse-error`` findings."""
    modules: List[ParsedModule] = []
    errors: List[Finding] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as error:
            # Analyzer-internal diagnostic (exit 2), not a finding: an
            # undecodable file means the *target set* is wrong, the same
            # class of problem as a nonexistent path.
            raise ValueError(
                f"{path} is not valid UTF-8 "
                f"(byte {error.object[error.start]:#04x} at offset "
                f"{error.start}): lint targets must be UTF-8 text"
            ) from error
        try:
            modules.append(ParsedModule(path, source))
        except SyntaxError as error:
            errors.append(
                Finding(
                    rule="parse-error",
                    path=str(path),
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                )
            )
    return modules, errors


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    exclude: Iterable[str] = (),
) -> Tuple[List[Finding], int]:
    """Lint files/directories and return ``(findings, files scanned)``.

    ``rules`` optionally restricts the run to the named rule ids;
    ``baseline`` optionally points at a JSON baseline file whose
    fingerprints are reported as grandfathered rather than new;
    ``exclude`` adds directory names skipped during discovery.
    """
    files = iter_python_files(paths if paths else default_paths(), exclude)
    modules, errors = load_modules(files)
    fingerprints = Baseline.load(baseline).fingerprints if baseline else None
    findings = lint_modules(
        modules, rules=resolve_rules(rules), baseline=fingerprints
    )
    findings.extend(errors)
    return findings, len(files)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser shared by ``repro lint`` and ``-m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter: determinism, async-safety, "
            "repr-hygiene."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help=(
            "report format (json follows the documented v1 schema; github "
            "emits ::error workflow annotations)"
        ),
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="JSON baseline of grandfathered finding fingerprints",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "rewrite the baseline (default lint-baseline.json) to the "
            "current findings, pruning stale fingerprints, and exit 0"
        ),
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="NAME",
        help=(
            "directory name to skip during discovery (repeatable); "
            "e.g. --exclude fixtures"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


#: Baseline path rewritten when ``--update-baseline`` is given bare.
DEFAULT_BASELINE = "lint-baseline.json"

_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}


def _update_baseline(
    findings: Sequence[Finding], baseline_path: str, old: set
) -> set:
    """Rewrite the baseline to the current findings; return pruned entries.

    Parse errors are deliberately never baselined — a file that stops
    parsing must keep failing the build.
    """
    current = {
        finding.fingerprint
        for finding in findings
        if finding.rule != "parse-error"
    }
    pruned = old - current
    Baseline(fingerprints=current).save(baseline_path)
    return pruned


def run(
    paths: Optional[Sequence[str]] = None,
    output_format: str = "text",
    rules: Optional[str] = None,
    baseline: Optional[str] = None,
    list_rules: bool = False,
    update_baseline: bool = False,
    exclude: Optional[Sequence[str]] = None,
    stream=None,
) -> int:
    """Execute a lint run and print the report; returns the exit code.

    This is the single implementation behind both CLI entry points, so
    ``repro lint`` and ``python -m repro.analysis`` cannot drift.
    """
    stream = stream if stream is not None else sys.stdout
    if list_rules:
        for rule_id, rule in sorted(RULES.items()):
            print(f"{rule_id}: {rule.summary}", file=stream)
        return 0
    try:
        rule_names = (
            [name.strip() for name in rules.split(",") if name.strip()]
            if rules
            else None
        )
        baseline_path = baseline
        if update_baseline and baseline_path is None:
            baseline_path = DEFAULT_BASELINE
        load_path = (
            baseline_path
            if baseline_path and Path(baseline_path).exists()
            else None
        )
        findings, num_files = lint_paths(
            paths, rules=rule_names, baseline=load_path,
            exclude=tuple(exclude or ()),
        )
        if update_baseline:
            old = (
                Baseline.load(load_path).fingerprints if load_path else set()
            )
            pruned = _update_baseline(findings, baseline_path, old)
            for fingerprint in sorted(pruned):
                print(
                    f"repro lint: pruned stale baseline entry {fingerprint}",
                    file=sys.stderr,
                )
            kept = len(
                {f.fingerprint for f in findings if f.rule != "parse-error"}
            )
            print(
                f"repro lint: baseline {baseline_path} updated — "
                f"{kept} fingerprint(s), {len(pruned)} pruned",
                file=stream,
            )
            return 0
    except (FileNotFoundError, KeyError, ValueError, OSError) as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    renderer = _RENDERERS.get(output_format, render_text)
    print(renderer(findings, num_files), file=stream)
    return 1 if any(not finding.baselined for finding in findings) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    try:
        arguments = build_parser().parse_args(argv)
    except SystemExit as exit_error:
        # argparse exits 2 on bad usage, 0 on --help; preserve both.
        return int(exit_error.code or 0)
    return run(
        paths=arguments.paths,
        output_format=arguments.format,
        rules=arguments.rules,
        baseline=arguments.baseline,
        list_rules=arguments.list_rules,
        update_baseline=arguments.update_baseline,
        exclude=arguments.exclude,
    )
