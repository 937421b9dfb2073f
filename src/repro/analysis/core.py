"""Core of the invariant linter: findings, parsed modules, rules, baselines.

The analysis framework is deliberately small and dependency-free (stdlib
``ast`` only).  A :class:`Rule` inspects one :class:`ParsedModule` at a time
— with the whole :class:`Project` available for cross-file resolution (the
cache-key rule reads the ``RenderRequest`` field set from wherever it is
defined) — and yields :class:`Finding` objects.  The framework layers three
escape hatches on top, in decreasing order of preference:

* **per-line suppression** — ``# repro: ignore[rule-id]`` on the offending
  line (or a bare ``# repro: ignore`` for every rule), for individually
  justified exceptions that should stay visible in the code;
* **per-file suppression** — ``# repro: ignore-file[rule-id]`` anywhere in
  the file, for files that are out of a rule's jurisdiction wholesale;
* **baseline file** — a JSON list of finding fingerprints that are
  *grandfathered*: still reported, but not counted as new.  This repo keeps
  its baseline empty (violations get fixed, not archived); the mechanism
  exists so adopting a new rule on a large tree need not block on fixing
  every historic hit at once.

Usage::

    from repro.analysis import lint_source

    findings = lint_source("import random\\nrandom.random()\\n")
    findings[0].rule          # "determinism"
    findings[0].line          # 2
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Suppression-comment syntax: ``# repro: ignore[rule-a,rule-b]`` silences
#: the named rules on that line, ``# repro: ignore`` silences every rule,
#: and the ``ignore-file`` variants apply to the whole file.
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*(?P<scope>ignore-file|ignore)"
    r"(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes
    ----------
    rule:
        Identifier of the rule that fired (e.g. ``"determinism"``).
    path:
        Path of the offending file, as given to the linter.
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the violation and the expected fix.
    baselined:
        Whether the finding's fingerprint appears in the baseline file
        (grandfathered: reported but not counted as new).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    baselined: bool = False

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding for baseline files.

        Deliberately excludes the line number so that unrelated edits above
        a grandfathered finding do not un-baseline it; two identical
        violations in one file share a fingerprint, which errs on the side
        of strictness (fixing one un-baselines the other).
        """
        digest = hashlib.sha256(
            f"{self.rule}|{Path(self.path).name}|{self.message}".encode()
        )
        return digest.hexdigest()[:16]

    def format(self) -> str:
        """The finding as one ``path:line:col: rule: message`` text line."""
        mark = " (baselined)" if self.baselined else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{mark}"


class ParsedModule:
    """One Python source file, parsed once and shared by every rule.

    Carries the AST plus the suppression comments extracted from the raw
    source (the AST does not retain comments, so they are recovered with a
    line-level regex before parsing).
    """

    def __init__(self, path, source: str):
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            names = (
                {name.strip() for name in rules.split(",") if name.strip()}
                if rules
                else {"*"}
            )
            if match.group("scope") == "ignore-file":
                self.file_suppressions |= names
            else:
                self.line_suppressions.setdefault(lineno, set()).update(names)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed at ``line`` (or file-wide)."""
        if self.file_suppressions & {"*", rule}:
            return True
        return bool(self.line_suppressions.get(line, set()) & {"*", rule})

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Project:
    """The set of modules being linted together.

    Rules that need cross-file context (the cache-key rule resolves the
    ``RenderRequest`` dataclass from wherever it is defined) query the
    project instead of re-parsing files themselves.
    """

    def __init__(self, modules: Sequence[ParsedModule]):
        self.modules = list(modules)
        self._class_cache: Dict[str, Optional[ast.ClassDef]] = {}

    def find_class(self, name: str) -> Optional[ast.ClassDef]:
        """First class definition named ``name`` across the project.

        Cached: every rule invocation shares one lookup per name, keeping
        the full-tree lint linear in the number of modules.
        """
        if name not in self._class_cache:
            self._class_cache[name] = next(
                (
                    node
                    for module in self.modules
                    for node in ast.walk(module.tree)
                    if isinstance(node, ast.ClassDef) and node.name == name
                ),
                None,
            )
        return self._class_cache[name]

    def dataclass_fields(self, name: str) -> List[str]:
        """Field names of the dataclass ``name`` (empty if not found).

        Fields are the annotated assignments of the class body, in
        declaration order — exactly what ``dataclasses.fields`` would
        report, but resolved statically.
        """
        node = self.find_class(name)
        if node is None:
            return []
        return [
            statement.target.id
            for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        ]


class Rule:
    """Base class of every analyzer rule.

    Subclasses set ``id`` (the identifier used in reports and suppression
    comments) and ``summary`` (one line for ``--list-rules``), and implement
    :meth:`check`.
    """

    id: str = ""
    summary: str = ""

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        """Yield the rule's findings for one module."""
        raise NotImplementedError


#: Registry of available rules, ``rule id -> Rule`` instance, populated by
#: the :func:`register` decorator at import time.
RULES: "Dict[str, Rule]" = {}


def register(rule_class):
    """Class decorator adding a rule to the global :data:`RULES` registry."""
    rule = rule_class()
    if not rule.id:
        raise ValueError(f"{rule_class.__name__} must define a rule id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule_class


def resolve_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    """The rules to run: all registered ones, or the named subset."""
    if names is None:
        return list(RULES.values())
    rules = []
    for name in names:
        if name not in RULES:
            known = ", ".join(sorted(RULES))
            raise KeyError(f"unknown rule {name!r}; known rules: {known}")
        rules.append(RULES[name])
    return rules


def lint_modules(
    modules: Sequence[ParsedModule],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run ``rules`` over ``modules`` and return the surviving findings.

    Suppressed findings are dropped; findings whose fingerprint appears in
    ``baseline`` are kept but marked ``baselined``.  The result is sorted
    by (path, line, column, rule).
    """
    project = Project(modules)
    if rules is None:
        rules = resolve_rules()
    findings: List[Finding] = []
    for module in modules:
        for rule in rules:
            for found in rule.check(module, project):
                if module.suppressed(found.rule, found.line):
                    continue
                if baseline and found.fingerprint in baseline:
                    found = Finding(
                        rule=found.rule, path=found.path, line=found.line,
                        col=found.col, message=found.message, baselined=True,
                    )
                findings.append(found)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


@dataclass
class Baseline:
    """Grandfathered finding fingerprints loaded from a JSON file."""

    fingerprints: Set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path) -> "Baseline":
        """Read a baseline file (``{"version": 1, "fingerprints": [...]}``)."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) or "fingerprints" not in data:
            raise ValueError(
                f"baseline {path} must be a JSON object with a "
                f"'fingerprints' list"
            )
        return cls(fingerprints=set(data["fingerprints"]))

    def save(self, path) -> None:
        """Write the baseline back out in canonical (sorted) form."""
        Path(path).write_text(
            json.dumps(
                {"version": 1, "fingerprints": sorted(self.fingerprints)},
                indent=2,
            )
            + "\n"
        )
