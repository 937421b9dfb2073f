"""Core of the invariant linter: findings, parsed modules and rules.

The analysis framework is deliberately small and dependency-free (stdlib
``ast`` only).  A :class:`Rule` inspects one :class:`ParsedModule` at a
time and yields :class:`Finding` objects; :func:`lint_modules` runs every
selected rule over every module and sorts what they found.  There is no
suppression comment and no baseline: the tree is kept at zero findings,
so a finding is fixed, not silenced.

Usage::

    from repro.analysis import lint_source

    findings = lint_source("import time\nasync def f():\n    time.sleep(1)\n")
    findings[0].rule          # "async-blocking"
    findings[0].line          # 3
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes
    ----------
    rule:
        Identifier of the rule that fired (e.g. ``"async-blocking"``).
    path:
        Path of the offending file, as given to the linter.
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the violation and the expected fix.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The finding as one ``path:line:col: rule: message`` text line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class ParsedModule:
    """One Python source file, parsed once and shared by every rule."""

    def __init__(self, path, source: str):
        self.path = str(path)
        self.tree = ast.parse(source)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class of every analyzer rule.

    Subclasses set ``id`` (the identifier used in reports and ``--rules``)
    and ``summary`` (one line for ``--list-rules``), and implement
    :meth:`check`.
    """

    id: str = ""
    summary: str = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
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
) -> List[Finding]:
    """Run ``rules`` (default: all) over ``modules`` and return the findings.

    The result is sorted by (path, line, column, rule).
    """
    if rules is None:
        rules = resolve_rules()
    findings = [
        found
        for module in modules
        for rule in rules
        for found in rule.check(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
