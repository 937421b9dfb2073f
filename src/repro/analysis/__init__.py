"""AST-based invariant linter for the repro codebase.

The asyncio gateway rests on contracts that a test can miss because they
only bite under concurrency.  This package machine-checks them at CI
time with a small static-analysis framework (stdlib ``ast`` only) and
two rules:

* ``async-blocking`` — ``async def`` bodies must not block the event
  loop;
* ``async-state`` — instance state must not be read before an ``await``
  and written back after it without an ``asyncio.Lock``.

Contracts that an owning object or the test session can enforce need no
rule.  Scene stores hand out non-writeable arrays, so a write through a
view raises at run time.  Frame-cache and coalescing keys are built by
``RenderRequest.key`` from the request's own dataclass fields, so a new
request field lands in every key by construction.  The root
``conftest.py`` fails any test that leaves a child process, a
``/dev/shm`` segment or an unclosed file (``ResourceWarning``) behind,
that draws from or seeds the global ``np.random`` or ``random`` state,
or that seeds a generator from OS entropy (seeded replay, contract 5).
``tests/test_repr_hygiene.py`` walks every dataclass in ``repro`` and
fails on an ndarray field left in a generated ``__repr__``.

Entry points: ``repro lint`` (CLI subcommand), ``python -m
repro.analysis``, or the library API below.  The tree is kept at zero
findings; there is no suppression comment and no baseline.

Usage::

    from repro.analysis import lint_source

    findings = lint_source(
        "import time\nasync def f():\n    time.sleep(1)\n"
    )
    findings[0].rule        # "async-blocking"
    findings[0].line        # 3
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.core import (
    Finding,
    ParsedModule,
    Rule,
    RULES,
    lint_modules,
    register,
    resolve_rules,
)

# Importing the rule module populates the RULES registry.
from repro.analysis import asyncsafety     # noqa: F401

from repro.analysis.report import (
    JSON_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import lint_paths, main, run

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ParsedModule",
    "RULES",
    "Rule",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "main",
    "register",
    "render_github",
    "render_json",
    "render_text",
    "resolve_rules",
    "run",
]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string and return its findings.

    The convenience entry point for tests, docs and tooling.
    """
    module = ParsedModule(path, source)
    return lint_modules([module], rules=resolve_rules(rules))
