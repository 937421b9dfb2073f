"""AST-based invariant linter for the repro codebase.

The serving stack rests on contracts that used to be enforced only by
convention — and PRs 4/5 each paid for a violation after the fact (cache
keys retrofitted with ``level``; a ~6-second dataclass repr of gathered
frames).  This package machine-checks those contracts at CI time with a
small static-analysis framework (stdlib ``ast`` only) and four rules
targeting the codebase's proven bug classes:

* ``determinism`` — all randomness must flow through explicitly seeded
  ``np.random.Generator`` objects (seeded replay and golden tests depend
  on it);
* ``async-blocking`` / ``async-state`` — ``async def`` bodies must not
  block the event loop, and instance state must not be read before an
  ``await`` and written back after it without an ``asyncio.Lock``;
* ``repr-hygiene`` — dataclass ndarray fields must be ``repr=False`` (or
  the class must define ``__repr__``).

Contracts that an owning object can enforce need no rule.  Scene stores
hand out non-writeable arrays, so a write through a view raises at run
time.  Frame-cache and coalescing keys are built by
``RenderRequest.key`` from the request's own dataclass fields, so a new
request field lands in every key by construction.  Shared-memory
segments, storage leases and worker processes are released by their
owners' finalizers and ``close()`` methods, and the test session fails
any test that leaves a child process, a ``/dev/shm`` segment or an
unclosed file (``ResourceWarning``) behind.

Entry points: ``repro lint`` (CLI subcommand), ``python -m
repro.analysis``, or the library API below.  Suppressions:
``# repro: ignore[rule-id]`` per line, ``# repro: ignore-file[rule-id]``
per file, and an optional JSON baseline for grandfathered findings (this
repo keeps its baseline empty).

Usage::

    from repro.analysis import lint_source

    findings = lint_source(
        "import numpy as np\\nrng = np.random.default_rng()\\n"
    )
    findings[0].rule        # "determinism"
    findings[0].line        # 2
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.core import (
    Baseline,
    Finding,
    ParsedModule,
    Project,
    Rule,
    RULES,
    lint_modules,
    register,
    resolve_rules,
)

# Importing the rule modules populates the RULES registry.
from repro.analysis import asyncsafety     # noqa: F401
from repro.analysis import determinism     # noqa: F401
from repro.analysis import reprhygiene     # noqa: F401

from repro.analysis.report import (
    JSON_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import lint_paths, main, run

__all__ = [
    "Baseline",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ParsedModule",
    "Project",
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

    The convenience entry point for tests, docs and tooling: the snippet
    is parsed as a single-file project.
    """
    module = ParsedModule(path, source)
    return lint_modules([module], rules=resolve_rules(rules))
