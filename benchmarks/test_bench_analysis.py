"""Perf smoke benchmark for the invariant linter (``repro lint``).

The linter runs on every CI build over the whole tree, so its wall time is
part of the build budget.  Two scopes are timed: the ``src/repro`` package
alone (parse and both async rules), and the full CI scope — src +
examples + tests + benchmarks with the deliberately-violating lint
fixtures excluded.  Both assert the perf bar
*and* the CI gate property itself (zero findings on the live tree): a
benchmark that is fast but finds violations means a regression landed
without the lint gate catching it locally.

Acceptance bar: either run stays under ``MAX_SECONDS`` (measured ~0.7 s
for ~94 files and ~1.5 s for ~176 on a 2-core x86-64 host; the bound is
deliberately loose for slow CI runners, and
``REPRO_RELAX_PERF_ASSERTS=1`` relaxes it entirely).
"""

import os
from pathlib import Path

from repro.analysis import lint_paths

#: Upper bound on one full-tree lint, seconds (loose vs. the measured mean).
MAX_SECONDS = 5.0

_REPO_ROOT = Path(__file__).parent.parent

#: The package tree alone (the historical bar).
LINT_ROOT = str(_REPO_ROOT / "src" / "repro")

#: The full CI lint scope: package + examples + tests + benchmarks.
CI_SCOPE = [
    str(_REPO_ROOT / "src" / "repro"),
    str(_REPO_ROOT / "examples"),
    str(_REPO_ROOT / "tests"),
    str(_REPO_ROOT / "benchmarks"),
]


def _assert_bar(benchmark, record_info, num_files, findings):
    """Record throughput numbers and assert the wall-clock bar.

    Skipped under ``--benchmark-disable``, which leaves no timing stats.
    """
    if benchmark.stats is None:
        return
    mean_seconds = benchmark.stats.stats.mean
    record_info(
        benchmark,
        files_linted=num_files,
        findings=len(findings),
        mean_ms=mean_seconds * 1e3,
        files_per_second=num_files / mean_seconds,
    )
    if not os.environ.get("REPRO_RELAX_PERF_ASSERTS"):
        assert mean_seconds < MAX_SECONDS


def test_bench_full_tree_lint(benchmark, record_info):
    """Lint all of src/repro: the per-build cost of the invariant gate."""
    findings, num_files = benchmark(lint_paths, [LINT_ROOT])

    assert findings == [], "live tree must lint clean"
    assert num_files >= 90
    _assert_bar(benchmark, record_info, num_files, findings)


def test_bench_ci_scope_lint(benchmark, record_info):
    """Lint the widened CI scope (tests + benchmarks, fixtures excluded).

    This is the exact per-build cost of the lint step over its widened
    scope; it must stay under the same bar as the package-only run.
    """
    findings, num_files = benchmark(
        lint_paths, CI_SCOPE, exclude=("fixtures",)
    )

    assert findings == [], "full CI scope must lint clean"
    assert num_files >= 150
    _assert_bar(benchmark, record_info, num_files, findings)
