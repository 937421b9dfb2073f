"""Examples smoke path: fast examples must run green end to end.

Each listed example executes as a subprocess exactly the way a user would
run it (``python examples/<name>``), so API drift that breaks a walkthrough
fails CI instead of rotting silently.  Only examples fast enough for the
tier-1 suite are listed; the long-running ones remain manual.  Every
example runs at most once per test session — all assertions share the
cached output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Examples fast enough to smoke-test on every run.
SMOKE_EXAMPLES = (
    "lod_streaming.py",
    "async_gateway.py",
    "out_of_core_serving.py",
)

_RUNS: dict = {}


def _run_example(example: str) -> subprocess.CompletedProcess:
    """Run one example subprocess, memoized for the whole session."""
    if example not in _RUNS:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        _RUNS[example] = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / example)],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=str(REPO_ROOT),
        )
    return _RUNS[example]


@pytest.mark.parametrize("example", SMOKE_EXAMPLES)
def test_example_runs_green(example):
    """The example exits 0 and prints its walkthrough output."""
    completed = _run_example(example)
    assert completed.returncode == 0, (
        f"{example} failed:\n{completed.stdout}\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{example} printed nothing"


def test_async_gateway_walkthrough_markers():
    """The gateway example exercises coalescing, overload, and lanes."""
    completed = _run_example("async_gateway.py")
    assert completed.returncode == 0, completed.stderr
    for marker in (
        "coalesce rate",
        "bit-identical to the synchronous serve",
        "overload (shed-oldest, depth 2):",
        "overload (reject, depth 2):",
        "counters reconcile",
        "priority lanes",
        "hardware model:",
    ):
        assert marker in completed.stdout, (
            f"missing {marker!r} in:\n{completed.stdout}"
        )


def test_out_of_core_serving_walkthrough_markers():
    """The storage example exercises both tiers and a clean lifecycle."""
    completed = _run_example("out_of_core_serving.py")
    assert completed.returncode == 0, completed.stderr
    for marker in (
        "shared tier: segment repro-shm-",
        "bit-identical frames: True",
        "bytes privately owned (zero-copy)",
        "paged tier: archive",
        "<= budget: True",
        "bit-identical frames from disk: True",
        "leaked shared-memory segments: none",
    ):
        assert marker in completed.stdout, (
            f"missing {marker!r} in:\n{completed.stdout}"
        )


def test_lod_streaming_reports_levels():
    """The LOD example exercises all three detail levels."""
    completed = _run_example("lod_streaming.py")
    assert completed.returncode == 0, completed.stderr
    for marker in (
        "bit-identical render confirmed",
        "-> level 0",
        "-> level 1",
        "-> level 2",
        "hardware replay per level:",
    ):
        assert marker in completed.stdout, (
            f"missing {marker!r} in:\n{completed.stdout}"
        )
