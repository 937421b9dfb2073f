"""The test session's run-time leak guard fails a test that leaks.

Each case runs one inner test under copies of the repository's root
``conftest.py`` and ``pyproject.toml`` — the same autouse guard and the
same ``ResourceWarning`` filters every real test runs under — and then
cleans up whatever the inner test leaked.  A clean inner test passes;
each kind of leak makes it fail.
"""

import glob
import multiprocessing
import os
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent

INNER_TEST = """
import multiprocessing
import os
import time
from multiprocessing.shared_memory import SharedMemory


def test_inner():
    {body}
"""

#: case -> (inner test body, text the failure report must contain).
CASES = {
    "clean": ("pass", None),
    "unclosed-file": ("open(__file__)", "ResourceWarning"),
    "shared-memory": (
        'SharedMemory(name=f"repro-shm-{os.getpid()}-leak", create=True, size=64)',
        "test left shared-memory segments",
    ),
    "child-process": (
        "multiprocessing.Process(target=time.sleep, args=(60,), daemon=True).start()",
        "test left child processes running",
    ),
}


def _clean_up_leaks() -> None:
    """Stop leaked children and unlink leaked segments of this process."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for path in glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-leak"):
        segment = SharedMemory(name=os.path.basename(path))
        segment.close()
        segment.unlink()


@pytest.mark.parametrize("case", list(CASES))
def test_guard_fails_each_leak(pytester, case):
    body, report = CASES[case]
    pytester.makeconftest((REPO_ROOT / "conftest.py").read_text())
    pytester.makepyprojecttoml((REPO_ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(INNER_TEST.format(body=body))
    try:
        # Hypothesis's terminal summary alone costs ~1.5 s per inner run.
        result = pytester.runpytest("-p", "no:hypothesispytest")
    finally:
        _clean_up_leaks()
    if report is None:
        result.assert_outcomes(passed=1)
    else:
        assert result.ret == pytest.ExitCode.TESTS_FAILED
        assert report in result.stdout.str()
