"""Pytest root configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. in fully offline environments where editable installs are
unavailable); an installed ``repro`` package takes precedence because the
path is appended, not prepended.

Also holds the session's run-time leak guard: every test must leave no
child process and no shared-memory segment behind.  Unclosed files are
caught by the ``error::ResourceWarning`` filter in ``pyproject.toml``.
"""

import glob
import multiprocessing
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)

pytest_plugins = ["pytester"]


def _own_segments():
    """This process's ``SharedSceneStore`` segments under ``/dev/shm``."""
    return set(glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*"))


@pytest.fixture(autouse=True)
def leak_guard():
    """Fail a test that leaves a child process or a segment behind."""
    before = _own_segments()
    yield
    children = multiprocessing.active_children()
    assert not children, f"test left child processes running: {children}"
    leaked = sorted(_own_segments() - before)
    assert not leaked, f"test left shared-memory segments: {leaked}"
