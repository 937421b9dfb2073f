"""The test session's run-time leak guard fails a test that leaks.

Each case runs one inner test under copies of the repository's root
``conftest.py`` and ``pyproject.toml`` — the same autouse guard and the
same ``ResourceWarning`` filters every real test runs under — and then
cleans up whatever the inner test leaked.  A clean inner test passes;
each kind of leak makes it fail.

The guard also holds seeded replay (contract 5 in
``docs/ARCHITECTURE.md``): every unseeded or global-state randomness
pattern fails, while explicitly seeded generators and the standard
library's own ``tempfile`` name generator pass.
"""

import glob
import multiprocessing
import os
import random
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).parent.parent

INNER_TEST = """
import multiprocessing
import os
import random
import tempfile
import time
from multiprocessing.shared_memory import SharedMemory

import numpy as np
from numpy.random import default_rng


def test_inner():
    {body}
"""

#: Failure reports of the seeded-replay checks.
OS_ENTROPY = "seeded itself from OS entropy"
NUMPY_GLOBAL = "global np.random state"
STDLIB_GLOBAL = "global random state"

#: case -> (inner test body, text the failure report must contain; None
#: for a case that must pass).
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
    "unseeded-default-rng": ("np.random.default_rng()", OS_ENTROPY),
    "unseeded-default-rng-from-import": ("default_rng()", OS_ENTROPY),
    "legacy-numpy-draw": ("np.random.rand(3)", NUMPY_GLOBAL),
    "legacy-numpy-uniform": ("np.random.uniform(0.0, 1.0)", NUMPY_GLOBAL),
    "legacy-numpy-seed": ("np.random.seed(3)", NUMPY_GLOBAL),
    "stdlib-global-draw": ("random.random()", STDLIB_GLOBAL),
    "stdlib-global-choice": ("random.choice([1, 2, 3])", STDLIB_GLOBAL),
    "unseeded-stdlib-instance": ("random.Random()", OS_ENTROPY),
    "unseeded-pcg64": ("np.random.PCG64()", OS_ENTROPY),
    "unseeded-mt19937": ("np.random.MT19937()", OS_ENTROPY),
    "unseeded-seed-sequence": ("np.random.SeedSequence()", OS_ENTROPY),
    "unseeded-random-state": ("np.random.RandomState()", OS_ENTROPY),
    "legacy-numpy-shuffle": ("np.random.shuffle([1, 2, 3])", NUMPY_GLOBAL),
    "stdlib-global-seed": ("random.seed(3)", STDLIB_GLOBAL),
    "stdlib-reseed-from-entropy": ("random.Random(42).seed()", OS_ENTROPY),
    "seeded-numpy": (
        "np.random.default_rng(0).random(); "
        "np.random.default_rng(seed=1234).random(); default_rng(7).random()",
        None,
    ),
    "seeded-bit-generators": (
        "np.random.Generator(np.random.PCG64(3)).random(); "
        "np.random.MT19937(5).random_raw(); np.random.SeedSequence(9).spawn(2)",
        None,
    ),
    "seeded-stdlib": (
        "random.Random(42).random(); random.SystemRandom().random()",
        None,
    ),
    # A fresh name sequence makes tempfile build its own unseeded Random().
    "tempfile": (
        "tempfile._name_sequence = None; os.rmdir(tempfile.mkdtemp())",
        None,
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
    # The inner session runs in this process: put back the global
    # generator states an inner global-state case changes.
    rng_states = np.random.get_state(), random.getstate()
    try:
        # Hypothesis's terminal summary alone costs ~1.5 s per inner run.
        result = pytester.runpytest("-p", "no:hypothesispytest")
    finally:
        np.random.set_state(rng_states[0])
        random.setstate(rng_states[1])
        _clean_up_leaks()
    if report is None:
        result.assert_outcomes(passed=1)
    else:
        assert result.ret == pytest.ExitCode.TESTS_FAILED
        assert report in result.stdout.str()
