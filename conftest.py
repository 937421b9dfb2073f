"""Pytest root configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. in fully offline environments where editable installs are
unavailable); an installed ``repro`` package takes precedence because the
path is appended, not prepended.

Also holds the session's run-time leak guard: every test must leave no
child process and no shared-memory segment behind.  Unclosed files are
caught by the ``error::ResourceWarning`` filter in ``pyproject.toml``.
The same guard holds contract 5 (seeded replay): a test must not draw
from or seed the hidden global generators, and no generator may seed
itself from OS entropy while it runs.

And the contract-1 frame oracle (:func:`rasterize_tiles_oracle`, served to
``tests/`` and ``benchmarks/`` as the ``oracle_tiles`` fixture): the
product's Stage 3 must match it bit for bit.
"""

import functools
import glob
import inspect
import multiprocessing
import os
import random
import sys
import sysconfig

import numpy as np
import pytest
from numpy.random import bit_generator

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)

pytest_plugins = ["pytester"]


def _own_segments():
    """This process's ``SharedSceneStore`` segments under ``/dev/shm``."""
    return set(glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*"))


def _global_rng_states():
    """States of the legacy ``np.random.*`` and stdlib ``random.*`` globals."""
    name, key, position, has_gauss, gauss = np.random.get_state()
    return (name, key.tobytes(), position, has_gauss, gauss), random.getstate()


def _refuse_os_entropy(*args, **kwargs):
    """Stand-in for the OS entropy source of an unseeded generator."""
    raise RuntimeError(
        "a generator seeded itself from OS entropy, which breaks seeded "
        "replay; pass an explicit seed (np.random.default_rng(seed))"
    )


#: Directories of the standard library and installed packages.  Their own
#: unseeded ``random.Random()`` (``tempfile``'s name generator) is allowed.
_LIBRARY_DIRS = tuple(
    sysconfig.get_paths()[key]
    for key in ("stdlib", "platstdlib", "purelib", "platlib")
)

#: The unpatched ``random.Random.seed``.  The nested sessions of
#: ``tests/test_leak_guard.py`` import this file again while the outer
#: guard is active, so the wrapper is unwrapped rather than wrapped twice.
_seed_stdlib = inspect.unwrap(random.Random.seed)


@functools.wraps(_seed_stdlib)
def _seed_stdlib_checked(self, a=None, version=2):
    """``random.Random.seed`` refusing OS entropy unless a library asks."""
    if a is None:
        frame = sys._getframe(1)
        while frame.f_code.co_filename == random.__file__:
            frame = frame.f_back
        if not frame.f_code.co_filename.startswith(_LIBRARY_DIRS):
            _refuse_os_entropy()
    return _seed_stdlib(self, a, version)


@pytest.fixture(autouse=True)
def leak_guard():
    """Fail a test that leaks a process or segment, or breaks seeded replay.

    While the test runs, ``np.random.bit_generator.randbits`` (the
    entropy source of an unseeded ``SeedSequence``, hence of
    ``default_rng()``, ``PCG64()`` and ``RandomState()``) raises, and so
    does ``random.Random.seed(None)`` called from outside the standard
    library and installed packages.  Fixtures of a wider scope than a
    test run outside the guard.
    """
    before = _own_segments()
    rng_before = _global_rng_states()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bit_generator, "randbits", _refuse_os_entropy)
        patch.setattr(random.Random, "seed", _seed_stdlib_checked)
        yield
    children = multiprocessing.active_children()
    assert not children, f"test left child processes running: {children}"
    leaked = sorted(_own_segments() - before)
    assert not leaked, f"test left shared-memory segments: {leaked}"
    numpy_before, stdlib_before = rng_before
    numpy_after, stdlib_after = _global_rng_states()
    assert numpy_after == numpy_before, (
        "test drew from or seeded the global np.random state; draw from a "
        "seeded np.random.default_rng(seed) instead"
    )
    assert stdlib_after == stdlib_before, (
        "test drew from or seeded the global random state; draw from a "
        "seeded np.random.default_rng(seed) instead"
    )


def rasterize_tiles_oracle(projected, binning, background=(0.0, 0.0, 0.0)):
    """``rasterize_tiles`` with the per-Gaussian loop on every tile.

    The same tile walk as the product, but each tile runs the readable
    golden model :func:`repro.gaussians.rasterize.rasterize_tile` instead
    of the vectorized engine.  Returns ``(image, stats)`` with every
    counter collected.
    """
    from repro.gaussians.rasterize import RasterStats, rasterize_tile

    grid = binning.grid
    background = np.asarray(background, dtype=np.float64).reshape(3)
    image = np.empty((grid.height, grid.width, 3))
    image[:, :] = background
    stats = RasterStats(grid_shape=(grid.tiles_x, grid.tiles_y))
    for tile_id, indices in binning.tile_lists.items():
        x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
        color = rasterize_tile(
            projected, indices, grid.tile_pixel_centers(tile_id), background,
            stats,
        )
        image[y0:y1, x0:x1] = color.reshape(y1 - y0, x1 - x0, 3)
        stats.per_tile_gaussians[tile_id] = len(indices)
    return image, stats


@pytest.fixture(scope="session")
def oracle_tiles():
    """The contract-1 frame oracle, :func:`rasterize_tiles_oracle`."""
    return rasterize_tiles_oracle
