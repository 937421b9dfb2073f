"""Pytest root configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. in fully offline environments where editable installs are
unavailable); an installed ``repro`` package takes precedence because the
path is appended, not prepended.

Also holds the session's run-time leak guard: every test must leave no
child process and no shared-memory segment behind.  Unclosed files are
caught by the ``error::ResourceWarning`` filter in ``pyproject.toml``.

And the contract-1 frame oracle (:func:`rasterize_tiles_oracle`, served to
``tests/`` and ``benchmarks/`` as the ``oracle_tiles`` fixture): the
product's Stage 3 must match it bit for bit.
"""

import glob
import multiprocessing
import os
import sys

import numpy as np
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
