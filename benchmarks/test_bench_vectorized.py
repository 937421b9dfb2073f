"""Perf smoke benchmark: product Stage 3 vs the per-Gaussian oracle loop.

Benchmarks Stage 3 on the same prepared synthetic frame twice: the
product's ``rasterize_tiles`` (the C tile kernel around NumPy's ``exp``)
and the contract-1 oracle (the ``oracle_tiles`` fixture,
``rasterize_tile`` on every tile).  It records the frame rate of each
plus the product-over-oracle speedup in ``benchmark.extra_info``.  ``tests/test_vectorized_equivalence.py``
guarantees the two are bit-identical, so the speedup is free of accuracy
trade-offs.
"""

import os

import pytest

from repro.gaussians.projection import preprocess
from repro.gaussians.rasterize import rasterize_tiles
from repro.gaussians.sorting import bin_and_sort
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.gaussians.tiles import TileGrid

#: Mean per-round timings keyed by loop, shared between the two benchmarks
#: of this module so the vectorized one can report the speedup.
_MEAN_SECONDS = {}


@pytest.fixture(scope="module")
def raster_frame():
    """A prepared frame (projected Gaussians + tile lists) to rasterize."""
    config = SyntheticConfig(num_gaussians=1200, width=160, height=120, seed=0)
    scene = make_synthetic_scene(config, name="bench-vectorized")
    camera = scene.default_camera
    projected, _ = preprocess(scene.cloud, camera)
    grid = TileGrid(width=camera.width, height=camera.height)
    binning = bin_and_sort(projected, grid)
    return projected, binning


def _bench_loop(benchmark, record_info, raster_frame, name, rasterize):
    projected, binning = raster_frame
    image, stats = benchmark(rasterize, projected, binning)
    assert stats.fragments_evaluated > 0
    if benchmark.stats is not None:  # None under --benchmark-disable
        mean = benchmark.stats.stats.mean
        _MEAN_SECONDS[name] = mean
        record_info(benchmark, loop=name, raster_fps=1.0 / mean)
    return image


def test_bench_raster_scalar(benchmark, record_info, raster_frame, oracle_tiles):
    _bench_loop(benchmark, record_info, raster_frame, "scalar", oracle_tiles)


def test_bench_raster_vectorized(benchmark, record_info, raster_frame):
    _bench_loop(
        benchmark, record_info, raster_frame, "vectorized", rasterize_tiles
    )
    if "scalar" in _MEAN_SECONDS and "vectorized" in _MEAN_SECONDS:
        speedup = _MEAN_SECONDS["scalar"] / _MEAN_SECONDS["vectorized"]
        record_info(benchmark, speedup_vs_scalar=speedup)
        # Measured ~31x on a quiet machine; the bar leaves margin for noise
        # while still catching real regressions.  Oversubscribed shared CI
        # runners opt out via REPRO_RELAX_PERF_ASSERTS (see ci.yml) so a
        # noisy round cannot fail an unrelated change.
        if not os.environ.get("REPRO_RELAX_PERF_ASSERTS"):
            assert speedup >= 2.0
