"""Golden-equivalence suite (contract 1): product Stage 3 vs the oracle.

The product rasterizer (``rasterize_tiles``, running the vectorized tile
engine) must be indistinguishable from the per-Gaussian oracle loop
(``rasterize_tile``, walked over the frame by the ``oracle_tiles``
fixture): FP64 images equal **bit-for-bit** and every
:class:`~repro.gaussians.rasterize.RasterStats` counter equal
field-for-field, across randomized synthetic scenes, chunk-boundary edge
cases and the batched multi-camera API.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.pipeline import render, render_batch
from repro.gaussians.rasterize import (
    RasterStats,
    gaussian_alpha,
    gaussian_alpha_block,
    rasterize_tile,
    rasterize_tile_vectorized,
    rasterize_tiles,
)
from repro.gaussians.sorting import bin_and_sort
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.gaussians.tiles import TileGrid


def _random_projected(rng, count, extent=48.0, opacity_max=1.0):
    sigma = rng.uniform(1.0, 4.0, size=count)
    conic = 1.0 / (sigma * sigma)
    return ProjectedGaussians(
        means=rng.uniform(-4.0, extent + 4.0, size=(count, 2)),
        cov_inverses=np.stack([conic, np.zeros(count), conic], axis=1),
        depths=rng.uniform(0.5, 20.0, size=count),
        colors=rng.uniform(0.0, 1.0, size=(count, 3)),
        opacities=rng.uniform(0.05, opacity_max, size=count),
        radii=np.ceil(3.0 * sigma),
        source_indices=np.arange(count),
    )


def _assert_stats_identical(oracle: RasterStats, product: RasterStats):
    assert oracle.fragments_evaluated == product.fragments_evaluated
    assert oracle.fragments_blended == product.fragments_blended
    assert oracle.tiles_processed == product.tiles_processed
    assert oracle.per_tile_gaussians == product.per_tile_gaussians


class TestFrameEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_frames_bit_identical(self, seed, oracle_tiles):
        rng = np.random.default_rng(seed)
        projected = _random_projected(rng, int(rng.integers(5, 60)))
        grid = TileGrid(width=64, height=48)
        binning = bin_and_sort(projected, grid)
        background = rng.uniform(0.0, 1.0, size=3)

        oracle_image, oracle_stats = oracle_tiles(
            projected, binning, background=background
        )
        product_image, product_stats = rasterize_tiles(
            projected, binning, background=background
        )
        assert np.array_equal(oracle_image, product_image)
        _assert_stats_identical(oracle_stats, product_stats)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_synthetic_scene_render_bit_identical(self, seed, oracle_tiles):
        config = SyntheticConfig(
            num_gaussians=500, width=96, height=64, seed=seed
        )
        scene = make_synthetic_scene(config)
        product = render(scene)
        image, stats = oracle_tiles(product.projected, product.binning)
        assert np.array_equal(image, product.image)
        _assert_stats_identical(stats, product.raster_stats)

    def test_deep_tiles_with_early_termination(self, oracle_tiles):
        # Many nearly opaque splats stacked on one spot: exercises per-pixel
        # freezing, column narrowing and the whole-tile break.
        rng = np.random.default_rng(11)
        count = 300
        projected = ProjectedGaussians(
            means=np.full((count, 2), 24.0) + rng.normal(scale=2.0, size=(count, 2)),
            cov_inverses=np.tile([0.1, 0.0, 0.1], (count, 1)),
            depths=np.arange(count, dtype=float),
            colors=rng.uniform(0.0, 1.0, size=(count, 3)),
            opacities=np.full(count, 0.95),
            radii=np.full(count, 12.0),
        )
        grid = TileGrid(width=48, height=48)
        binning = bin_and_sort(projected, grid)
        oracle_image, oracle_stats = oracle_tiles(projected, binning)
        product_image, product_stats = rasterize_tiles(projected, binning)
        assert np.array_equal(oracle_image, product_image)
        _assert_stats_identical(oracle_stats, product_stats)
        # Early termination must actually have kicked in for the test to
        # exercise the freeze path.
        nominal = binning.num_keys * grid.pixels_per_tile
        assert oracle_stats.fragments_evaluated < nominal

    def test_empty_scene_bit_identical(self, oracle_tiles):
        grid = TileGrid(width=32, height=32)
        empty = ProjectedGaussians.empty()
        binning = bin_and_sort(empty, grid)
        oracle_image, _ = oracle_tiles(
            empty, binning, background=(0.3, 0.5, 0.7)
        )
        product_image, _ = rasterize_tiles(
            empty, binning, background=(0.3, 0.5, 0.7)
        )
        assert np.array_equal(oracle_image, product_image)


class TestTileEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 64, 1024])
    def test_chunk_boundaries_bit_identical(self, chunk_size):
        rng = np.random.default_rng(17)
        projected = _random_projected(rng, 40, extent=16.0)
        grid = TileGrid(width=16, height=16)
        pixels = grid.tile_pixel_centers(0)
        indices = np.argsort(projected.depths, kind="stable")
        background = np.array([0.2, 0.1, 0.4])

        oracle_stats = RasterStats()
        oracle = rasterize_tile(projected, indices, pixels, background, oracle_stats)
        product_stats = RasterStats()
        vectorized = rasterize_tile_vectorized(
            projected, indices, pixels, background, product_stats,
            chunk_size=chunk_size,
        )
        assert np.array_equal(oracle, vectorized)
        _assert_stats_identical(oracle_stats, product_stats)

    def test_empty_tile_returns_background(self):
        grid = TileGrid(width=16, height=16)
        pixels = grid.tile_pixel_centers(0)
        background = np.array([0.25, 0.5, 0.75])
        stats = RasterStats()
        color = rasterize_tile_vectorized(
            _random_projected(np.random.default_rng(0), 3),
            np.empty(0, dtype=np.int64),
            pixels,
            background,
            stats,
        )
        assert np.array_equal(color, np.tile(background, (len(pixels), 1)))
        assert stats.tiles_processed == 1
        assert stats.fragments_evaluated == 0
        assert stats.fragments_blended == 0


class TestAlphaBlockEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_block_matches_per_row_scalar_alpha(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 20))
        projected = _random_projected(rng, count)
        pixels = TileGrid(width=32, height=32).tile_pixel_centers(0)
        block = gaussian_alpha_block(
            pixels, projected.means, projected.cov_inverses, projected.opacities
        )
        assert block.shape == (count, len(pixels))
        for row in range(count):
            expected = gaussian_alpha(
                pixels,
                projected.means[row],
                projected.cov_inverses[row],
                projected.opacities[row],
            )
            assert np.array_equal(block[row], expected)


class TestBatchEquivalence:
    def test_batch_matches_individual_renders_bit_for_bit(self):
        config = SyntheticConfig(num_gaussians=300, width=64, height=48, seed=3)
        scene = make_synthetic_scene(config, num_cameras=3)
        batch = render_batch(scene, background=(0.1, 0.2, 0.3))
        assert len(batch) == 3
        for camera, result in zip(scene.cameras, batch.results):
            single = render(scene, camera=camera, background=(0.1, 0.2, 0.3))
            assert np.array_equal(result.image, single.image)
            _assert_stats_identical(single.raster_stats, result.raster_stats)

    def test_batch_images_stacked_and_stats_aggregated(self):
        config = SyntheticConfig(num_gaussians=200, width=64, height=48, seed=9)
        scene = make_synthetic_scene(config, num_cameras=4)
        batch = render_batch(scene)
        assert batch.images.shape == (4, 48, 64, 3)
        assert batch.fragments_evaluated == sum(
            result.raster_stats.fragments_evaluated for result in batch.results
        )
        assert batch.raster_stats.tiles_processed == sum(
            result.raster_stats.tiles_processed for result in batch.results
        )
        assert batch.num_sort_keys == sum(
            result.num_sort_keys for result in batch.results
        )

    def test_batch_backends_agree(self, oracle_tiles):
        config = SyntheticConfig(num_gaussians=200, width=64, height=48, seed=4)
        scene = make_synthetic_scene(config, num_cameras=2)
        product = render_batch(scene)
        oracle = [
            oracle_tiles(result.projected, result.binning)
            for result in product.results
        ]
        assert np.array_equal(
            np.stack([image for image, _ in oracle]), product.images
        )
        _assert_stats_identical(
            RasterStats.merged(stats for _, stats in oracle),
            product.raster_stats,
        )

    def test_batch_requires_a_camera(self, synthetic_scene):
        with pytest.raises(ValueError):
            render_batch(synthetic_scene, cameras=[])


class TestMergedStats:
    def test_merged_sums_counters_per_tile(self):
        first = RasterStats(
            fragments_evaluated=10,
            fragments_blended=4,
            tiles_processed=2,
            per_tile_gaussians={0: 3, 1: 5},
        )
        second = RasterStats(
            fragments_evaluated=7,
            fragments_blended=2,
            tiles_processed=1,
            per_tile_gaussians={1: 2, 2: 9},
        )
        merged = RasterStats.merged([first, second])
        assert merged.fragments_evaluated == 17
        assert merged.fragments_blended == 6
        assert merged.tiles_processed == 3
        assert merged.per_tile_gaussians == {0: 3, 1: 7, 2: 9}

    def test_merged_of_nothing_is_empty(self):
        merged = RasterStats.merged([])
        assert merged.fragments_evaluated == 0
        assert merged.blend_fraction == 0.0

    def test_merged_same_grid_keeps_raw_tile_ids(self):
        # Same TileGrid shape on every input: tile id 0 means the same
        # screen region everywhere, so raw-id summing is correct and the
        # merged stats keep the shared shape.
        first = RasterStats(per_tile_gaussians={0: 3}, grid_shape=(4, 3))
        second = RasterStats(per_tile_gaussians={0: 2, 5: 1}, grid_shape=(4, 3))
        merged = RasterStats.merged([first, second])
        assert merged.per_tile_gaussians == {0: 5, 5: 1}
        assert merged.grid_shape == (4, 3)

    def test_merged_mixed_grids_namespaces_per_tile_counters(self):
        # Regression (PR 5): summing by raw tile id across *different*
        # grids silently conflated unrelated screen regions (tile 0 of a
        # 4x3 grid is not tile 0 of an 8x6 grid).  Mixed-grid merges now
        # namespace the keys by grid shape instead.
        small = RasterStats(
            fragments_evaluated=5, per_tile_gaussians={0: 3, 1: 4},
            grid_shape=(4, 3),
        )
        large = RasterStats(
            fragments_evaluated=7, per_tile_gaussians={0: 9},
            grid_shape=(8, 6),
        )
        merged = RasterStats.merged([small, large])
        assert merged.fragments_evaluated == 12
        assert merged.per_tile_gaussians == {
            (4, 3, 0): 3, (4, 3, 1): 4, (8, 6, 0): 9,
        }
        assert merged.grid_shape is None
        # A second-stage merge of two namespaced results still sums their
        # (grid, tile) keys correctly.
        again = RasterStats.merged([merged, merged])
        assert again.per_tile_gaussians[(8, 6, 0)] == 18

    def test_merged_mixed_with_unknown_grid_raises(self):
        known = RasterStats(per_tile_gaussians={0: 1}, grid_shape=(4, 3))
        unknown = RasterStats(per_tile_gaussians={0: 1})
        with pytest.raises(ValueError, match="grid"):
            RasterStats.merged([known, unknown])

    def test_mixed_resolution_batch_merges_without_conflation(self, synthetic_scene):
        # The real producer of mixed grids: a render_batch over cameras of
        # different resolutions.  Per-tile counters must come back
        # namespaced, and per-camera stats must be untouched.
        from repro.gaussians.camera import Camera
        from repro.gaussians.pipeline import render_batch

        small = Camera(width=32, height=24, fx=30.0, fy=30.0)
        large = Camera(width=64, height=48, fx=60.0, fy=60.0)
        batch = render_batch(synthetic_scene, cameras=[small, large])
        shapes = {result.raster_stats.grid_shape for result in batch.results}
        assert len(shapes) == 2
        merged = batch.raster_stats
        assert merged.grid_shape is None
        assert all(len(key) == 3 for key in merged.per_tile_gaussians)
        total = sum(
            sum(result.raster_stats.per_tile_gaussians.values())
            for result in batch.results
        )
        assert sum(merged.per_tile_gaussians.values()) == total
