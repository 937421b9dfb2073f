"""Tests for tile binning and depth sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.sorting import (
    bin_and_sort,
    duplicate_keys,
    tile_depth_histogram,
)
from repro.gaussians.tiles import TileGrid


def _projected(means, radii, depths=None):
    n = len(means)
    depths = np.arange(1, n + 1, dtype=float) if depths is None else np.asarray(depths)
    return ProjectedGaussians(
        means=np.asarray(means, dtype=float),
        cov_inverses=np.tile([0.5, 0.0, 0.5], (n, 1)),
        depths=depths,
        colors=np.tile([0.5, 0.5, 0.5], (n, 1)),
        opacities=np.full(n, 0.8),
        radii=np.asarray(radii, dtype=float),
        source_indices=np.arange(n),
    )


def _duplicate_keys_loop(projected, grid):
    """Per-Gaussian loop oracle for ``duplicate_keys``: Gaussian-major
    keys, each Gaussian's tile rectangle in row-major (ty, tx) order."""
    tile_ids, gaussian_ids = [], []
    ranges = grid.tile_range_for_bbox(projected.means, projected.radii)
    for gaussian_id, (tx0, ty0, tx1, ty1) in enumerate(ranges):
        if tx1 <= tx0 or ty1 <= ty0:
            continue
        tiles_x = np.arange(tx0, tx1)
        tiles_y = np.arange(ty0, ty1)
        tiles = (tiles_y[:, np.newaxis] * grid.tiles_x + tiles_x).ravel()
        tile_ids.extend(tiles.tolist())
        gaussian_ids.extend([gaussian_id] * len(tiles))
    return (
        np.asarray(tile_ids, dtype=np.int64),
        np.asarray(gaussian_ids, dtype=np.int64),
    )


class TestDuplicateKeys:
    def test_single_tile_footprint(self):
        grid = TileGrid(width=64, height=64)
        projected = _projected([[8.0, 8.0]], [2.0])
        tiles, gaussians = duplicate_keys(projected, grid)
        assert list(tiles) == [0]
        assert list(gaussians) == [0]

    def test_multi_tile_footprint_duplicates(self):
        grid = TileGrid(width=64, height=64)
        projected = _projected([[16.0, 16.0]], [4.0])
        tiles, gaussians = duplicate_keys(projected, grid)
        assert len(tiles) == 4
        assert set(gaussians) == {0}

    def test_empty_input(self):
        grid = TileGrid(width=64, height=64)
        tiles, gaussians = duplicate_keys(ProjectedGaussians.empty(), grid)
        assert len(tiles) == 0
        assert len(gaussians) == 0

    @given(
        data=st.data(),
        width=st.integers(min_value=1, max_value=90),
        height=st.integers(min_value=1, max_value=90),
        count=st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle(self, data, width, height, count):
        # Means reach far off-screen on every side and radii include zero,
        # so empty, off-screen and edge-clipped ranges all occur.
        coord = st.floats(min_value=-150.0, max_value=250.0, allow_nan=False)
        grid = TileGrid(width=width, height=height)
        means = data.draw(
            st.lists(st.tuples(coord, coord), min_size=count, max_size=count)
        )
        radii = data.draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
                ),
                min_size=count,
                max_size=count,
            )
        )
        projected = (
            _projected(means, radii) if count else ProjectedGaussians.empty()
        )
        tiles, gaussians = duplicate_keys(projected, grid)
        expected_tiles, expected_gaussians = _duplicate_keys_loop(projected, grid)
        assert tiles.dtype == gaussians.dtype == np.int64
        assert np.array_equal(tiles, expected_tiles)
        assert np.array_equal(gaussians, expected_gaussians)


class TestBinAndSort:
    def test_keys_count_matches_duplication(self):
        grid = TileGrid(width=64, height=64)
        projected = _projected([[16.0, 16.0], [40.0, 8.0]], [4.0, 2.0])
        binning = bin_and_sort(projected, grid)
        assert binning.num_keys == 5
        assert binning.num_occupied_tiles == 5

    def test_per_tile_lists_sorted_by_depth(self):
        grid = TileGrid(width=32, height=32)
        # Two Gaussians over the same tile with out-of-order depths.
        projected = _projected(
            [[8.0, 8.0], [9.0, 9.0], [7.0, 7.0]],
            [2.0, 2.0, 2.0],
            depths=[5.0, 1.0, 3.0],
        )
        binning = bin_and_sort(projected, grid)
        order = list(binning.gaussians_for_tile(0))
        assert order == [1, 2, 0]

    def test_mean_gaussians_per_tile(self):
        grid = TileGrid(width=32, height=32)
        projected = _projected([[8.0, 8.0]], [2.0])
        binning = bin_and_sort(projected, grid)
        assert binning.mean_gaussians_per_tile == pytest.approx(1.0 / grid.num_tiles)

    def test_empty_scene_produces_empty_binning(self):
        grid = TileGrid(width=32, height=32)
        binning = bin_and_sort(ProjectedGaussians.empty(), grid)
        assert binning.num_keys == 0
        assert binning.max_tile_depth == 0
        assert binning.gaussians_for_tile(0).size == 0

    def test_histogram_covers_all_tiles(self):
        grid = TileGrid(width=48, height=32)
        projected = _projected([[8.0, 8.0], [40.0, 24.0]], [2.0, 2.0])
        binning = bin_and_sort(projected, grid)
        histogram = tile_depth_histogram(binning)
        assert len(histogram) == grid.num_tiles
        assert sum(histogram) == binning.num_keys

    def test_offscreen_gaussian_generates_no_keys(self):
        grid = TileGrid(width=32, height=32)
        projected = _projected([[-100.0, -100.0]], [3.0])
        binning = bin_and_sort(projected, grid)
        assert binning.num_keys == 0

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        count=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_depth_order_invariant_holds_for_random_scenes(self, seed, count):
        rng = np.random.default_rng(seed)
        grid = TileGrid(width=64, height=48)
        projected = _projected(
            rng.uniform(0, 64, size=(count, 2)),
            rng.uniform(1, 10, size=count),
            depths=rng.uniform(0.5, 20, size=count),
        )
        binning = bin_and_sort(projected, grid)
        for tile_id, gaussians in binning.tile_lists.items():
            depths = projected.depths[gaussians]
            assert np.all(np.diff(depths) >= 0)

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        count=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_count_equals_sum_of_tile_list_lengths(self, seed, count):
        rng = np.random.default_rng(seed)
        grid = TileGrid(width=64, height=48)
        projected = _projected(
            rng.uniform(-10, 70, size=(count, 2)),
            rng.uniform(0.5, 12, size=count),
            depths=rng.uniform(0.5, 20, size=count),
        ) if count else ProjectedGaussians.empty()
        binning = bin_and_sort(projected, grid)
        assert binning.num_keys == sum(len(v) for v in binning.tile_lists.values())
