"""Tests for the screen-tile arithmetic."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.tiles import TileGrid


class TestTileGrid:
    def test_counts_round_up(self):
        grid = TileGrid(width=100, height=50, tile_size=16)
        assert grid.tiles_x == 7
        assert grid.tiles_y == 4
        assert grid.num_tiles == 28

    def test_exact_multiple(self):
        grid = TileGrid(width=64, height=32, tile_size=16)
        assert (grid.tiles_x, grid.tiles_y) == (4, 2)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            TileGrid(width=0, height=10)
        with pytest.raises(ValueError):
            TileGrid(width=10, height=10, tile_size=0)

    def test_tile_id_round_trip(self):
        grid = TileGrid(width=100, height=50)
        for tile_id in grid.iter_tiles():
            tx, ty = grid.tile_coords(tile_id)
            assert grid.tile_id(tx, ty) == tile_id

    def test_tile_id_out_of_range(self):
        grid = TileGrid(width=32, height=32)
        with pytest.raises(ValueError):
            grid.tile_id(5, 0)
        with pytest.raises(ValueError):
            grid.tile_coords(grid.num_tiles)

    def test_border_tile_is_clipped(self):
        grid = TileGrid(width=20, height=20, tile_size=16)
        x0, y0, x1, y1 = grid.tile_pixel_bounds(grid.tile_id(1, 1))
        assert (x0, y0) == (16, 16)
        assert (x1, y1) == (20, 20)

    def test_pixel_centers_cover_tile(self):
        grid = TileGrid(width=40, height=40, tile_size=16)
        centers = grid.tile_pixel_centers(0)
        assert centers.shape == (256, 2)
        assert centers[0] == pytest.approx([0.5, 0.5])
        assert centers[-1] == pytest.approx([15.5, 15.5])

    def test_partial_tile_pixel_centers(self):
        grid = TileGrid(width=20, height=18, tile_size=16)
        tile_id = grid.tile_id(1, 1)
        centers = grid.tile_pixel_centers(tile_id)
        assert centers.shape == (4 * 2, 2)

    def test_pixel_centers_disjoint_and_complete(self):
        grid = TileGrid(width=33, height=17, tile_size=16)
        seen = set()
        for tile_id in grid.iter_tiles():
            for x, y in grid.tile_pixel_centers(tile_id):
                seen.add((x, y))
        assert len(seen) == grid.width * grid.height

    @given(
        width=st.integers(min_value=1, max_value=70),
        height=st.integers(min_value=1, max_value=70),
        tile_size=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_centers_equal_per_tile_meshgrid(self, width, height, tile_size):
        grid = TileGrid(width=width, height=height, tile_size=tile_size)
        for tile_id in grid.iter_tiles():
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
            grid_x, grid_y = np.meshgrid(
                np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5
            )
            expected = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
            centers = grid.tile_pixel_centers(tile_id)
            assert centers.dtype == expected.dtype
            assert np.array_equal(centers, expected)

    def test_pixel_centers_are_read_only(self):
        grid = TileGrid(width=40, height=24, tile_size=16)
        assert grid.pixel_centers is grid.pixel_centers
        with pytest.raises(ValueError):
            grid.pixel_centers[0, 0, 0] = 7.0
        # Both a contiguous (full-width) and a copied tile are read-only.
        for tile_id in (0, grid.tile_id(1, 1)):
            with pytest.raises(ValueError):
                grid.tile_pixel_centers(tile_id)[0, 0] = 7.0
        narrow = TileGrid(width=16, height=40, tile_size=16)
        with pytest.raises(ValueError):
            narrow.tile_pixel_centers(1)[0, 0] = 7.0

    def test_centers_shared_by_equal_sizes_not_pickled(self):
        grid = TileGrid(width=320, height=240)
        assert grid.pixel_centers is TileGrid(width=320, height=240, tile_size=8).pixel_centers
        assert len(pickle.dumps(grid)) < 1024


class TestTileRanges:
    def test_footprint_inside_one_tile(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[8.0, 8.0]]), np.array([2.0]))
        assert list(ranges[0]) == [0, 0, 1, 1]

    def test_footprint_spanning_tiles(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[16.0, 16.0]]), np.array([4.0]))
        assert list(ranges[0]) == [0, 0, 2, 2]

    def test_offscreen_footprint_is_empty(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[-100.0, -100.0]]), np.array([5.0]))
        tx0, ty0, tx1, ty1 = ranges[0]
        assert tx1 <= tx0 or ty1 <= ty0

    def test_zero_radius_is_empty(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[10.0, 10.0]]), np.array([0.0]))
        tx0, ty0, tx1, ty1 = ranges[0]
        # A zero-radius footprint still covers the tile containing its centre.
        assert (tx1 - tx0) * (ty1 - ty0) in (0, 1)

    @given(
        cx=st.floats(min_value=-50, max_value=150, allow_nan=False),
        cy=st.floats(min_value=-50, max_value=150, allow_nan=False),
        radius=st.floats(min_value=0.1, max_value=60, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_ranges_are_always_within_grid(self, cx, cy, radius):
        grid = TileGrid(width=100, height=80, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[cx, cy]]), np.array([radius]))
        tx0, ty0, tx1, ty1 = ranges[0]
        assert 0 <= tx0 <= grid.tiles_x
        assert 0 <= ty0 <= grid.tiles_y
        assert 0 <= tx1 <= grid.tiles_x
        assert 0 <= ty1 <= grid.tiles_y

    @given(
        cx=st.floats(min_value=0, max_value=99, allow_nan=False),
        cy=st.floats(min_value=0, max_value=79, allow_nan=False),
        radius=st.floats(min_value=0.5, max_value=30, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_center_tile_is_always_covered_for_onscreen_centers(self, cx, cy, radius):
        grid = TileGrid(width=100, height=80, tile_size=16)
        ranges = grid.tile_range_for_bbox(np.array([[cx, cy]]), np.array([radius]))
        tx0, ty0, tx1, ty1 = ranges[0]
        center_tx = int(cx // 16)
        center_ty = int(cy // 16)
        assert tx0 <= center_tx < tx1
        assert ty0 <= center_ty < ty1
