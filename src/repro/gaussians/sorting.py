"""Sorting stage: tile binning and per-tile depth ordering.

This is Step 2 of the 3DGS pipeline (Fig. 3(c)).  Each projected Gaussian is
duplicated once per screen tile its footprint overlaps, producing a list of
(tile, depth, gaussian) keys; the keys are then sorted so that every tile
sees its Gaussians in front-to-back depth order.  The resulting per-tile
lists are the work units consumed both by the functional rasterizer and by
the GauRast hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.tiles import TileGrid


@dataclass
class TileBinning:
    """Result of the sorting stage.

    Attributes
    ----------
    grid:
        The tile grid the binning was performed against.
    tile_lists:
        Mapping from tile id to an integer array of indices into the
        projected-Gaussian arrays, sorted front to back (ascending depth).
        Tiles with no Gaussians are omitted.
    num_keys:
        Total number of duplicated (tile, Gaussian) keys; this is the sort
        workload of the baseline and the per-tile primitive count of the
        hardware model.
    """

    grid: TileGrid
    tile_lists: Dict[int, np.ndarray]
    num_keys: int

    def __repr__(self) -> str:
        """Summary repr; the per-tile index arrays stay out of logs."""
        return (
            f"{type(self).__name__}(num_occupied_tiles="
            f"{self.num_occupied_tiles}, num_keys={self.num_keys})"
        )

    @property
    def num_occupied_tiles(self) -> int:
        """Number of tiles containing at least one Gaussian."""
        return len(self.tile_lists)

    @property
    def max_tile_depth(self) -> int:
        """Largest per-tile Gaussian count (depth complexity)."""
        if not self.tile_lists:
            return 0
        return max(len(v) for v in self.tile_lists.values())

    @property
    def mean_gaussians_per_tile(self) -> float:
        """Average number of Gaussians per tile across the whole grid."""
        if self.grid.num_tiles == 0:
            return 0.0
        return self.num_keys / self.grid.num_tiles

    def gaussians_for_tile(self, tile_id: int) -> np.ndarray:
        """Sorted Gaussian indices for ``tile_id`` (empty if none)."""
        return self.tile_lists.get(tile_id, np.empty(0, dtype=np.int64))


def duplicate_keys(
    projected: ProjectedGaussians, grid: TileGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate each Gaussian into every tile its footprint overlaps.

    Returns
    -------
    tile_ids:
        ``(K,)`` tile id of each duplicated key.
    gaussian_ids:
        ``(K,)`` index of the source Gaussian for each key.
    """
    if len(projected) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    ranges = grid.tile_range_for_bbox(projected.means, projected.radii)
    widths = ranges[:, 2] - ranges[:, 0]
    heights = ranges[:, 3] - ranges[:, 1]
    counts = np.where((widths > 0) & (heights > 0), widths * heights, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    # Key k of Gaussian g is the k-th tile of its rectangle in row-major
    # order (ty outer, tx inner), so the output is Gaussian-major.
    gaussian_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    first_key = np.cumsum(counts) - counts
    local = np.arange(total, dtype=np.int64) - first_key[gaussian_ids]
    row_width = widths[gaussian_ids]
    tiles_y = ranges[gaussian_ids, 1] + local // row_width
    tiles_x = ranges[gaussian_ids, 0] + local % row_width
    tile_ids = tiles_y * grid.tiles_x + tiles_x
    return tile_ids, gaussian_ids


def bin_and_sort(projected: ProjectedGaussians, grid: TileGrid) -> TileBinning:
    """Run the full sorting stage.

    The duplicated keys are sorted by (tile, depth) using a stable sort,
    mirroring the 64-bit radix sort of the reference implementation where the
    tile id occupies the high bits and the depth the low bits.
    """
    tile_ids, gaussian_ids = duplicate_keys(projected, grid)
    if len(tile_ids) == 0:
        return TileBinning(grid=grid, tile_lists={}, num_keys=0)

    depths = projected.depths[gaussian_ids]
    # Sort by depth first, then stably by tile id: equivalent to sorting the
    # combined (tile, depth) key.
    depth_order = np.argsort(depths, kind="stable")
    tile_order = np.argsort(tile_ids[depth_order], kind="stable")
    order = depth_order[tile_order]

    sorted_tiles = tile_ids[order]
    sorted_gaussians = gaussian_ids[order]

    tile_lists: Dict[int, np.ndarray] = {}
    boundaries = np.nonzero(np.diff(sorted_tiles))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(sorted_tiles)]])
    for start, end in zip(starts, ends):
        tile_lists[int(sorted_tiles[start])] = sorted_gaussians[start:end]

    return TileBinning(grid=grid, tile_lists=tile_lists, num_keys=len(tile_ids))


def tile_depth_histogram(binning: TileBinning) -> List[int]:
    """Per-tile Gaussian counts for every tile in the grid (including empty).

    Useful for load-balance analysis of the hardware model's dispatcher.
    """
    histogram = [0] * binning.grid.num_tiles
    for tile_id, gaussians in binning.tile_lists.items():
        histogram[tile_id] = len(gaussians)
    return histogram
