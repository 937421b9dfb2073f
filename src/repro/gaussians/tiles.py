"""Screen-tile arithmetic shared by sorting, rasterization and the hardware model.

The rasterizer (both the CUDA reference and GauRast) partitions the screen
into ``TILE_SIZE`` x ``TILE_SIZE`` pixel tiles.  Each projected Gaussian is
assigned to every tile its conservative bounding box overlaps; tiles are the
unit of work dispatched to a GauRast rasterizer instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from repro.datasets.nerf360 import TILE_SIZE


@lru_cache(maxsize=8)
def _image_pixel_centers(width: int, height: int) -> np.ndarray:
    """Read-only ``(height, width, 2)`` pixel centres of an image size.

    Shared by every grid of that size: render results (and the frame cache
    and worker replies that hold them) keep their grid, so a per-instance
    copy would add 16 bytes per pixel to each of them.
    """
    grid_x, grid_y = np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5)
    centers = np.stack([grid_x, grid_y], axis=-1)
    centers.flags.writeable = False
    return centers


@dataclass(frozen=True)
class TileGrid:
    """Regular grid of square screen tiles covering an image."""

    width: int
    height: int
    tile_size: int = TILE_SIZE

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if self.tile_size <= 0:
            raise ValueError("tile size must be positive")

    @property
    def tiles_x(self) -> int:
        """Number of tiles along the x axis."""
        return -(-self.width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tiles along the y axis."""
        return -(-self.height // self.tile_size)

    @property
    def num_tiles(self) -> int:
        """Total number of tiles."""
        return self.tiles_x * self.tiles_y

    @property
    def pixels_per_tile(self) -> int:
        """Number of pixels in a full tile."""
        return self.tile_size * self.tile_size

    def tile_id(self, tile_x: int, tile_y: int) -> int:
        """Flatten a tile coordinate into a linear tile id (row-major)."""
        if not (0 <= tile_x < self.tiles_x and 0 <= tile_y < self.tiles_y):
            raise ValueError(f"tile ({tile_x}, {tile_y}) outside grid")
        return tile_y * self.tiles_x + tile_x

    def tile_coords(self, tile_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`tile_id`."""
        if not 0 <= tile_id < self.num_tiles:
            raise ValueError(f"tile id {tile_id} outside grid")
        return tile_id % self.tiles_x, tile_id // self.tiles_x

    def tile_pixel_bounds(self, tile_id: int) -> Tuple[int, int, int, int]:
        """Pixel bounds ``(x0, y0, x1, y1)`` of a tile, clipped to the image."""
        tile_x, tile_y = self.tile_coords(tile_id)
        x0 = tile_x * self.tile_size
        y0 = tile_y * self.tile_size
        x1 = min(x0 + self.tile_size, self.width)
        y1 = min(y0 + self.tile_size, self.height)
        return x0, y0, x1, y1

    @property
    def pixel_centers(self) -> np.ndarray:
        """Read-only ``(height, width, 2)`` pixel-centre coordinates.

        Built once per image size and sliced per tile by
        :meth:`tile_pixel_centers`; a write raises ``ValueError``.
        """
        return _image_pixel_centers(self.width, self.height)

    def tile_pixel_centers(self, tile_id: int) -> np.ndarray:
        """Return the read-only ``(P, 2)`` pixel-centre coordinates of a tile."""
        x0, y0, x1, y1 = self.tile_pixel_bounds(tile_id)
        centers = self.pixel_centers[y0:y1, x0:x1].reshape(-1, 2)
        # A tile narrower than the image is copied by the reshape.
        centers.flags.writeable = False
        return centers

    def iter_tiles(self) -> Iterator[int]:
        """Iterate over all tile ids in row-major order."""
        return iter(range(self.num_tiles))

    def tile_range_for_bbox(
        self, center: np.ndarray, radius: np.ndarray
    ) -> np.ndarray:
        """Compute the tile rectangle overlapped by circular footprints.

        Parameters
        ----------
        center:
            ``(N, 2)`` screen-space footprint centres.
        radius:
            ``(N,)`` conservative footprint radii in pixels.

        Returns
        -------
        ``(N, 4)`` integer array of ``(tx0, ty0, tx1, ty1)`` where the ranges
        are half-open (``tx1``/``ty1`` exclusive).  Footprints entirely
        outside the image produce empty ranges (``tx0 >= tx1``).
        """
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64).reshape(-1)
        if center.ndim == 1:
            center = center[np.newaxis, :]

        min_xy = center - radius[:, np.newaxis]
        max_xy = center + radius[:, np.newaxis]

        tx0 = np.clip(np.floor(min_xy[:, 0] / self.tile_size), 0, self.tiles_x)
        ty0 = np.clip(np.floor(min_xy[:, 1] / self.tile_size), 0, self.tiles_y)
        tx1 = np.clip(np.floor(max_xy[:, 0] / self.tile_size) + 1, 0, self.tiles_x)
        ty1 = np.clip(np.floor(max_xy[:, 1] / self.tile_size) + 1, 0, self.tiles_y)

        ranges = np.stack([tx0, ty0, tx1, ty1], axis=1).astype(np.int64)
        # Degenerate footprints (zero radius) or off-screen boxes collapse to
        # an empty range.
        empty = (ranges[:, 2] <= ranges[:, 0]) | (ranges[:, 3] <= ranges[:, 1])
        ranges[empty] = 0
        return ranges
