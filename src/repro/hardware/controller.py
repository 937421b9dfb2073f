"""Control logic of the enhanced rasterizer: top controller, dispatcher, collector.

The top controller walks the frame's tile list, the dispatch controller
hands the staged primitives of the active tile buffer to the PE block, and
the result collector gathers the finished pixel values and writes them back
through the cache/memory interface (Fig. 7(b)).  Control is not on the
critical path of the datapath, so the model only accounts for its fixed
per-tile and per-batch cycle costs and for the dispatch ordering it imposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class ControllerTimings:
    """Fixed cycle costs charged by the control logic."""

    #: Handshake cycles for swapping the ping-pong buffers.
    buffer_swap_cycles: int = 4
    #: Cycles to initialise the pixel accumulators of a new tile.
    tile_init_cycles: int = 16
    #: Cycles for the result collector to drain a finished tile.
    tile_writeback_cycles: int = 16
    #: Per-batch dispatch overhead (address generation, PE kick-off).
    batch_dispatch_cycles: int = 4

    def per_tile_cycles(self, num_batches: int) -> int:
        """Total control cycles for a tile processed in ``num_batches`` batches."""
        if num_batches < 0:
            raise ValueError("num_batches must be non-negative")
        per_batch = (self.buffer_swap_cycles + self.batch_dispatch_cycles) * num_batches
        return self.tile_init_cycles + self.tile_writeback_cycles + per_batch


@dataclass
class DispatchController:
    """Static round-robin distribution of tiles across rasterizer instances.

    The scaled GauRast design replicates the 16-PE module; the driver assigns
    screen tiles to instances round-robin, which is also how the analytical
    model reasons about load balance.
    """

    num_instances: int

    def __post_init__(self) -> None:
        if self.num_instances <= 0:
            raise ValueError("num_instances must be positive")

    def assign_tiles(self, tile_ids: Sequence[int]) -> List[List[int]]:
        """Split ``tile_ids`` into one work list per instance (round-robin)."""
        assignments: List[List[int]] = [[] for _ in range(self.num_instances)]
        for position, tile_id in enumerate(tile_ids):
            assignments[position % self.num_instances].append(tile_id)
        return assignments


@dataclass
class ResultCollector:
    """Gathers finished tiles and tracks write-back traffic."""

    tiles_collected: int = 0
    pixels_written: int = 0

    def collect(self, tile_id: int, num_pixels: int) -> None:
        """Account for one finished tile."""
        if num_pixels < 0:
            raise ValueError("num_pixels must be non-negative")
        self.tiles_collected += 1
        self.pixels_written += num_pixels
