"""The PE Block: the array of Processing Elements inside one rasterizer instance.

The PE block of the prototype holds 16 PEs.  When a tile is dispatched, its
pixels are interleaved across the PEs (pixel ``p`` belongs to PE
``p mod num_pes``), so partially filled border tiles still spread their work
evenly.  Primitives staged in the active tile buffer are broadcast to all
PEs in sorted order; each PE applies the primitive to its own pixels.

The model simulates that broadcast as tile-wide datapath passes, with each
pixel tagged by the PE (lane) owning it, and reports per-lane activity:

* in Gaussian mode, one :func:`~repro.hardware.pe.gaussian_datapath` call
  per batch.  Subtasks 1-2 (coordinate shift, quadratic form, ``exp``,
  alpha and its clamp and threshold) do not read pixel state, so they are
  hoisted out of the primitive loop and computed once for the batch as
  ``(B, P)`` arrays; the per-primitive loop keeps only the active mask
  and subtasks 3-4 on the passing pixels.  The per-lane counts are read
  off the recorded active masks, and the tally is charged per batch from
  the per-fragment subtask counts;
* in triangle mode, one :func:`~repro.hardware.pe.triangle_datapath` call
  per triangle, op by op.

Operands enter once in the datapath dtype (pixels per tile, primitives per
batch) and the Gaussian pixel state stays in it; the returned colours are
float64.  The passes are exact, not an approximation of 16 separate PEs:

* every per-pixel operation is elementwise, so a pixel's colour,
  transmittance, depth and UV do not depend on which other pixels share the
  pass;
* the operation tally is a sum over pixels, and the per-PE rules are kept
  per lane: a PE runs Gaussian subtasks 3-4 on all of its active pixels when
  one of them contributes, and every PE owning a pixel of the tile performs
  the triangle setup;
* each PE's busy cycles and fragment counters are credited from the
  per-lane counts, and a batch takes as long as its busiest PE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.hardware.config import GauRastConfig
from repro.hardware.fp import narrow
from repro.hardware.pe import (
    GaussianPixelState,
    TrianglePixelState,
    composite_background,
    gaussian_datapath,
    triangle_datapath,
)
from repro.hardware.units import DatapathUnits, OperationTally


@dataclass
class BlockBatchResult:
    """Timing outcome of one primitive batch processed by the PE block."""

    compute_cycles: int
    fragments_evaluated: int
    fragments_skipped: int


class PEBlock:
    """The array of PEs of one enhanced-rasterizer instance.

    The PEs share one set of functional-unit models (and so one operation
    tally); their activity counters are arrays indexed by PE.
    """

    def __init__(self, config: GauRastConfig, shared_tally: OperationTally | None = None):
        self.config = config
        self.tally = shared_tally or OperationTally()
        self.units = DatapathUnits(config.precision, self.tally)
        num_pes = config.pes_per_instance
        #: Cycles each PE spent computing.
        self.busy_cycles = np.zeros(num_pes, dtype=np.int64)
        #: Fragments each PE evaluated.
        self.fragments_evaluated = np.zeros(num_pes, dtype=np.int64)
        #: Fragments each PE skipped by per-pixel early termination.
        self.fragments_skipped = np.zeros(num_pes, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Pixel ownership
    # ------------------------------------------------------------------ #
    def owner_of_pixels(self, num_pixels: int) -> np.ndarray:
        """Return the PE index owning each of ``num_pixels`` tile pixels."""
        return np.arange(num_pixels) % self.config.pes_per_instance

    def _credit(self, evaluated: np.ndarray, skipped: np.ndarray,
                cycles_per_fragment: int) -> BlockBatchResult:
        """Credit one batch's per-PE fragment counts to the PE counters."""
        busy = evaluated * cycles_per_fragment
        self.busy_cycles += busy
        self.fragments_evaluated += evaluated
        self.fragments_skipped += skipped
        return BlockBatchResult(
            compute_cycles=int(busy.max()),
            fragments_evaluated=int(evaluated.sum()),
            fragments_skipped=int(skipped.sum()),
        )

    # ------------------------------------------------------------------ #
    # Gaussian mode
    # ------------------------------------------------------------------ #
    def process_gaussian_tile(
        self,
        pixel_centers: np.ndarray,
        primitive_batches: Sequence[np.ndarray],
        background=(0.0, 0.0, 0.0),
    ) -> Tuple[np.ndarray, List[BlockBatchResult]]:
        """Rasterize one tile's Gaussian batches.

        Parameters
        ----------
        pixel_centers:
            ``(P, 2)`` pixel centres of the tile.
        primitive_batches:
            Sequence of ``(Gi, 9)`` primitive arrays in front-to-back order,
            already split to the tile-buffer capacity.
        background:
            Background colour composited after the last batch.

        Returns
        -------
        colors:
            ``(P, 3)`` output colours in tile pixel order.
        batch_results:
            Per-batch timing records (compute cycles are the maximum over
            the PEs, since the block finishes a batch when its slowest PE
            does).
        """
        num_pes = self.config.pes_per_instance
        precision = self.config.precision
        lanes = self.owner_of_pixels(len(pixel_centers))
        lane_pixels = np.bincount(lanes, minlength=num_pes)
        pixels = narrow(pixel_centers, precision)
        state = GaussianPixelState.initial(len(pixel_centers), dtype=precision.dtype)

        batch_results: List[BlockBatchResult] = []
        for batch in primitive_batches:
            evaluated, _ = gaussian_datapath(
                self.units, pixels, lanes, num_pes, state, narrow(batch, precision)
            )
            skipped = lane_pixels * len(batch) - evaluated
            batch_results.append(
                self._credit(evaluated, skipped, self.config.gaussian_cycles_per_fragment)
            )
        return composite_background(self.units, state, background), batch_results

    # ------------------------------------------------------------------ #
    # Triangle mode
    # ------------------------------------------------------------------ #
    def process_triangle_tile(
        self,
        pixel_centers: np.ndarray,
        primitive_batches: Sequence[np.ndarray],
        colors: Sequence[np.ndarray],
        uvs: Sequence[np.ndarray],
        background=(0.0, 0.0, 0.0),
    ) -> Tuple[np.ndarray, np.ndarray, List[BlockBatchResult]]:
        """Rasterize one tile's triangle batches.

        ``colors`` and ``uvs`` hold, per batch, the per-triangle vertex
        attributes aligned with ``primitive_batches``.

        Returns the tile colours, depths and per-batch timing records.
        """
        num_pes = self.config.pes_per_instance
        precision = self.config.precision
        lane_pixels = np.bincount(
            self.owner_of_pixels(len(pixel_centers)), minlength=num_pes
        )
        owning_pes = int(np.count_nonzero(lane_pixels))
        pixels = narrow(pixel_centers, precision)
        state = TrianglePixelState.initial(len(pixel_centers), background=background)

        batch_results: List[BlockBatchResult] = []
        for batch, batch_colors, batch_uvs in zip(primitive_batches, colors, uvs):
            with np.errstate(over="ignore"):
                for primitive, tri_colors, tri_uvs in zip(
                    narrow(batch, precision),
                    narrow(batch_colors, precision),
                    narrow(batch_uvs, precision),
                ):
                    triangle_datapath(
                        self.units, pixels, state, primitive, tri_colors, tri_uvs,
                        owning_pes,
                    )
            batch_results.append(
                self._credit(
                    lane_pixels * len(batch),
                    np.zeros(num_pes, dtype=np.int64),
                    self.config.triangle_cycles_per_fragment,
                )
            )
        return state.color, state.depth, batch_results
