"""The dual-mode Processing Element (Fig. 7(c)).

A PE applies one primitive (a Gaussian or a triangle) to the pixels it owns.
It contains three groups of logic:

* **shared logic** — the 9 adders and 9 multipliers already present in the
  triangle rasterizer, reused for both primitive types;
* **triangle-only logic** — the divider used by the barycentric-weight
  computation;
* **Gaussian-only logic** — the 2 adders, 1 multiplier and 1 exponentiation
  unit added by GauRast, plus the input multiplexers that select between the
  two modes.

The implementation here is *functional*: operands enter in the datapath
precision's dtype and every arithmetic step is computed natively in it, so
each result is rounded exactly as the hardware rounds it, and every
operation is tallied in the :class:`~repro.hardware.units.DatapathUnits`.
The triangle datapath calls the units op by op.  The Gaussian datapath
evaluates subtasks 1-2 for a whole primitive batch at once and charges its
tally from :data:`GAUSSIAN_SUBTASK_OPS` times the fragments actually
evaluated and blended.  The datapath is written lane-parallel:
:func:`gaussian_datapath` and :func:`triangle_datapath` apply primitives to
pixels owned by several PEs at once.  :class:`ProcessingElement` makes
their single-lane call (a one-row batch in Gaussian mode), and the PE block
(:mod:`repro.hardware.pe_block`) calls them for a whole tile: once per
batch of Gaussians, once per triangle.  The same code path is exercised by
the cycle-level instance simulator, which is how the paper's "RTL output
matches the software implementation" validation is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.gaussians.rasterize import (
    ALPHA_MAX,
    ALPHA_SKIP_THRESHOLD,
    TRANSMITTANCE_EPSILON,
)
from repro.hardware.config import GauRastConfig
from repro.hardware.fp import Precision, narrow, quantize
from repro.hardware.units import DatapathUnits, OperationTally

#: Hardware resource inventory of one PE, by logic group (unit kind -> count).
#: The shared and triangle-only groups exist in the original triangle
#: rasterizer; only the Gaussian-only group is added by GauRast
#: ("two adders, one multiplier, and one exponentiation unit").
PE_RESOURCES: Dict[str, Dict[str, int]] = {
    "shared": {"add": 9, "mul": 9},
    "triangle_only": {"div": 1},
    "gaussian_only": {"add": 2, "mul": 1, "exp": 1, "mux": 2},
}

#: Per-fragment operation counts of the four rasterization subtasks of
#: Table II, for each primitive type.  These are the operations the
#: functional datapath below actually performs.
GAUSSIAN_SUBTASK_OPS: Dict[str, Dict[str, int]] = {
    "coordinate_shift": {"add": 2},
    "probability": {"mul": 8, "add": 2, "exp": 1},
    "color_weight": {"mul": 4},
    "accumulation": {"add": 4, "mul": 1},
}

TRIANGLE_SUBTASK_OPS: Dict[str, Dict[str, int]] = {
    "coordinate_shift": {"add": 2},
    "intersection": {"mul": 4, "add": 4, "div": 2},
    "uv_weight": {"mul": 9, "add": 6},
    "depth_hold": {"add": 1},
}


def subtask_totals(table: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Sum a subtask table into per-kind totals."""
    totals: Dict[str, int] = {}
    for ops in table.values():
        for kind, count in ops.items():
            totals[kind] = totals.get(kind, 0) + count
    return totals


@dataclass
class OperationCounts:
    """Operation counts accumulated by a PE (thin wrapper over the tally)."""

    tally: OperationTally = field(default_factory=OperationTally)

    def as_dict(self) -> Dict[str, int]:
        """Copy of the per-kind operation counts."""
        return dict(self.tally.counts)

    def total(self) -> int:
        """Total operation count."""
        return self.tally.total()


@dataclass
class GaussianPixelState:
    """Accumulator state of a set of pixels in Gaussian mode.

    The datapath keeps the state in its own dtype; a state of another
    float dtype (the float64 default) is rounded on entry to each datapath
    call and written back exactly.
    """

    color: np.ndarray = field(repr=False)  # (P, 3)
    transmittance: np.ndarray = field(repr=False)  # (P,)

    @classmethod
    def initial(cls, num_pixels: int, dtype=np.float64) -> "GaussianPixelState":
        return cls(
            color=np.zeros((num_pixels, 3), dtype=dtype),
            transmittance=np.ones(num_pixels, dtype=dtype),
        )


@dataclass
class TrianglePixelState:
    """Accumulator state of a set of pixels in triangle mode."""

    color: np.ndarray = field(repr=False)  # (P, 3)
    depth: np.ndarray = field(repr=False)  # (P,)
    uv: np.ndarray = field(repr=False)  # (P, 2)

    @classmethod
    def initial(cls, num_pixels: int, background=(0.0, 0.0, 0.0)) -> "TrianglePixelState":
        color = np.empty((num_pixels, 3), dtype=np.float64)
        color[:] = np.asarray(background, dtype=np.float64)
        return cls(
            color=color,
            depth=np.full(num_pixels, np.inf, dtype=np.float64),
            uv=np.zeros((num_pixels, 2), dtype=np.float64),
        )


#: Per-fragment operations of subtasks 1-2, run on every active fragment,
#: and of subtasks 3-4, run on every active fragment of a blending PE.
_EVALUATE_OPS = subtask_totals(
    {name: GAUSSIAN_SUBTASK_OPS[name] for name in ("coordinate_shift", "probability")}
)
_BLEND_OPS = subtask_totals(
    {name: GAUSSIAN_SUBTASK_OPS[name] for name in ("color_weight", "accumulation")}
)

#: The thresholds as float64 scalars: a Python float compared with a
#: float32 or float16 array is rounded to that dtype first, and
#: ``np.float32(1e-4) >= 1e-4`` would then hold.
_TRANSMITTANCE_EPSILON = np.float64(TRANSMITTANCE_EPSILON)
_ALPHA_SKIP_THRESHOLD = np.float64(ALPHA_SKIP_THRESHOLD)


def gaussian_datapath(
    units: DatapathUnits,
    pixels: np.ndarray,
    lanes: np.ndarray,
    num_lanes: int,
    state: GaussianPixelState,
    primitives: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a batch of Gaussians, in order, to pixels owned by ``num_lanes`` PEs.

    Parameters
    ----------
    units:
        Functional units: their precision sets the dtype every operation
        is computed in, their exponent unit evaluates ``exp``, and the
        operations are charged to their tally.
    pixels:
        ``(P, 2)`` pixel centres, already rounded to the datapath precision
        (they are used in its dtype).
    lanes:
        ``(P,)`` index of the PE owning each pixel, in ``[0, num_lanes)``.
    num_lanes:
        Number of PEs the pixels are spread over.
    state:
        Accumulator state of the ``P`` pixels; updated in place.
    primitives:
        ``(B, 9)`` rasterizer inputs
        ``[conic_a, conic_b, conic_c, opacity, mu_x, mu_y, r, g, b]`` in
        front-to-back order, already rounded to the datapath precision.

    Returns
    -------
    evaluated:
        ``(num_lanes,)`` fragments each PE evaluated over the batch.
    blended:
        ``(num_lanes,)`` fragments on which each PE ran subtasks 3-4.

    Notes
    -----
    Pixels whose transmittance has fallen below the early-termination
    threshold are skipped entirely (no datapath activity); this per-pixel
    termination is an advantage of the PE organisation over the CUDA warp
    execution, where a lane's early exit does not free its slot.  A PE runs
    subtasks 3-4 on all of its active pixels as soon as one of them passes
    the alpha threshold, and only the passing pixels update their state.
    Every step is elementwise, so a pixel's result does not depend on which
    other pixels share the pass.

    Subtasks 1-2 do not read the pixel state, so they run once for the
    whole batch against every pixel as ``(B, P)`` arrays.  Only the active
    mask and subtasks 3-4 stay in the per-primitive loop; the per-lane
    counts are read off the recorded active masks after it.  The
    operations are charged to the tally once per call, as the
    :data:`GAUSSIAN_SUBTASK_OPS` counts times the active (subtasks 1-2) and
    blended (subtasks 3-4) fragments; activity is still decided per
    primitive, so the tally is exact.

    The alpha clamp to ``ALPHA_MAX`` and the thresholds are applied in
    float64, where ``ALPHA_MAX`` is exact: quantized opacities near 0.99
    round up past it in both FP32 and FP16.  A clamped alpha therefore
    enters ``T * alpha`` and ``1 - alpha`` in float64, and each of the two
    results is rounded once.
    """
    dtype = units.precision.dtype
    pixels = pixels.astype(dtype, copy=False)
    primitives = primitives.astype(dtype, copy=False)
    conic_a, conic_b, conic_c, opacity, mu_x, mu_y = (
        primitives[:, column, np.newaxis] for column in range(6)
    )
    rgb = primitives[:, 6:9]
    px = pixels[:, 0]
    py = pixels[:, 1]
    color = state.color.astype(dtype, copy=False)
    transmittance = state.transmittance.astype(dtype, copy=False)

    with np.errstate(over="ignore"):
        # Subtask 1: coordinate shift.
        dx = px - mu_x
        dy = py - mu_y

        # Subtask 2: Gaussian probability computation.
        quad = conic_a * (dx * dx) + conic_c * (dy * dy)
        power = -0.5 * quad - (conic_b * dx) * dy
        alpha = opacity * units.exponent.evaluate(np.minimum(power, 0.0))
        # A positive exponent cannot occur for a valid conic; guard exactly
        # like the reference rasterizer by dropping such fragments.
        alpha = np.where(power > 0.0, 0.0, np.minimum(alpha.astype(np.float64), ALPHA_MAX))
        passes = alpha >= _ALPHA_SKIP_THRESHOLD
        one_minus_alpha = narrow(1.0 - alpha, units.precision)

        active = np.zeros(passes.shape, dtype=bool)
        for row in range(len(primitives)):
            live = transmittance >= _TRANSMITTANCE_EPSILON
            active[row] = live
            update = live & passes[row]
            if not update.any():
                if not live.any():
                    break  # every pixel has terminated
                continue

            # Subtask 3: colour weight computation.
            weight = (transmittance * alpha[row]).astype(dtype)
            # Subtask 4: colour accumulation and transmittance update, kept
            # on the passing pixels.
            color = np.where(
                update[:, np.newaxis], color + weight[:, np.newaxis] * rgb[row], color
            )
            transmittance = np.where(
                update, transmittance * one_minus_alpha[row], transmittance
            )

    state.color[:] = color
    state.transmittance[:] = transmittance

    # Per-lane activity: a PE blends a primitive when one of its active
    # pixels passes the alpha threshold, and then runs subtasks 3-4 on all
    # of its active pixels.
    num_bins = len(primitives) * num_lanes
    bins = np.arange(len(primitives))[:, np.newaxis] * num_lanes + lanes
    lane_active = np.bincount(bins[active], minlength=num_bins)
    blends = np.bincount(bins[active & passes], minlength=num_bins) > 0
    evaluated = lane_active.reshape(-1, num_lanes).sum(axis=0)
    blended = (lane_active * blends).reshape(-1, num_lanes).sum(axis=0)
    num_evaluated = int(evaluated.sum())
    num_blended = int(blended.sum())
    for kind in subtask_totals(GAUSSIAN_SUBTASK_OPS):
        count = (_EVALUATE_OPS.get(kind, 0) * num_evaluated
                 + _BLEND_OPS.get(kind, 0) * num_blended)
        if count:
            units.tally.record(kind, count)
    return evaluated, blended


def composite_background(
    units: DatapathUnits, state: GaussianPixelState, background=(0.0, 0.0, 0.0)
) -> np.ndarray:
    """Composite the background under the remaining transmittance.

    Returns the float64 colours of the pixels.
    """
    dtype = units.precision.dtype
    background = narrow(background, units.precision)
    contribution = units.multiplier.mul(
        state.transmittance.astype(dtype, copy=False)[:, np.newaxis],
        background[np.newaxis, :],
    )
    color = units.adder.add(state.color.astype(dtype, copy=False), contribution)
    return color.astype(np.float64)


def triangle_datapath(
    units: DatapathUnits,
    pixels: np.ndarray,
    state: TrianglePixelState,
    primitive: np.ndarray,
    colors: np.ndarray,
    uvs: np.ndarray,
    num_lanes: int,
) -> None:
    """Apply one screen-space triangle to pixels owned by ``num_lanes`` PEs.

    ``pixels``, ``primitive`` (``[x0, y0, z0, x1, y1, z1, x2, y2, z2]``),
    ``colors`` (``(3, 3)`` per vertex) and ``uvs`` (``(3, 2)`` per vertex)
    are already in the datapath dtype; ``state`` (float64) is updated in
    place.  Overflow to infinity is expected at FP16, so callers evaluate
    under ``np.errstate(over="ignore")``.  Each of the
    ``num_lanes`` PEs performs the per-triangle setup itself, so its
    operations are charged once per PE; the per-fragment subtasks are
    elementwise over all pixels.
    """
    vertices = primitive.reshape(3, 3)
    depths = vertices[:, 2]
    adder = units.adder
    multiplier = units.multiplier
    divider = units.divider

    # Triangle setup (per primitive, not per fragment): edge vectors and
    # signed area, computed by every PE.
    corners = np.broadcast_to(vertices[:, :2], (num_lanes, 3, 2))
    edge1 = adder.sub(corners[:, 1], corners[:, 0])
    edge2 = adder.sub(corners[:, 2], corners[:, 0])
    area = adder.sub(
        multiplier.mul(edge1[:, 0], edge2[:, 1]),
        multiplier.mul(edge1[:, 1], edge2[:, 0]),
    )
    v0, edge1, edge2, area = vertices[0, :2], edge1[0], edge2[0], area[0]
    if abs(float(area)) < 1e-12:
        return

    num_pixels = len(pixels)
    # Subtask 1: coordinate shift.
    dx = adder.sub(pixels[:, 0], v0[0])
    dy = adder.sub(pixels[:, 1], v0[1])

    # Subtask 2: intersection detection (edge functions + division).
    e1 = adder.sub(multiplier.mul(dx, edge2[1]), multiplier.mul(dy, edge2[0]))
    e2 = adder.sub(multiplier.mul(edge1[0], dy), multiplier.mul(edge1[1], dx))
    w1 = divider.div(e1, area)
    w2 = divider.div(e2, area)
    w0 = adder.sub(adder.sub(1.0, w1), w2)
    inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)

    # Subtask 3: UV weight computation (attribute interpolation).
    weights = np.stack([w0, w1, w2], axis=1)
    frag_depth = adder.add(
        adder.add(
            multiplier.mul(weights[:, 0], depths[0]),
            multiplier.mul(weights[:, 1], depths[1]),
        ),
        multiplier.mul(weights[:, 2], depths[2]),
    )
    # Attribute interpolation is a dot product; a native matmul may round
    # its partial sums differently, so it runs in float64 and rounds once.
    weights = weights.astype(np.float64)
    frag_uv = quantize(weights @ uvs.astype(np.float64), units.precision)
    frag_color = quantize(weights @ colors.astype(np.float64), units.precision)
    units.tally.record("mul", 6 * num_pixels)  # uv interpolation
    units.tally.record("add", 4 * num_pixels)
    units.tally.record("mul", 9 * num_pixels)  # colour interpolation
    units.tally.record("add", 6 * num_pixels)

    # Subtask 4: min-depth colour hold.
    visible = inside & (frag_depth < state.depth) & (frag_depth > 0.0)
    units.tally.record("add", num_pixels)  # depth comparison
    if np.any(visible):
        state.depth[visible] = frag_depth[visible]
        state.color[visible] = frag_color[visible]
        state.uv[visible] = frag_uv[visible]


class ProcessingElement:
    """One GauRast Processing Element.

    Parameters
    ----------
    config:
        Hardware configuration (precision and timing parameters).
    tally:
        Optional shared operation tally; by default each PE keeps its own.
    """

    def __init__(self, config: GauRastConfig, tally: OperationTally | None = None):
        self.config = config
        self.units = DatapathUnits(config.precision, tally or OperationTally())
        self.fragments_evaluated = 0
        self.fragments_skipped = 0
        self.busy_cycles = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def precision(self) -> Precision:
        """Datapath precision."""
        return self.config.precision

    @property
    def operation_counts(self) -> OperationCounts:
        """Operations performed so far."""
        return OperationCounts(tally=self.units.tally)

    def reset_counters(self) -> None:
        """Clear operation, fragment and cycle counters."""
        self.units.reset()
        self.fragments_evaluated = 0
        self.fragments_skipped = 0
        self.busy_cycles = 0

    # ------------------------------------------------------------------ #
    # Gaussian mode
    # ------------------------------------------------------------------ #
    def apply_gaussian(
        self,
        pixel_centers: np.ndarray,
        state: GaussianPixelState,
        primitive: np.ndarray,
    ) -> GaussianPixelState:
        """Apply one Gaussian primitive to this PE's pixels.

        The single-lane call of :func:`gaussian_datapath`, with a one-row
        batch.

        Parameters
        ----------
        pixel_centers:
            ``(P, 2)`` coordinates of the pixels owned by this PE.
        state:
            Current accumulator state; updated in place and returned.
        primitive:
            The 9 rasterizer inputs
            ``[conic_a, conic_b, conic_c, opacity, mu_x, mu_y, r, g, b]``.
        """
        evaluated, _ = gaussian_datapath(
            self.units,
            narrow(pixel_centers, self.precision),
            np.zeros(len(pixel_centers), dtype=np.intp),
            1,
            state,
            narrow(primitive, self.precision).reshape(1, -1),
        )
        num_active = int(evaluated[0])
        self.fragments_skipped += len(pixel_centers) - num_active
        self.fragments_evaluated += num_active
        self.busy_cycles += num_active * self.config.gaussian_cycles_per_fragment
        return state

    def finalize_gaussian(
        self, state: GaussianPixelState, background=(0.0, 0.0, 0.0)
    ) -> np.ndarray:
        """Composite the background under the remaining transmittance."""
        return composite_background(self.units, state, background)

    # ------------------------------------------------------------------ #
    # Triangle mode
    # ------------------------------------------------------------------ #
    def apply_triangle(
        self,
        pixel_centers: np.ndarray,
        state: TrianglePixelState,
        primitive: np.ndarray,
        colors: np.ndarray,
        uvs: np.ndarray,
    ) -> TrianglePixelState:
        """Apply one screen-space triangle to this PE's pixels.

        The single-lane call of :func:`triangle_datapath`.

        Parameters
        ----------
        pixel_centers:
            ``(P, 2)`` pixel centres owned by this PE.
        state:
            Z-buffered accumulator state, updated in place and returned.
        primitive:
            The 9 rasterizer inputs ``[x0, y0, z0, x1, y1, z1, x2, y2, z2]``.
        colors:
            ``(3, 3)`` per-vertex colours.
        uvs:
            ``(3, 2)`` per-vertex texture coordinates.
        """
        num_pixels = len(pixel_centers)
        self.fragments_evaluated += num_pixels
        self.busy_cycles += num_pixels * self.config.triangle_cycles_per_fragment
        with np.errstate(over="ignore"):
            triangle_datapath(
                self.units,
                narrow(pixel_centers, self.precision),
                state,
                narrow(primitive, self.precision),
                narrow(colors, self.precision),
                narrow(uvs, self.precision),
                num_lanes=1,
            )
        return state
