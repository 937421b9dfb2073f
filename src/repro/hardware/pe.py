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

The implementation here is *functional*: every arithmetic step goes through
the :class:`~repro.hardware.units.DatapathUnits` so the result is rounded to
the datapath precision and the operation is tallied.  The datapath is
written lane-parallel: :func:`gaussian_datapath` and
:func:`triangle_datapath` apply one primitive to pixels owned by several PEs
at once.  :class:`ProcessingElement` makes their single-lane call, and the
PE block (:mod:`repro.hardware.pe_block`) calls them once per primitive for
a whole tile.  The same code path is exercised by the cycle-level instance
simulator, which is how the paper's "RTL output matches the software
implementation" validation is reproduced.
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
from repro.hardware.fp import Precision, quantize
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
    """Accumulator state of a set of pixels in Gaussian mode."""

    color: np.ndarray = field(repr=False)  # (P, 3)
    transmittance: np.ndarray = field(repr=False)  # (P,)

    @classmethod
    def initial(cls, num_pixels: int) -> "GaussianPixelState":
        return cls(
            color=np.zeros((num_pixels, 3), dtype=np.float64),
            transmittance=np.ones(num_pixels, dtype=np.float64),
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


def gaussian_datapath(
    units: DatapathUnits,
    pixels: np.ndarray,
    lanes: np.ndarray,
    num_lanes: int,
    state: GaussianPixelState,
    primitive: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply one Gaussian to pixels owned by ``num_lanes`` PEs in one pass.

    Parameters
    ----------
    units:
        Functional units; every operation is rounded to their precision and
        tallied in their tally.
    pixels:
        ``(P, 2)`` pixel centres, already quantized to the datapath precision.
    lanes:
        ``(P,)`` index of the PE owning each pixel, in ``[0, num_lanes)``.
    num_lanes:
        Number of PEs the pixels are spread over.
    state:
        Accumulator state of the ``P`` pixels; updated in place.
    primitive:
        The 9 rasterizer inputs
        ``[conic_a, conic_b, conic_c, opacity, mu_x, mu_y, r, g, b]``,
        already quantized.

    Returns
    -------
    evaluated:
        ``(num_lanes,)`` fragments each PE evaluated.
    blended:
        ``(num_lanes,)`` whether each PE ran subtasks 3-4.

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
    """
    conic_a, conic_b, conic_c, opacity, mu_x, mu_y = primitive[:6]
    color = primitive[6:9]

    active = np.flatnonzero(state.transmittance >= TRANSMITTANCE_EPSILON)
    active_lanes = lanes[active]
    evaluated = np.bincount(active_lanes, minlength=num_lanes)
    blended = np.zeros(num_lanes, dtype=bool)
    if len(active) == 0:
        return evaluated, blended

    pixels = pixels[active]
    adder = units.adder
    multiplier = units.multiplier
    exponent = units.exponent

    # Subtask 1: coordinate shift.
    dx = adder.sub(pixels[:, 0], mu_x)
    dy = adder.sub(pixels[:, 1], mu_y)

    # Subtask 2: Gaussian probability computation.
    dx2 = multiplier.mul(dx, dx)
    dy2 = multiplier.mul(dy, dy)
    a_dx2 = multiplier.mul(conic_a, dx2)
    c_dy2 = multiplier.mul(conic_c, dy2)
    quad = adder.add(a_dx2, c_dy2)
    half_quad = multiplier.mul(-0.5, quad)
    b_dx = multiplier.mul(conic_b, dx)
    b_dxdy = multiplier.mul(b_dx, dy)
    power = adder.sub(half_quad, b_dxdy)
    exp_power = exponent.exp(np.minimum(power, 0.0))
    alpha = multiplier.mul(opacity, exp_power)
    # A positive exponent cannot occur for a valid conic; guard exactly like
    # the reference rasterizer by dropping such fragments.
    alpha = np.where(power > 0.0, 0.0, np.minimum(alpha, ALPHA_MAX))

    contributes = alpha >= ALPHA_SKIP_THRESHOLD
    if not np.any(contributes):
        return evaluated, blended
    blended[active_lanes[contributes]] = True
    runs = blended[active_lanes]
    indices = active[runs]
    alpha = alpha[runs]
    transmittance = state.transmittance[indices]

    # Subtask 3: colour weight computation.
    weight = multiplier.mul(transmittance, alpha)
    weighted_color = multiplier.mul(weight[:, np.newaxis], color[np.newaxis, :])

    # Subtask 4: colour accumulation and transmittance update.
    new_color = adder.add(state.color[indices], weighted_color)
    one_minus_alpha = adder.sub(1.0, alpha)
    new_transmittance = multiplier.mul(transmittance, one_minus_alpha)

    update = contributes[runs]
    state.color[indices[update]] = new_color[update]
    state.transmittance[indices[update]] = new_transmittance[update]
    return evaluated, blended


def composite_background(
    units: DatapathUnits, state: GaussianPixelState, background=(0.0, 0.0, 0.0)
) -> np.ndarray:
    """Composite the background under the remaining transmittance."""
    background = quantize(np.asarray(background, dtype=np.float64), units.precision)
    contribution = units.multiplier.mul(
        state.transmittance[:, np.newaxis], background[np.newaxis, :]
    )
    return units.adder.add(state.color, contribution)


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
    are already quantized; ``state`` is updated in place.  Each of the
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
    frag_uv = quantize(weights @ uvs, units.precision)
    frag_color = quantize(weights @ colors, units.precision)
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

        The single-lane call of :func:`gaussian_datapath`.

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
            quantize(pixel_centers, self.precision),
            np.zeros(len(pixel_centers), dtype=np.intp),
            1,
            state,
            quantize(primitive, self.precision),
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
        triangle_datapath(
            self.units,
            quantize(pixel_centers, self.precision),
            state,
            quantize(primitive, self.precision),
            quantize(colors, self.precision),
            quantize(uvs, self.precision),
            num_lanes=1,
        )
        return state
