"""Gaussian rasterization stage: front-to-back alpha compositing per tile.

This is Step 3 of the 3DGS pipeline (Fig. 3(d)/(e)) and the operator the
GauRast hardware accelerates.  For every pixel ``P`` of a tile and every
Gaussian ``i`` in the tile's depth-sorted list, the stage evaluates the
Gaussian density

    alpha_{P,i} = o_i * exp(-0.5 * (P - mu_i)^T Sigma_i^{-1} (P - mu_i))

and accumulates the colour

    C_P = sum_i T_{P,i} * alpha_{P,i} * c_i,
    T_{P,i} = prod_{j<i} (1 - alpha_{P,j})

following the exact clamping and early-termination rules of the reference
CUDA rasterizer so the output can be compared bit-for-bit (in FP64) against
the hardware datapath model.

The product path is :func:`rasterize_tiles`, which runs the chunked engine
:func:`rasterize_tile_vectorized` on every tile: it first culls the tile's
Gaussians whose alpha bound over the tile (:func:`alpha_upper_bound`) is
below ``1/255``, then evaluates blocks of the rest against all tile pixels
at once and folds them with sequential ``cumprod``/``add.reduce`` passes,
amortising the NumPy dispatch overhead over whole blocks.

Two oracles sit at the end of the module and serve only tests:
:func:`rasterize_tile`, the original per-Gaussian Python loop, and
:func:`rasterize_reference`, an untiled all-pairs loop.  Contract 1 is
"product == :func:`rasterize_tile` oracle": bit-identical FP64 images and
identical :class:`RasterStats` (``tests/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.sorting import TileBinning
from repro.gaussians.tiles import TileGrid

#: Contributions with alpha below this threshold are skipped, matching the
#: ``1/255`` cut-off of the reference implementation.
ALPHA_SKIP_THRESHOLD = 1.0 / 255.0

#: Alpha values are clamped to this maximum to keep the transmittance
#: strictly positive.
ALPHA_MAX = 0.99

#: A pixel stops accumulating once its transmittance falls below this value
#: (early termination).
TRANSMITTANCE_EPSILON = 1e-4

#: Number of Gaussians the vectorized engine evaluates per block.  Between
#: blocks the engine re-checks the whole-tile early-termination condition,
#: so the block size bounds how much work can be wasted past the point where
#: every pixel has saturated.
DEFAULT_CHUNK_SIZE = 64


@dataclass
class RasterStats:
    """Workload counters collected while rasterizing a frame.

    These statistics feed the performance and energy models: the number of
    Gaussian-pixel pairs *evaluated* is the work both the CUDA baseline and
    GauRast must perform, while the number of pairs that actually *blend*
    measures how much of that work contributes to the image.
    """

    fragments_evaluated: int = 0
    fragments_blended: int = 0
    tiles_processed: int = 0
    per_tile_gaussians: Dict[int, int] = field(default_factory=dict)
    #: ``(tiles_x, tiles_y)`` of the grid the per-tile counters refer to
    #: (set by :func:`rasterize_tiles`); ``None`` for hand-built stats and
    #: for the non-tiled reference path.
    grid_shape: Optional[Tuple[int, int]] = None

    @property
    def blend_fraction(self) -> float:
        """Fraction of evaluated fragments that passed the alpha threshold."""
        if self.fragments_evaluated == 0:
            return 0.0
        return self.fragments_blended / self.fragments_evaluated

    @classmethod
    def merged(cls, stats: Iterable["RasterStats"]) -> "RasterStats":
        """Aggregate counters over several frames (e.g. a camera batch).

        When every input refers to the same tile grid (or none declares
        one), ``per_tile_gaussians`` is summed per tile id, so for a
        multi-camera batch over one grid it reports the total work each
        tile received.  Across *different* grids a raw tile id means a
        different screen region per camera, so summing by id would
        silently conflate unrelated tiles; instead the merged counters are
        namespaced by grid — keys become ``(tiles_x, tiles_y, tile_id)``
        and the result's ``grid_shape`` is ``None``.  Mixing a known grid
        with per-tile counters of an *unknown* grid cannot be namespaced
        and raises ``ValueError``.
        """
        items = list(stats)
        shapes = {
            item.grid_shape for item in items if item.per_tile_gaussians
        }
        mixed = len(shapes) > 1
        if mixed and None in shapes:
            raise ValueError(
                "cannot merge per-tile counters across different tile "
                "grids when some stats do not declare their grid_shape"
            )
        total = cls()
        if not mixed and shapes:
            (total.grid_shape,) = shapes
        for item in items:
            total.fragments_evaluated += item.fragments_evaluated
            total.fragments_blended += item.fragments_blended
            total.tiles_processed += item.tiles_processed
            for tile_id, count in item.per_tile_gaussians.items():
                key = (
                    item.grid_shape + (tile_id,) if mixed else tile_id
                )
                total.per_tile_gaussians[key] = (
                    total.per_tile_gaussians.get(key, 0) + count
                )
        return total


def gaussian_alpha(
    pixel_centers: np.ndarray,
    mean: np.ndarray,
    conic: np.ndarray,
    opacity: float,
) -> np.ndarray:
    """Evaluate the clamped Gaussian density of one splat at many pixels.

    Parameters
    ----------
    pixel_centers:
        ``(P, 2)`` pixel-centre coordinates.
    mean:
        ``(2,)`` screen-space Gaussian centre.
    conic:
        ``(3,)`` packed inverse covariance ``(a, b, c)``.
    opacity:
        Scalar opacity ``o``.

    Returns
    -------
    ``(P,)`` alpha values, clamped to ``ALPHA_MAX`` and zeroed where the
    exponent would be positive (numerically impossible for a valid conic but
    guarded exactly like the reference implementation).
    """
    delta = pixel_centers - mean
    a, b, c = conic
    power = -0.5 * (a * delta[:, 0] ** 2 + c * delta[:, 1] ** 2) - b * delta[:, 0] * delta[:, 1]
    alpha = np.where(power > 0.0, 0.0, opacity * np.exp(power))
    return np.minimum(alpha, ALPHA_MAX)


def gaussian_alpha_block(
    pixel_centers: np.ndarray,
    means: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
) -> np.ndarray:
    """Evaluate the clamped densities of a block of splats at many pixels.

    Vectorized counterpart of :func:`gaussian_alpha`: row ``i`` of the result
    is bit-identical to ``gaussian_alpha(pixel_centers, means[i], conics[i],
    opacities[i])`` because every element goes through the same sequence of
    FP64 operations, merely batched.

    Parameters
    ----------
    pixel_centers:
        ``(P, 2)`` pixel-centre coordinates.
    means:
        ``(B, 2)`` screen-space Gaussian centres.
    conics:
        ``(B, 3)`` packed inverse covariances ``(a, b, c)``.
    opacities:
        ``(B,)`` opacities.

    Returns
    -------
    ``(B, P)`` alpha matrix, clamped like :func:`gaussian_alpha`.
    """
    # Keep dx/dy contiguous (B, P) arrays rather than slicing a (B, P, 2)
    # delta tensor: the arithmetic below then runs on unit-stride memory.
    dx = pixel_centers[:, 0] - means[:, 0][:, np.newaxis]
    dy = pixel_centers[:, 1] - means[:, 1][:, np.newaxis]
    a = conics[:, 0][:, np.newaxis]
    b = conics[:, 1][:, np.newaxis]
    c = conics[:, 2][:, np.newaxis]
    power = -0.5 * (a * dx ** 2 + c * dy ** 2) - b * dx * dy
    alpha = np.where(power > 0.0, 0.0, opacities[:, np.newaxis] * np.exp(power))
    return np.minimum(alpha, ALPHA_MAX)


#: FP64 unit roundoff: every correctly rounded operation has relative
#: error at most this.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

#: Roundings behind the relative margin on the box minimum ``qmin``, per
#: unit of the conic's conditioning ``kappa = 4ac / (ac - b^2)``.  Write
#: the quadratic form as ``q = A + C + 2B`` with ``A = a dx^2``,
#: ``C = c dy^2`` and ``B = b dx dy``.  For a positive-definite conic
#: ``|2B| <= rho (A + C)`` with ``rho = |b| / sqrt(ac)``, so
#: ``A + C + 2|B| <= q (1 + rho) / (1 - rho) <= kappa q``.  Every rounding
#: below perturbs one of ``A``, ``C``, ``B`` (or their sum) relatively, so
#: its error is a ``gamma`` multiple of ``kappa q``:
#:
#: * 4 — the pixel's power ``-0.5 * (a * dx ** 2 + c * dy ** 2) - b * dx *
#:   dy`` (two roundings per term, one for the inner sum, one for the final
#:   subtraction; the ``-0.5`` scaling is exact);
#: * 4 — the same count for evaluating ``q`` at an edge minimiser;
#: * 1 — the rounded edge minimiser lies off the exact one by ``gamma_2``
#:   relative, which raises ``q`` by at most ``gamma_2^2 kappa q``;
#: * 2 — forming ``qmin * (1 - margin)``;
#: * 1 — computing ``kappa`` itself.
#:
#: ``n`` roundings give Higham's ``gamma_n = n u / (1 - n u)``.  The pixel
#: deltas themselves carry no error term: rounding is monotone, so each
#: pixel's computed ``(dx, dy)`` lies inside the box spanned by the computed
#: deltas of the extreme pixel centres, which is the box minimised over.
_QMIN_MARGIN_ROUNDINGS = 12
_QMIN_MARGIN = (
    _QMIN_MARGIN_ROUNDINGS * _UNIT_ROUNDOFF
    / (1.0 - _QMIN_MARGIN_ROUNDINGS * _UNIT_ROUNDOFF)
)

#: Relative slack on the final bound ``opacity * exp(-qmin / 2)``.  NumPy
#: documents its float64 ``exp`` to within 4 ulp (8 unit roundoffs); the
#: pixel's ``opacity * exp(power)`` and the bound each take one such ``exp``
#: plus one rounded product, and the slack product one more rounding:
#: ``(1 + 8u)(1 + u) <= (1 - 8u)(1 - u)^2 (1 + s)`` holds for ``s >= 19u``;
#: ``32u`` is the next power of two.
_BOUND_SLACK = 1.0 + 32 * _UNIT_ROUNDOFF


def alpha_upper_bound(
    pixel_centers: np.ndarray,
    means: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
) -> np.ndarray:
    """Upper-bound each splat's alpha over the pixels' bounding box.

    For splat ``i`` the bound is ``opacities[i] * exp(-0.5 * qmin)``, where
    ``qmin`` is the minimum of the conic's quadratic form over the box
    spanned by ``pixel_centers``: 0 if the mean lies inside the box,
    otherwise the smallest of the four edges' minima (each a 1-D quadratic
    minimised in closed form and clipped to the edge).  ``qmin`` is shrunk
    by a margin derived from FP64 rounding (see ``_QMIN_MARGIN_ROUNDINGS``),
    so the bound holds for the alpha :func:`gaussian_alpha` and
    :func:`gaussian_alpha_block` actually *compute*: whenever the bound is
    below ``ALPHA_SKIP_THRESHOLD`` no pixel of the box passes the
    threshold.

    A splat whose mean, conic or opacity is not finite, or whose conic is
    not provably strictly positive definite, gets the bound ``+inf`` (it
    is always kept).

    Parameters
    ----------
    pixel_centers:
        ``(P, 2)`` pixel-centre coordinates, ``P >= 1``.
    means, conics, opacities:
        ``(B, 2)``, ``(B, 3)`` and ``(B,)`` splat parameters.

    Returns
    -------
    ``(B,)`` alpha upper bounds.
    """
    a, b, c = conics[:, 0], conics[:, 1], conics[:, 2]
    with np.errstate(all="ignore"):
        # The same subtraction the alpha kernels perform, at the extreme
        # pixel centres: the box of every pixel's computed delta.
        dx_lo = pixel_centers[:, 0].min() - means[:, 0]
        dx_hi = pixel_centers[:, 0].max() - means[:, 0]
        dy_lo = pixel_centers[:, 1].min() - means[:, 1]
        dy_hi = pixel_centers[:, 1].max() - means[:, 1]

        # Positive definiteness with room for the rounding of a*c - b*b
        # (its error is below 4.01 u * ac).
        ac = a * c
        det_lo = (ac - b * b) - 8 * _UNIT_ROUNDOFF * ac
        valid = (
            np.isfinite(conics).all(axis=1)
            & np.isfinite(means).all(axis=1)
            & np.isfinite(opacities)
            & (a > 0.0)
            & (c > 0.0)
            & (det_lo > 0.0)
        )

        # Vertical edges (dx fixed): q is minimised at dy = -b dx / c;
        # horizontal edges (dy fixed): at dx = -b dy / a.
        edge_dx = np.stack([dx_lo, dx_hi])
        edge_dy = np.stack([dy_lo, dy_hi])
        dx = np.concatenate([edge_dx, np.clip(-(b * edge_dy) / a, dx_lo, dx_hi)])
        dy = np.concatenate([np.clip(-(b * edge_dx) / c, dy_lo, dy_hi), edge_dy])
        q = (a * dx ** 2 + c * dy ** 2) + 2.0 * (b * dx * dy)
        qmin = q.min(axis=0)
        inside = (dx_lo <= 0.0) & (dx_hi >= 0.0) & (dy_lo <= 0.0) & (dy_hi >= 0.0)
        qmin[inside] = 0.0

        margin = _QMIN_MARGIN * (4.0 * ac / det_lo)
        qsafe = np.maximum(qmin * (1.0 - margin), 0.0)
        bound = opacities * np.exp(-0.5 * qsafe) * _BOUND_SLACK
    bound[~valid | np.isnan(bound)] = np.inf
    return bound


def rasterize_tile_vectorized(
    projected: ProjectedGaussians,
    gaussian_indices: np.ndarray,
    pixel_centers: np.ndarray,
    background: np.ndarray,
    stats: Optional[RasterStats] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Rasterize one tile with the chunked vectorized engine.

    Produces output and statistics **bit-identical** to
    :func:`rasterize_tile` while replacing the per-Gaussian Python loop with
    block-level NumPy passes.  Four observations make exact equivalence
    possible:

    * the alpha matrix of a block is elementwise, so batching it changes
      nothing (:func:`gaussian_alpha_block`);
    * the per-pixel transmittance recurrence is a left-to-right product of
      ``(1 - alpha)`` factors (``1.0`` where the alpha threshold skips the
      update), and ``np.cumprod`` along an axis performs exactly that
      sequential fold.  Seeding the fold with the entry transmittance keeps
      the association identical to the scalar loop.  Because transmittance
      is non-increasing, the ``T >= epsilon`` activity test computed from
      the unfrozen cumulative product agrees with the scalar path, and the
      frozen exit value is recovered as the product at the first
      sub-epsilon step;
    * colour accumulation is a left-to-right sum of ``T * alpha * colour``
      terms, and ``np.add.reduce`` along the leading axis performs the same
      sequential fold (terms with zero weight are exact no-ops, matching
      the scalar loop's skip of non-contributing Gaussians);
    * culled rows are exact no-ops.  Before chunking, every row whose
      :func:`alpha_upper_bound` over the tile's pixel box is below
      ``ALPHA_SKIP_THRESHOLD`` is dropped: at no pixel can it pass the
      threshold, so in the scalar loop it multiplies transmittance by
      exactly 1.0 and adds exactly 0.  Its only trace is its
      ``fragments_evaluated`` share, the count of pixels still active when
      it is reached, which is the trail row after the last kept Gaussian
      before it (every pixel before the first kept row).

    Between blocks the engine narrows the pixel set to the columns whose
    transmittance is still above epsilon: terminated pixels can never
    contribute again (transmittance is non-increasing and frozen), so
    dropping their columns is exact and recovers the per-pixel
    early-termination savings of the scalar loop at block granularity.
    Extra in-block evaluations past the scalar loop's break point contribute
    zero to both the image and the counters.
    """
    num_pixels = len(pixel_centers)
    # Colour is kept channel-major, (3, P), so the block fold below
    # multiplies and sums unit-stride pixel rows.
    color = np.zeros((3, num_pixels), dtype=np.float64)
    transmittance = np.ones(num_pixels, dtype=np.float64)
    background = np.asarray(background)
    gaussian_indices = np.asarray(gaussian_indices, dtype=np.int64)
    num_gaussians = len(gaussian_indices)

    if num_gaussians == 0 or num_pixels == 0:
        color += background[:, np.newaxis] * transmittance
        if stats is not None:
            stats.tiles_processed += 1
        return np.ascontiguousarray(color.T)

    # Gather the tile's Gaussian parameters once, then keep only the rows
    # whose alpha bound over the tile reaches the threshold; chunks below
    # take views of the kept rows.
    means = projected.means[gaussian_indices]
    conics = projected.cov_inverses[gaussian_indices]
    opacities = projected.opacities[gaussian_indices]
    kept = np.flatnonzero(
        alpha_upper_bound(pixel_centers, means, conics, opacities)
        >= ALPHA_SKIP_THRESHOLD
    )
    # Culled rows before the first kept row see every pixel active; those
    # after kept row j see the pixels active after it (gap_after[j] rows).
    evaluated = (int(kept[0]) if len(kept) else num_gaussians) * num_pixels
    gap_after = np.diff(kept, append=num_gaussians) - 1
    means = means[kept]
    conics = conics[kept]
    opacities = opacities[kept]
    colors = projected.colors[gaussian_indices[kept]]
    num_kept = len(kept)

    # Columns (pixels) still accumulating; whole arrays while all are live.
    live = np.arange(num_pixels)
    live_pixels = pixel_centers
    live_transmittance = transmittance
    live_color = color

    blended = 0
    for start in range(0, num_kept, chunk_size):
        still_live = live_transmittance >= TRANSMITTANCE_EPSILON
        num_live = int(np.count_nonzero(still_live))
        if num_live == 0:
            break
        if num_live < len(live):
            # Freeze the dropped columns' state before narrowing.
            transmittance[live] = live_transmittance
            color[:, live] = live_color
            live = live[still_live]
            live_pixels = pixel_centers[live]
            live_transmittance = live_transmittance[still_live]
            live_color = live_color[:, still_live]

        stop = min(start + chunk_size, num_kept)
        block_size = stop - start

        alpha = gaussian_alpha_block(
            live_pixels,
            means[start:stop],
            conics[start:stop],
            opacities[start:stop],
        )
        passes = alpha >= ALPHA_SKIP_THRESHOLD

        # Transmittance before each Gaussian of the block: sequential
        # cumulative product seeded with the entry transmittance (row 0).
        trail = np.empty((block_size + 1, num_live), dtype=np.float64)
        trail[0] = live_transmittance
        trail[1:] = np.where(passes, 1.0 - alpha, 1.0)
        np.cumprod(trail, axis=0, out=trail)
        before = trail[:-1]

        # Row i + 1 of the activity mask is also the activity every culled
        # row between kept rows i and i + 1 sees.
        trail_active = trail >= TRANSMITTANCE_EPSILON
        active_counts = np.count_nonzero(trail_active, axis=1)
        active = trail_active[:-1]
        contributes = np.logical_and(active, passes)
        evaluated += int(active_counts[:-1].sum())
        evaluated += int(active_counts[1:] @ gap_after[start:stop])
        blended += int(np.count_nonzero(contributes))

        # Sequential colour fold seeded with the entry colour (row 0).
        # Rows whose weights are all exactly zero add nothing (the scalar
        # loop skips them outright), so only contributing rows are folded.
        weight = np.multiply(before, alpha, out=alpha)
        weight *= contributes
        rows = np.nonzero(contributes.any(axis=1))[0]
        if len(rows):
            terms = np.empty((len(rows) + 1, 3, num_live), dtype=np.float64)
            terms[0] = live_color
            np.multiply(
                weight[rows, np.newaxis, :],
                colors[start:stop][rows][:, :, np.newaxis],
                out=terms[1:],
            )
            live_color = np.add.reduce(terms, axis=0)

        # Exit transmittance: the cumulative product freezes at the first
        # sub-epsilon step (early-terminated pixels stop updating).  The
        # product is non-increasing down each column, so only columns whose
        # final value fell below epsilon need the search.
        last = trail[-1]
        cols = np.nonzero(~trail_active[-1])[0]
        if len(cols):
            first_below = trail_active[:, cols].argmin(axis=0)
            last[cols] = trail[first_below, cols]
        live_transmittance = last

    transmittance[live] = live_transmittance
    color[:, live] = live_color
    color += background[:, np.newaxis] * transmittance
    if stats is not None:
        stats.fragments_evaluated += evaluated
        stats.fragments_blended += blended
        stats.tiles_processed += 1
    return np.ascontiguousarray(color.T)


def rasterize_tiles(
    projected: ProjectedGaussians,
    binning: TileBinning,
    background=(0.0, 0.0, 0.0),
    collect_stats: bool = True,
) -> tuple[np.ndarray, RasterStats]:
    """Rasterize a full frame tile by tile with the vectorized engine.

    Returns
    -------
    image:
        ``(height, width, 3)`` RGB image.
    stats:
        Workload counters (empty if ``collect_stats`` is ``False``).
    """
    grid = binning.grid
    background = np.asarray(background, dtype=np.float64).reshape(3)
    image = np.zeros((grid.height, grid.width, 3), dtype=np.float64)
    stats = RasterStats(grid_shape=(grid.tiles_x, grid.tiles_y))

    # Pixels in tiles with no Gaussians still receive the background colour.
    image[:, :] = background

    for tile_id, gaussian_indices in binning.tile_lists.items():
        x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
        pixel_centers = grid.tile_pixel_centers(tile_id)
        tile_stats = stats if collect_stats else None
        tile_color = rasterize_tile_vectorized(
            projected, gaussian_indices, pixel_centers, background, tile_stats
        )
        image[y0:y1, x0:x1] = tile_color.reshape(y1 - y0, x1 - x0, 3)
        if collect_stats:
            stats.per_tile_gaussians[tile_id] = len(gaussian_indices)
    return image, stats


def rasterize_tile(
    projected: ProjectedGaussians,
    gaussian_indices: np.ndarray,
    pixel_centers: np.ndarray,
    background: np.ndarray,
    stats: Optional[RasterStats] = None,
) -> np.ndarray:
    """Rasterize one tile with the per-Gaussian loop: the contract-1 oracle.

    This is the readable golden model of the block engine.  Tests compare
    :func:`rasterize_tile_vectorized` (and, frame by frame, a tile loop over
    this function against :func:`rasterize_tiles`) for bit-identical colours
    and identical counters; no product path calls it.

    Parameters
    ----------
    projected:
        All projected Gaussians of the frame.
    gaussian_indices:
        Depth-sorted indices of the Gaussians assigned to this tile.
    pixel_centers:
        ``(P, 2)`` pixel-centre coordinates of the tile.
    background:
        ``(3,)`` background colour blended under the remaining transmittance.
    stats:
        Optional workload counter updated in place.

    Returns
    -------
    ``(P, 3)`` RGB colours for the tile's pixels.
    """
    num_pixels = len(pixel_centers)
    color = np.zeros((num_pixels, 3), dtype=np.float64)
    transmittance = np.ones(num_pixels, dtype=np.float64)

    blended = 0
    evaluated = 0
    for index in gaussian_indices:
        active = transmittance >= TRANSMITTANCE_EPSILON
        if not np.any(active):
            break
        evaluated += int(active.sum())

        alpha = gaussian_alpha(
            pixel_centers,
            projected.means[index],
            projected.cov_inverses[index],
            projected.opacities[index],
        )
        contributes = active & (alpha >= ALPHA_SKIP_THRESHOLD)
        if np.any(contributes):
            weight = transmittance * alpha * contributes
            color += weight[:, np.newaxis] * projected.colors[index]
            transmittance = np.where(
                contributes, transmittance * (1.0 - alpha), transmittance
            )
            blended += int(contributes.sum())

    color += transmittance[:, np.newaxis] * background
    if stats is not None:
        stats.fragments_evaluated += evaluated
        stats.fragments_blended += blended
        stats.tiles_processed += 1
    return color


def rasterize_reference(
    projected: ProjectedGaussians,
    grid: TileGrid,
    background=(0.0, 0.0, 0.0),
    stats: Optional[RasterStats] = None,
) -> np.ndarray:
    """Rasterize without tiling, evaluating every Gaussian at every pixel.

    This is an intentionally simple O(pixels x Gaussians) implementation used
    only in tests to validate that tile binning does not change the image
    (beyond the conservative-radius cut-off).

    When ``stats`` is given, ``fragments_evaluated`` counts the Gaussian-pixel
    pairs whose pixel had not yet early-terminated (mirroring the per-pixel
    activity gate of the tiled path) and ``fragments_blended`` counts the
    pairs that passed the alpha threshold, so workload counters can be
    compared against :func:`rasterize_tiles`.  ``tiles_processed`` and
    ``per_tile_gaussians`` are left untouched: this path has no tiling, so
    tile-level counters are meaningless here.  Note that, unlike the tiled
    path, every Gaussian is considered at every pixel — there is no
    conservative-radius cut-off and no whole-tile break — so evaluated
    counts are an upper bound on (not a copy of) the tiled workload.
    """
    background = np.asarray(background, dtype=np.float64).reshape(3)
    pixels = grid.pixel_centers.reshape(-1, 2)

    order = np.argsort(projected.depths, kind="stable")
    color = np.zeros((len(pixels), 3), dtype=np.float64)
    transmittance = np.ones(len(pixels), dtype=np.float64)
    evaluated = 0
    blended = 0
    for index in order:
        alpha = gaussian_alpha(
            pixels,
            projected.means[index],
            projected.cov_inverses[index],
            projected.opacities[index],
        )
        active = transmittance >= TRANSMITTANCE_EPSILON
        contributes = active & (alpha >= ALPHA_SKIP_THRESHOLD)
        evaluated += int(active.sum())
        blended += int(contributes.sum())
        weight = transmittance * alpha * contributes
        color += weight[:, np.newaxis] * projected.colors[index]
        transmittance = np.where(
            contributes, transmittance * (1.0 - alpha), transmittance
        )
    color += transmittance[:, np.newaxis] * background
    if stats is not None:
        stats.fragments_evaluated += evaluated
        stats.fragments_blended += blended
    return color.reshape(grid.height, grid.width, 3)
