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

The product path is :func:`rasterize_tiles`, which runs the C tile kernel
(``tile_kernel.c``, built on first import) on every tile: C culls the
Gaussians whose alpha bound over the tile (:func:`alpha_upper_bound`) is
below ``1/255`` and writes the exponents of the rest, NumPy's ``exp``
evaluates them, and C runs the oracle's per-pixel blend loop.

Two oracles sit at the end of the module and serve only tests:
:func:`rasterize_tile`, the original per-Gaussian Python loop, and
:func:`rasterize_reference`, an untiled all-pairs loop.  Contract 1 is
"product == :func:`rasterize_tile` oracle": bit-identical FP64 images and
identical :class:`RasterStats` (``tests/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
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

#: Kept Gaussians per power/``exp`` round of the tile kernel: the tile stops
#: after a round that leaves no pixel live.  32–128 run equally fast on the
#: ``unique-views`` frames; 16 and 256 are slower.
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

    Takes ``(P, 2)`` pixel centres, a ``(2,)`` screen-space mean, a ``(3,)``
    packed inverse covariance ``(a, b, c)`` and a scalar opacity.  Returns
    ``(P,)`` alphas, clamped to ``ALPHA_MAX`` and zeroed where the exponent
    would be positive (numerically impossible for a valid conic but guarded
    exactly like the reference implementation).
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

    Vectorized counterpart of :func:`gaussian_alpha` over ``(B, 2)`` means,
    ``(B, 3)`` conics and ``(B,)`` opacities: row ``i`` of the ``(B, P)``
    result is bit-identical to ``gaussian_alpha(pixel_centers, means[i],
    conics[i], opacities[i])`` because every element goes through the same
    sequence of FP64 operations, merely batched.  The tile kernel computes
    its exponents in the same order.
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

#: Relative slack on the final bound ``opacity * exp(-qmin / 2)``.  The
#: pixel's ``exp`` is NumPy's, documented to within 4 ulp (8 unit
#: roundoffs); the bound's is the C library's (glibc's is within 1 ulp), so
#: both stay within the 4 ulp assumed here.  The pixel's
#: ``opacity * exp(power)`` and the bound each take one such ``exp`` plus
#: one rounded product, and the slack product one more rounding:
#: ``(1 + 8u)(1 + u) <= (1 - 8u)(1 - u)^2 (1 + s)`` holds for ``s >= 19u``;
#: ``32u`` is the next power of two.
_BOUND_SLACK = 1.0 + 32 * _UNIT_ROUNDOFF

#: The tile kernel's build: ``-ffp-contract=off`` keeps every FP64
#: operation separately rounded (never ``-ffast-math`` or
#: ``-march=native``); the constants are passed as exact hex floats.
_KERNEL_SOURCE = Path(__file__).with_name("tile_kernel.c")
_KERNEL_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"] + [
    f"-D{name.lstrip('_')}={float(globals()[name]).hex()}"
    for name in (
        "ALPHA_SKIP_THRESHOLD", "ALPHA_MAX", "TRANSMITTANCE_EPSILON",
        "_UNIT_ROUNDOFF", "_QMIN_MARGIN", "_BOUND_SLACK",
    )
]


def _load_kernel() -> ctypes.CDLL:
    """Load the tile kernel, building it on first use.

    The shared object is cached in ``__pycache__/`` next to the source,
    named by a hash of the source and the flags, and moved into place with
    ``os.replace`` so concurrent first builds are safe.  Where that
    directory cannot be written, it is built in a private temporary
    directory, removed once loaded.  Without a working ``cc`` the import
    fails with the command it tried: there is no fallback.
    """
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_KERNEL_FLAGS).encode())
    name = f"tile_kernel-{key.hexdigest()[:16]}.so"
    cache = _KERNEL_SOURCE.parent / "__pycache__"
    if (cache / name).exists():
        kernel = ctypes.CDLL(str(cache / name))
    else:
        with tempfile.TemporaryDirectory() as private:  # if the cache is read-only
            try:
                cache.mkdir(exist_ok=True)
                fd, built = tempfile.mkstemp(suffix=".so", dir=cache)
            except OSError:
                cache, (fd, built) = Path(private), tempfile.mkstemp(dir=private)
            os.close(fd)
            command = ["cc", *_KERNEL_FLAGS, str(_KERNEL_SOURCE), "-o", built, "-lm"]
            try:
                subprocess.run(command, check=True, capture_output=True, text=True)
            except (OSError, subprocess.CalledProcessError) as error:
                os.unlink(built)
                raise ImportError(
                    f"cannot build the Stage-3 tile kernel with `{' '.join(command)}`: "
                    f"{getattr(error, 'stderr', None) or error}"
                ) from error
            os.replace(built, cache / name)
            kernel = ctypes.CDLL(str(cache / name))
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    tile = [i64, ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, i64, f64, f64, f64]
    kernel.alpha_bounds.argtypes = [i64, ptr, ptr, ptr, i64, ptr, ptr]
    kernel.alpha_bounds.restype = None
    kernel.tile_cull.argtypes, kernel.tile_cull.restype = tile, i64
    kernel.tile_blend.argtypes, kernel.tile_blend.restype = tile + [i64] * 3, i64
    return kernel


_kernel = _load_kernel()


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
    is always kept).  Takes ``(P, 2)`` pixel centres (``P >= 1``) and
    ``(B, 2)``, ``(B, 3)``, ``(B,)`` splat parameters; returns the ``(B,)``
    bounds, computed by the tile kernel's own bound function.
    """
    pixels = np.ascontiguousarray(pixel_centers, dtype=np.float64)
    rows = [
        np.ascontiguousarray(values, dtype=np.float64)
        for values in (means, conics, opacities)
    ]
    bound = np.empty(len(rows[2]))
    _kernel.alpha_bounds(
        len(bound), *(a.ctypes.data for a in rows), len(pixels),
        pixels.ctypes.data, bound.ctypes.data,
    )
    return bound


def rasterize_tile_vectorized(
    projected: ProjectedGaussians,
    gaussian_indices: np.ndarray,
    pixel_centers: np.ndarray,
    background: np.ndarray,
    stats: Optional[RasterStats] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Rasterize one tile with the C tile kernel, bit-identical to the oracle.

    Output and statistics equal :func:`rasterize_tile`'s.  ``tile_cull``
    keeps the rows whose :func:`alpha_upper_bound` reaches
    ``ALPHA_SKIP_THRESHOLD`` (a dropped row passes it at no pixel, so the
    oracle multiplies by exactly 1.0 and adds exactly 0).  Then, per round
    of ``chunk_size`` kept rows, C writes the exponents in
    :func:`gaussian_alpha_block`'s operation order, :func:`numpy.exp`
    evaluates them (the oracle's ``exp``, at whatever SIMD level NumPy
    dispatches to), and ``tile_blend`` runs the oracle's per-pixel loop.
    Pixel state carries across rounds; the tile stops after a round that
    leaves no pixel live.  A pixel that terminates at list position ``j``
    counts ``j + 1`` evaluated fragments, one that never does counts the
    whole list.  The exponent buffers take ``chunk_size * P * 16`` bytes.
    """
    indices = np.ascontiguousarray(gaussian_indices, dtype=np.int64)
    pixels = np.ascontiguousarray(pixel_centers, dtype=np.float64)
    frame = [
        np.ascontiguousarray(values, dtype=np.float64)
        for values in (
            projected.means, projected.cov_inverses, projected.opacities,
            projected.colors,
        )
    ]
    num_gaussians, num_pixels = len(indices), len(pixels)
    rows = max(1, min(chunk_size, num_gaussians))
    # The kernel's workspaces, laid out as tile_kernel.c describes.
    ints = np.empty(num_gaussians + 2, dtype=np.int64)
    work = np.empty((4 + 2 * rows) * num_pixels)
    powers = work[4 * num_pixels:(4 + rows) * num_pixels]
    exps = work[(4 + rows) * num_pixels:]
    args = (
        num_gaussians, indices.ctypes.data, *(a.ctypes.data for a in frame),
        num_pixels, pixels.ctypes.data, ints.ctypes.data, work.ctypes.data,
        rows, *np.asarray(background, dtype=np.float64).reshape(3).tolist(),
    )

    kept = _kernel.tile_cull(*args)
    start, live = 0, num_pixels
    while live and start < kept:
        size = min(rows, kept - start) * num_pixels
        np.exp(powers[:size], out=exps[:size])
        live = _kernel.tile_blend(*args, start, kept, live)
        start += rows
    if stats is not None:
        stats.fragments_evaluated += int(ints[-2]) + num_gaussians * live
        stats.fragments_blended += int(ints[-1])
        stats.tiles_processed += 1
    return work[:3 * num_pixels].reshape(num_pixels, 3).copy()


def rasterize_tiles(
    projected: ProjectedGaussians,
    binning: TileBinning,
    background=(0.0, 0.0, 0.0),
    collect_stats: bool = True,
) -> tuple[np.ndarray, RasterStats]:
    """Rasterize a full frame tile by tile with the compiled tile kernel.

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

    The readable golden model of the tile kernel: blends the depth-sorted
    ``gaussian_indices`` of ``projected`` at the tile's ``(P, 2)``
    ``pixel_centers`` over the ``(3,)`` ``background``, returns the
    ``(P, 3)`` colours and updates ``stats`` in place if given.  Tests
    compare :func:`rasterize_tile_vectorized` (and, frame by frame, a tile
    loop over this function against :func:`rasterize_tiles`) for
    bit-identical colours and identical counters; no product path calls it.
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

    With ``stats``, ``fragments_evaluated`` counts the Gaussian-pixel pairs
    whose pixel had not yet early-terminated and ``fragments_blended`` the
    pairs past the alpha threshold; tile-level counters are left untouched.
    Every Gaussian is considered at every pixel (no conservative-radius
    cut-off, no whole-tile break), so evaluated counts are an upper bound
    on, not a copy of, the tiled workload.
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
