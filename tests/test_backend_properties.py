"""Property-based invariants of the Stage-3 tile loops.

Hypothesis-driven checks that hold for *both* the product's vectorized
tile engine and the per-Gaussian oracle loop regardless of input:

* alpha values stay inside ``[0, ALPHA_MAX]``,
* per-pixel transmittance is monotonically non-increasing as more Gaussians
  are composited (probed through the background term: rendering the same
  tile under a white and a black background isolates ``T_final``),
* an empty tile leaves the background fully visible,
* the footprint cull's alpha bound is never below a computed alpha, and
  the product engine's counters reconcile with the oracle loop's
  whatever rows the cull drops.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import rasterize
from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.rasterize import (
    ALPHA_MAX,
    ALPHA_SKIP_THRESHOLD,
    TRANSMITTANCE_EPSILON,
    RasterStats,
    alpha_upper_bound,
    gaussian_alpha,
    gaussian_alpha_block,
    rasterize_tile,
    rasterize_tile_vectorized,
)
from repro.gaussians.tiles import TileGrid

#: The per-tile oracle (``scalar``) and the product engine (``vectorized``).
TILE_LOOPS = {
    "scalar": rasterize_tile,
    "vectorized": rasterize_tile_vectorized,
}


def _random_projected(rng, count, extent=16.0):
    sigma = rng.uniform(0.8, 4.0, size=count)
    conic = 1.0 / (sigma * sigma)
    return ProjectedGaussians(
        means=rng.uniform(-2.0, extent + 2.0, size=(count, 2)),
        cov_inverses=np.stack([conic, np.zeros(count), conic], axis=1),
        depths=rng.uniform(0.5, 20.0, size=count),
        colors=rng.uniform(0.0, 1.0, size=(count, 3)),
        opacities=rng.uniform(0.05, 1.0, size=count),
        radii=np.ceil(3.0 * sigma),
        source_indices=np.arange(count),
    )


def _rotated_conics(rng, count, sigma_range=(0.8, 4.0)):
    """Inverse covariances of rotated anisotropic Gaussians (``b != 0``)."""
    sigma = rng.uniform(*sigma_range, size=(count, 2))
    theta = rng.uniform(0.0, np.pi, size=count)
    cos, sin = np.cos(theta), np.sin(theta)
    inv_major, inv_minor = 1.0 / sigma[:, 0] ** 2, 1.0 / sigma[:, 1] ** 2
    a = cos * cos * inv_major + sin * sin * inv_minor
    b = cos * sin * (inv_major - inv_minor)
    c = sin * sin * inv_major + cos * cos * inv_minor
    return np.stack([a, b, c], axis=1), np.ceil(3.0 * sigma.max(axis=1))


def _random_anisotropic_projected(rng, count, extent=16.0, reach=24.0):
    """Anisotropic sibling of :func:`_random_projected`.

    Means spread ``reach`` pixels past the tile on every side, so a tile
    sees both rows the footprint cull keeps and rows it drops.
    """
    conics, radii = _rotated_conics(rng, count)
    return ProjectedGaussians(
        means=rng.uniform(-reach, extent + reach, size=(count, 2)),
        cov_inverses=conics,
        depths=rng.uniform(0.5, 20.0, size=count),
        colors=rng.uniform(0.0, 1.0, size=(count, 3)),
        opacities=rng.uniform(0.05, 1.0, size=count),
        radii=radii,
        source_indices=np.arange(count),
    )


def _final_transmittance(tile_fn, projected, indices, pixels):
    """Recover per-pixel exit transmittance from the background term.

    ``C = sum_i T_i alpha_i c_i + T_final * background``, so rendering with a
    white and a black background differs by exactly ``T_final`` per channel.
    """
    white = tile_fn(projected, indices, pixels, np.ones(3))
    black = tile_fn(projected, indices, pixels, np.zeros(3))
    diff = white - black
    # All three channels carry the same transmittance.
    assert np.allclose(diff[:, 0], diff[:, 1], atol=1e-12)
    assert np.allclose(diff[:, 0], diff[:, 2], atol=1e-12)
    return diff[:, 0]


class TestAlphaBounds:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=30, deadline=None)
    def test_alpha_block_within_bounds(self, seed, count):
        rng = np.random.default_rng(seed)
        projected = _random_projected(rng, count)
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        alpha = gaussian_alpha_block(
            pixels, projected.means, projected.cov_inverses, projected.opacities
        )
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= ALPHA_MAX)

    @given(
        opacity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        sigma=st.floats(min_value=0.3, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_alpha_within_bounds(self, opacity, sigma):
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        conic = 1.0 / (sigma * sigma)
        alpha = gaussian_alpha(
            pixels, np.array([8.0, 8.0]), np.array([conic, 0.0, conic]), opacity
        )
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= ALPHA_MAX)


class TestTransmittanceInvariants:
    @pytest.mark.parametrize("loop", sorted(TILE_LOOPS))
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_transmittance_monotonically_non_increasing(self, loop, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 20))
        projected = _random_projected(rng, count)
        grid = TileGrid(width=16, height=16)
        pixels = grid.tile_pixel_centers(0)
        indices = np.argsort(projected.depths, kind="stable")
        tile_fn = TILE_LOOPS[loop]

        previous = np.ones(len(pixels))
        for prefix in range(count + 1):
            current = _final_transmittance(
                tile_fn, projected, indices[:prefix], pixels
            )
            assert np.all(current >= -1e-15)
            assert np.all(current <= 1.0 + 1e-12)
            assert np.all(current <= previous + 1e-12)
            previous = current

    @pytest.mark.parametrize("loop", sorted(TILE_LOOPS))
    def test_background_fully_visible_on_empty_tile(self, loop):
        rng = np.random.default_rng(0)
        projected = _random_projected(rng, 5)
        grid = TileGrid(width=16, height=16)
        pixels = grid.tile_pixel_centers(0)
        background = np.array([0.9, 0.4, 0.2])
        color = TILE_LOOPS[loop](
            projected, np.empty(0, dtype=np.int64), pixels, background
        )
        assert np.array_equal(color, np.tile(background, (len(pixels), 1)))
        transmittance = _final_transmittance(
            TILE_LOOPS[loop], projected, np.empty(0, dtype=np.int64), pixels
        )
        assert np.array_equal(transmittance, np.ones(len(pixels)))


def _culled(projected, indices, pixels):
    """Mask of the rows of ``indices`` the footprint cull drops."""
    bound = alpha_upper_bound(
        pixels,
        projected.means[indices],
        projected.cov_inverses[indices],
        projected.opacities[indices],
    )
    return bound < ALPHA_SKIP_THRESHOLD


def _concat(*parts):
    """Stack several ProjectedGaussians into one (indices in part order)."""
    fields = (
        "means", "cov_inverses", "depths", "colors", "opacities", "radii",
    )
    merged = {
        name: np.concatenate([getattr(part, name) for part in parts])
        for name in fields
    }
    count = len(merged["depths"])
    return ProjectedGaussians(source_indices=np.arange(count), **merged)


def _far(rng, count, extent=16.0):
    """Gaussians far enough from a ``[0, extent]`` tile to be culled."""
    projected = _random_anisotropic_projected(rng, count, extent)
    side = rng.integers(0, 4, size=count)
    offset = rng.uniform(30.0, 60.0, size=count)
    along = rng.uniform(-extent, 2 * extent, size=count)
    x = np.where(side == 0, -offset, np.where(side == 1, extent + offset, along))
    y = np.where(side == 2, -offset, np.where(side == 3, extent + offset, along))
    projected.means[:] = np.stack([x, y], axis=1)
    return projected


def _opaque_cover(rng, count, extent=16.0):
    """Broad, opaque Gaussians over the tile: a few terminate every pixel."""
    projected = _random_anisotropic_projected(rng, count, extent)
    projected.means[:] = rng.uniform(6.0, 10.0, size=(count, 2))
    projected.cov_inverses[:] = _rotated_conics(rng, count, (30.0, 60.0))[0]
    projected.opacities[:] = 0.99
    return projected


_BACKGROUND = np.array([0.3, 0.6, 0.9])


def _assert_matches_scalar(projected, indices, pixels, chunk_size):
    """Image and every RasterStats field equal the scalar oracle's."""
    scalar_stats, vector_stats = RasterStats(), RasterStats()
    expected = rasterize_tile(
        projected, indices, pixels, _BACKGROUND, scalar_stats
    )
    got = rasterize_tile_vectorized(
        projected, indices, pixels, _BACKGROUND, vector_stats,
        chunk_size=chunk_size,
    )
    assert np.array_equal(got, expected)
    assert vector_stats == scalar_stats
    return got, vector_stats


@pytest.fixture
def mixed_tile():
    """A tile list of culled and kept anisotropic rows, interleaved.

    Asserts the footprint cull really drops (and keeps) rows of it, so the
    differentials below exercise the gap accounting.
    """
    rng = np.random.default_rng(21)
    projected = _concat(
        _random_anisotropic_projected(rng, 40), _far(rng, 30)
    )
    indices = rng.permutation(len(projected.depths))
    pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
    culled = _culled(projected, indices, pixels)
    assert 0 < int(culled.sum()) < len(indices)
    return projected, indices, pixels


class TestFootprintCullBound:
    """The bound behind the footprint cull, against the real alpha kernel."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        width=st.integers(min_value=1, max_value=40),
        height=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_culled_pixel_passes_threshold(self, seed, width, height):
        rng = np.random.default_rng(seed)
        grid = TileGrid(width=width, height=height)
        pixels = grid.tile_pixel_centers(int(rng.integers(grid.num_tiles)))
        lo, hi = pixels.min(axis=0), pixels.max(axis=0)
        count = 48

        # Rotated anisotropic conics: round, elongated, and near-singular
        # (eigenvalue ratios up to 1e12, so b^2 is within 1e-12 of ac).
        inv_major = 10.0 ** rng.uniform(-4.0, 1.0, size=count)
        ratio = 10.0 ** (rng.uniform(0.0, 12.0, size=count) * rng.integers(0, 2, size=count))
        theta = rng.uniform(0.0, np.pi, size=count)
        cos, sin = np.cos(theta), np.sin(theta)
        inv_minor = inv_major * ratio
        conics = np.stack([
            cos * cos * inv_major + sin * sin * inv_minor,
            cos * sin * (inv_major - inv_minor),
            sin * sin * inv_major + cos * cos * inv_minor,
        ], axis=1)

        # Means inside, on an edge or corner of, just off, and far outside
        # the box, chosen per axis.
        def coordinate(low, high):
            choice = rng.integers(0, 4, size=count)
            return np.select(
                [choice == 0, choice == 1, choice == 2],
                [
                    rng.uniform(low, high, size=count),
                    np.where(rng.random(count) < 0.5, low, high),
                    np.where(rng.random(count) < 0.5, low - 0.5, high + 0.5),
                ],
                rng.uniform(low - 60.0, high + 60.0, size=count),
            )

        means = np.stack([coordinate(lo[0], hi[0]), coordinate(lo[1], hi[1])], axis=1)

        # Where an opacity of at most 1 can reach the threshold, half the
        # rows put the brightest pixel within 64 ulps of 1/255; the rest
        # draw opacities uniformly.
        peaks = np.array([
            gaussian_alpha(pixels, mean, conic, 1.0).max()
            for mean, conic in zip(means, conics)
        ])
        reachable = peaks >= ALPHA_SKIP_THRESHOLD
        ulps = rng.integers(-64, 65, size=count) * 2.0 ** -52
        opacities = np.where(
            reachable & (rng.random(count) < 0.5),
            ALPHA_SKIP_THRESHOLD / np.where(reachable, peaks, 1.0) * (1.0 + ulps),
            rng.uniform(0.0, 1.0, size=count),
        )

        bounds = alpha_upper_bound(pixels, means, conics, opacities)
        for mean, conic, opacity, bound in zip(means, conics, opacities, bounds):
            alpha = gaussian_alpha(pixels, mean, conic, opacity)
            assert bound >= alpha.max()
            if bound < ALPHA_SKIP_THRESHOLD:
                assert not np.any(alpha >= ALPHA_SKIP_THRESHOLD)

    @pytest.mark.parametrize(
        "conic",
        [
            [np.nan, 0.0, 1.0],
            [1.0, np.inf, 1.0],
            [1.0, 0.0, -np.inf],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, -1.0],
            [-1.0, 0.0, -1.0],
            [1.0, 1.0, 1.0],  # singular: b^2 == ac
            [1.0, 2.0, 1.0],  # indefinite
            [1.0, 1.0 - 2.0 ** -53, 1.0],  # not provably definite
        ],
    )
    def test_non_finite_or_indefinite_conic_is_always_kept(self, conic):
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        bound = alpha_upper_bound(
            pixels,
            np.array([[500.0, 500.0]]),
            np.array([conic]),
            np.array([0.5]),
        )
        assert bound[0] == np.inf

    def test_non_finite_mean_or_opacity_is_always_kept(self):
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        bound = alpha_upper_bound(
            pixels,
            np.array([[np.nan, 0.0], [500.0, 500.0]]),
            np.array([[1.0, 0.0, 1.0]] * 2),
            np.array([0.5, np.inf]),
        )
        assert np.all(bound == np.inf)


class TestFootprintCullAccounting:
    """Counter-accounting differentials of the cull against the scalar loop."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_every_row_culled(self, chunk_size):
        rng = np.random.default_rng(5)
        projected = _far(rng, 12)
        indices = np.argsort(projected.depths, kind="stable")
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        assert np.all(_culled(projected, indices, pixels))
        color, stats = _assert_matches_scalar(projected, indices, pixels, chunk_size)
        assert stats.fragments_evaluated == len(indices) * len(pixels)
        assert stats.fragments_blended == 0
        assert np.array_equal(color, np.tile(_BACKGROUND, (len(pixels), 1)))

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_culled_rows_before_first_kept(self, chunk_size):
        rng = np.random.default_rng(6)
        projected = _concat(_far(rng, 7), _random_anisotropic_projected(rng, 20, reach=0.0))
        indices = np.arange(len(projected.depths))
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        culled = _culled(projected, indices, pixels)
        assert np.all(culled[:7]) and not np.all(culled[7:])
        _assert_matches_scalar(projected, indices, pixels, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_culled_rows_after_tile_terminated(self, chunk_size):
        rng = np.random.default_rng(7)
        projected = _concat(
            _opaque_cover(rng, 8),
            _far(rng, 9),
            _random_anisotropic_projected(rng, 6, reach=0.0),
            _far(rng, 5),
        )
        indices = np.arange(len(projected.depths))
        pixels = TileGrid(width=16, height=16).tile_pixel_centers(0)
        cover = indices[:8]
        exit_t = _final_transmittance(rasterize_tile, projected, cover, pixels)
        assert np.all(exit_t < TRANSMITTANCE_EPSILON)
        assert np.all(_culled(projected, indices[8:17], pixels))
        _assert_matches_scalar(projected, indices, pixels, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_interleaved_rows(self, mixed_tile, chunk_size):
        _assert_matches_scalar(*mixed_tile, chunk_size)

    def test_culled_rows_never_reach_alpha_block(self, mixed_tile, monkeypatch):
        projected, indices, pixels = mixed_tile
        kept = int(np.count_nonzero(~_culled(projected, indices, pixels)))
        kernel, numpy_exp = rasterize._kernel, np.exp
        kept_counts, exp_sizes = [], []

        def counting_cull(*args):
            kept_counts.append(kernel.tile_cull(*args))
            return kept_counts[-1]

        def counting_exp(powers, out):
            exp_sizes.append(powers.size)
            return numpy_exp(powers, out=out)

        # The kernel's kept-row count, and the size of every power matrix
        # that reaches exp: at most one entry per kept row and pixel.
        monkeypatch.setattr(
            rasterize, "_kernel",
            SimpleNamespace(tile_cull=counting_cull, tile_blend=kernel.tile_blend),
        )
        monkeypatch.setattr(np, "exp", counting_exp)
        rasterize_tile_vectorized(projected, indices, pixels, np.zeros(3))
        assert kept_counts == [kept]
        assert 0 < sum(exp_sizes) <= kept * len(pixels)

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_anisotropic_tiles(self, chunk_size, seed):
        rng = np.random.default_rng(seed)
        grid = TileGrid(width=int(rng.integers(1, 40)), height=int(rng.integers(1, 40)))
        tile_id = int(rng.integers(0, grid.num_tiles))
        x0, y0, _, _ = grid.tile_pixel_bounds(tile_id)
        projected = _random_anisotropic_projected(rng, int(rng.integers(1, 60)))
        projected.means[:] += (x0, y0)
        if rng.random() < 0.5:
            projected = _concat(_opaque_cover(rng, 4), projected)
            projected.means[:4] += (x0, y0)
        indices = np.argsort(projected.depths, kind="stable")
        pixels = grid.tile_pixel_centers(tile_id)
        _assert_matches_scalar(projected, indices, pixels, chunk_size)
