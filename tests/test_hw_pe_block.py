"""Tests for the PE block's tile-wide datapath pass.

The block applies each primitive to a whole tile in one lane-parallel pass
instead of one pass per PE.  The differential tests compare it against 16
independent :class:`ProcessingElement` objects, each applying the same
batches to its own interleaved pixels (pixel ``p`` belongs to PE
``p % 16``): colours, depths, batch records, per-PE counters and operation
tallies must all be identical.

That comparison runs the product's datapath on both sides.  The Gaussian
datapath is therefore also checked against an independent oracle kept
here: a per-primitive, op-by-op datapath in which every operation is
computed in float64 and rounded with ``quantize``.  Rounding the float64
result once equals the native operation, and hoisting subtasks 1-2 out of
the primitive loop changes no operation, so the two must agree bit for
bit.  The golden test pins the multi-instance simulator's outputs bit for
bit on fixed synthetic frames.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gaussians.pipeline import render
from repro.gaussians.rasterize import (
    ALPHA_MAX,
    ALPHA_SKIP_THRESHOLD,
    TRANSMITTANCE_EPSILON,
)
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.hardware.config import GauRastConfig, SCALED_CONFIG
from repro.hardware.fp import Precision, narrow, quantize
from repro.hardware.multi import ScaledGauRast
from repro.hardware.pe import (
    GaussianPixelState,
    ProcessingElement,
    TrianglePixelState,
    gaussian_datapath,
)
from repro.hardware.pe_block import BlockBatchResult, PEBlock
from repro.hardware.units import DatapathUnits, OperationTally

BACKGROUND = (0.1, 0.2, 0.3)
PRECISIONS = st.sampled_from([Precision.FP32, Precision.FP16])


def _config(precision):
    return GauRastConfig().with_precision(precision)


def _tile_pixels(width, height, x0=16.0, y0=32.0):
    """Pixel centres of a ``width`` x ``height`` tile, row-major."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel() + x0 + 0.5, ys.ravel() + y0 + 0.5], axis=1)


def _random_gaussians(rng, count, x0=16.0, y0=32.0):
    """Rasterizer inputs of ``count`` Gaussians scattered around the tile.

    Opacities span non-contributing (below 1/255) to saturating (0.99)
    splats, and a few conics are indefinite so the positive-exponent guard
    fires too.
    """
    sigma = rng.uniform(0.5, 8.0, size=(count, 2))
    rho = rng.uniform(-0.8, 0.8, size=count)
    det = (sigma[:, 0] * sigma[:, 1]) ** 2 * (1.0 - rho * rho)
    conic_a = sigma[:, 1] ** 2 / det
    conic_b = -rho * sigma[:, 0] * sigma[:, 1] / det
    conic_c = sigma[:, 0] ** 2 / det
    indefinite = rng.random(count) < 0.1
    conic_c = np.where(indefinite, -conic_c, conic_c)
    opacity = rng.choice([0.002, 0.3, 0.7, 0.99], size=count)
    means = rng.uniform(-4.0, 20.0, size=(count, 2)) + [x0, y0]
    colors = rng.uniform(0.0, 1.0, size=(count, 3))
    return np.column_stack([conic_a, conic_b, conic_c, opacity, means, colors])


def _random_triangles(rng, count, x0=16.0, y0=32.0):
    """Rasterizer inputs, vertex colours and UVs of ``count`` triangles.

    Some triangles have collinear vertices, which quantization leaves
    degenerate or nearly so (FP16 weights may then overflow), and some lie
    partly behind the camera (non-positive depth).
    """
    vertices = rng.uniform(-8.0, 24.0, size=(count, 3, 3)) + [x0, y0, 0.0]
    vertices[:, :, 2] = rng.uniform(-0.5, 10.0, size=(count, 3))
    degenerate = rng.random(count) < 0.15
    vertices[degenerate, 2, :2] = 2.0 * vertices[degenerate, 1, :2] - vertices[degenerate, 0, :2]
    colors = rng.uniform(0.0, 1.0, size=(count, 3, 3))
    uvs = rng.uniform(0.0, 1.0, size=(count, 3, 2))
    return vertices.reshape(count, 9), colors, uvs


def _split(items, sizes):
    bounds = np.cumsum(sizes)[:-1]
    return np.split(items, bounds)


def _merged_tally(pes):
    merged = OperationTally()
    for pe in pes:
        merged = merged.merged_with(pe.units.tally)
    return merged.counts


def _reference_gaussian_tile(config, pixel_centers, batches, background):
    """16 independent PEs, each applying every batch to its own pixels."""
    num_pes = config.pes_per_instance
    pes = [ProcessingElement(config) for _ in range(num_pes)]
    owned = [np.arange(len(pixel_centers)) % num_pes == pe for pe in range(num_pes)]
    states = [GaussianPixelState.initial(int(mask.sum())) for mask in owned]
    results = []
    for batch in batches:
        busy = [pe.busy_cycles for pe in pes]
        evaluated = sum(pe.fragments_evaluated for pe in pes)
        skipped = sum(pe.fragments_skipped for pe in pes)
        for pe, mask, state in zip(pes, owned, states):
            if mask.any():
                for primitive in batch:
                    pe.apply_gaussian(pixel_centers[mask], state, primitive)
        results.append(BlockBatchResult(
            compute_cycles=max(pe.busy_cycles - b for pe, b in zip(pes, busy)),
            fragments_evaluated=sum(pe.fragments_evaluated for pe in pes) - evaluated,
            fragments_skipped=sum(pe.fragments_skipped for pe in pes) - skipped,
        ))
    colors = np.zeros((len(pixel_centers), 3))
    for pe, mask, state in zip(pes, owned, states):
        if mask.any():
            colors[mask] = pe.finalize_gaussian(state, background)
    return colors, results, pes


def _reference_triangle_tile(config, pixel_centers, batches, color_batches,
                             uv_batches, background):
    """16 independent PEs, each applying every triangle to its own pixels."""
    num_pes = config.pes_per_instance
    pes = [ProcessingElement(config) for _ in range(num_pes)]
    owned = [np.arange(len(pixel_centers)) % num_pes == pe for pe in range(num_pes)]
    states = [TrianglePixelState.initial(int(mask.sum()), background) for mask in owned]
    results = []
    for batch, batch_colors, batch_uvs in zip(batches, color_batches, uv_batches):
        busy = [pe.busy_cycles for pe in pes]
        evaluated = sum(pe.fragments_evaluated for pe in pes)
        for pe, mask, state in zip(pes, owned, states):
            if mask.any():
                for primitive, colors, uvs in zip(batch, batch_colors, batch_uvs):
                    pe.apply_triangle(pixel_centers[mask], state, primitive, colors, uvs)
        results.append(BlockBatchResult(
            compute_cycles=max(pe.busy_cycles - b for pe, b in zip(pes, busy)),
            fragments_evaluated=sum(pe.fragments_evaluated for pe in pes) - evaluated,
            fragments_skipped=0,
        ))
    colors = np.zeros((len(pixel_centers), 3))
    depths = np.full(len(pixel_centers), np.inf)
    for mask, state in zip(owned, states):
        colors[mask] = state.color
        depths[mask] = state.depth
    return colors, depths, results, pes


def _assert_same_counters(block, pes):
    assert block.busy_cycles.tolist() == [pe.busy_cycles for pe in pes]
    assert block.fragments_evaluated.tolist() == [pe.fragments_evaluated for pe in pes]
    assert block.fragments_skipped.tolist() == [pe.fragments_skipped for pe in pes]
    assert block.tally.counts == _merged_tally(pes)


class _Float64Units:
    """Functional units that compute in float64 and round every result.

    Each ``add``/``sub``/``mul``/``exp`` rounds its float64 result with
    :func:`quantize` and counts one operation per result element.
    """

    def __init__(self, precision):
        self.precision = precision
        self.tally = OperationTally()

    def _round(self, kind, result):
        self.tally.record(kind, int(np.size(result)))
        return quantize(result, self.precision)

    def add(self, a, b):
        return self._round("add", np.add(a, b, dtype=np.float64))

    def sub(self, a, b):
        return self._round("add", np.subtract(a, b, dtype=np.float64))

    def mul(self, a, b):
        return self._round("mul", np.multiply(a, b, dtype=np.float64))

    def exp(self, a):
        return self._round("exp", np.exp(np.asarray(a, dtype=np.float64)))


def _oracle_gaussian_datapath(units, pixels, lanes, num_lanes, color, transmittance,
                              primitive):
    """Apply one quantized Gaussian op by op; ``color``/``transmittance`` in place.

    Returns the per-lane evaluated fragments and whether each lane blended.
    """
    conic_a, conic_b, conic_c, opacity, mu_x, mu_y = primitive[:6]
    rgb = primitive[6:9]
    active = np.flatnonzero(transmittance >= TRANSMITTANCE_EPSILON)
    active_lanes = lanes[active]
    evaluated = np.bincount(active_lanes, minlength=num_lanes)
    blended = np.zeros(num_lanes, dtype=bool)
    if len(active) == 0:
        return evaluated, blended

    pixels = pixels[active]
    dx = units.sub(pixels[:, 0], mu_x)
    dy = units.sub(pixels[:, 1], mu_y)
    dx2 = units.mul(dx, dx)
    dy2 = units.mul(dy, dy)
    quad = units.add(units.mul(conic_a, dx2), units.mul(conic_c, dy2))
    half_quad = units.mul(-0.5, quad)
    b_dxdy = units.mul(units.mul(conic_b, dx), dy)
    power = units.sub(half_quad, b_dxdy)
    alpha = units.mul(opacity, units.exp(np.minimum(power, 0.0)))
    alpha = np.where(power > 0.0, 0.0, np.minimum(alpha, ALPHA_MAX))

    contributes = alpha >= ALPHA_SKIP_THRESHOLD
    if not np.any(contributes):
        return evaluated, blended
    blended[active_lanes[contributes]] = True
    runs = blended[active_lanes]
    indices = active[runs]
    alpha = alpha[runs]
    current = transmittance[indices]

    weight = units.mul(current, alpha)
    new_color = units.add(color[indices], units.mul(weight[:, np.newaxis], rgb[np.newaxis, :]))
    new_transmittance = units.mul(current, units.sub(1.0, alpha))

    update = contributes[runs]
    color[indices[update]] = new_color[update]
    transmittance[indices[update]] = new_transmittance[update]
    return evaluated, blended


def _oracle_gaussian_tile(config, pixel_centers, batches, background):
    """A PE block's Gaussian tile on the float64 oracle datapath.

    Returns the colours, the batch records, the per-PE counters as
    ``(busy_cycles, fragments_evaluated, fragments_skipped)`` lists and
    the operation tally.
    """
    precision = config.precision
    num_pes = config.pes_per_instance
    units = _Float64Units(precision)
    lanes = np.arange(len(pixel_centers)) % num_pes
    lane_pixels = np.bincount(lanes, minlength=num_pes)
    pixels = quantize(pixel_centers, precision)
    color = np.zeros((len(pixel_centers), 3))
    transmittance = np.ones(len(pixel_centers))
    counters = np.zeros((3, num_pes), dtype=np.int64)
    results = []
    for batch in batches:
        evaluated = np.zeros(num_pes, dtype=np.int64)
        for primitive in quantize(batch, precision):
            evaluated += _oracle_gaussian_datapath(
                units, pixels, lanes, num_pes, color, transmittance, primitive
            )[0]
        skipped = lane_pixels * len(batch) - evaluated
        busy = evaluated * config.gaussian_cycles_per_fragment
        counters += [busy, evaluated, skipped]
        results.append(BlockBatchResult(
            compute_cycles=int(busy.max()),
            fragments_evaluated=int(evaluated.sum()),
            fragments_skipped=int(skipped.sum()),
        ))
    background = quantize(np.asarray(background, dtype=np.float64), precision)
    colors = units.add(color, units.mul(transmittance[:, np.newaxis], background[np.newaxis, :]))
    return colors, results, counters.tolist(), units.tally.counts


def _assert_block_matches_oracle(config, pixel_centers, batches, background=BACKGROUND):
    block = PEBlock(config)
    colors, results = block.process_gaussian_tile(pixel_centers, batches, background)
    ref_colors, ref_results, ref_counters, ref_tally = _oracle_gaussian_tile(
        config, pixel_centers, batches, background
    )
    assert colors.dtype == np.float64
    assert np.array_equal(colors, ref_colors)
    assert results == ref_results
    assert [block.busy_cycles.tolist(), block.fragments_evaluated.tolist(),
            block.fragments_skipped.tolist()] == ref_counters
    assert block.tally.counts == ref_tally
    return results


def _splats(count, mean, opacity=0.99, sigma=4.0, conic_b=0.0, conic_c=None,
            color=(0.9, 0.5, 0.1)):
    """``count`` identical isotropic splats centred on ``mean``."""
    conic_a = 1.0 / sigma**2
    conic_c = conic_a if conic_c is None else conic_c
    row = [conic_a, conic_b, conic_c, opacity, *mean, *color]
    return np.tile(np.asarray(row, dtype=np.float64), (count, 1))


class TestGaussianTileMatchesOracle:
    """The native, batch-hoisted block against the float64 op-by-op oracle."""

    @given(
        precision=PRECISIONS,
        width=st.integers(min_value=1, max_value=16),
        height=st.integers(min_value=1, max_value=16),
        batch_sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(precision=Precision.FP16, width=16, height=16, batch_sizes=[12, 12], seed=7)
    @settings(max_examples=40, deadline=None)
    def test_block_matches_float64_oracle(self, precision, width, height, batch_sizes, seed):
        rng = np.random.default_rng(seed)
        pixel_centers = _tile_pixels(width, height)
        batches = _split(_random_gaussians(rng, sum(batch_sizes)), batch_sizes)
        _assert_block_matches_oracle(_config(precision), pixel_centers, batches)

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_alpha_max_clamp(self, precision):
        """Opacity 0.99 rounds up past ``ALPHA_MAX``, so the clamp fires.

        The clamped alpha is exact only in float64; it must enter the next
        splats' ``T * alpha`` and ``1 - alpha`` unrounded.
        """
        assert float(narrow(0.99, precision)) > ALPHA_MAX
        pixel_centers = _tile_pixels(16, 16)
        batch = _splats(3, mean=pixel_centers[37], sigma=2.0)
        _assert_block_matches_oracle(_config(precision), pixel_centers, [batch])

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_indefinite_conics(self, precision):
        """A negative ``conic_c`` gives positive exponents, dropped by the guard."""
        pixel_centers = _tile_pixels(16, 16)
        batch = np.concatenate([
            _splats(2, mean=pixel_centers[100], opacity=0.7, conic_c=-0.05),
            _splats(2, mean=pixel_centers[20], opacity=0.5, conic_b=0.3),
        ])
        _assert_block_matches_oracle(_config(precision), pixel_centers, [batch])

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_fully_terminated_tile(self, precision):
        """Opaque splats terminate every pixel; later batches evaluate nothing."""
        pixel_centers = _tile_pixels(16, 16)
        covering = _splats(6, mean=pixel_centers[136], sigma=400.0)
        late = _random_gaussians(np.random.default_rng(5), 4)
        results = _assert_block_matches_oracle(
            _config(precision), pixel_centers, [covering, late]
        )
        assert results[1].fragments_evaluated == 0
        assert results[1].fragments_skipped == 4 * len(pixel_centers)


def _transmittances(precision):
    """Preset transmittances around the early-termination threshold."""
    values = [1.0, 0.5, 2e-4, 1e-4, float(narrow(1e-4, precision)), 9e-5, 0.0]
    return st.sampled_from([float(narrow(v, precision)) for v in values])


class TestGaussianDatapathMatchesOracle:
    """One batched datapath call against the oracle, primitive by primitive."""

    @given(data=st.data(), precision=PRECISIONS,
           num_pixels=st.integers(min_value=1, max_value=64),
           num_primitives=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_preset_state_matches_oracle(self, data, precision, num_pixels, num_primitives,
                                         seed):
        rng = np.random.default_rng(seed)
        transmittance = data.draw(st.lists(
            _transmittances(precision), min_size=num_pixels, max_size=num_pixels
        ))
        color = quantize(rng.uniform(0.0, 0.5, size=(num_pixels, 3)), precision)
        self._check(precision, np.array(transmittance), color,
                    _random_gaussians(rng, num_primitives))

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_pixel_preset_to_rounded_epsilon(self, precision):
        """``T = float32(1e-4)`` is below ``1e-4``: the pixel has terminated.

        A threshold compared in the narrow dtype would round ``1e-4`` to
        the same float32 value and keep the pixel active.  ``float16(1e-4)``
        is above ``1e-4``, so at FP16 the pixel is still evaluated.
        """
        transmittance = np.full(16, 0.5)
        transmittance[3] = narrow(TRANSMITTANCE_EPSILON, precision)
        batch = _splats(2, mean=(20.5, 32.5), sigma=8.0, opacity=0.5)
        evaluated = self._check(precision, transmittance, np.zeros((16, 3)), batch)
        if precision is Precision.FP32:
            assert float(transmittance[3]) < TRANSMITTANCE_EPSILON
            assert evaluated[3] == 0
        else:
            assert evaluated[3] > 0

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    def test_clamped_alpha_meets_many_transmittances(self, precision):
        """A flat opacity-0.99 splat clamps on every pixel.

        Each pixel starts at a different transmittance, so ``T * alpha``
        and ``1 - alpha`` with the float64 ``ALPHA_MAX`` differ from the
        same products with ``alpha`` rounded to the datapath dtype.
        """
        transmittance = quantize(np.linspace(1e-3, 1.0, 64), precision)
        flat = _splats(2, mean=(20.5, 32.5), opacity=0.99)
        flat[:, :3] = 0.0
        self._check(precision, transmittance, np.zeros((64, 3)), flat)

    @staticmethod
    def _check(precision, transmittance, color, primitives):
        num_pixels = len(transmittance)
        pixels = quantize(_tile_pixels(16, 16)[:num_pixels], precision)
        lanes = np.arange(num_pixels) % 16
        primitives = quantize(primitives, precision)

        units = _Float64Units(precision)
        ref_color, ref_transmittance = color.copy(), transmittance.copy()
        ref_evaluated = np.zeros(16, dtype=np.int64)
        ref_blended = np.zeros(16, dtype=np.int64)
        for primitive in primitives:
            evaluated, blended = _oracle_gaussian_datapath(
                units, pixels, lanes, 16, ref_color, ref_transmittance, primitive
            )
            ref_evaluated += evaluated
            ref_blended += evaluated * blended

        state = GaussianPixelState(
            color=narrow(color, precision), transmittance=narrow(transmittance, precision)
        )
        product = DatapathUnits(precision)
        evaluated, blended = gaussian_datapath(
            product, narrow(pixels, precision), lanes, 16, state, narrow(primitives, precision)
        )
        assert evaluated.tolist() == ref_evaluated.tolist()
        assert blended.tolist() == ref_blended.tolist()
        assert np.array_equal(state.color.astype(np.float64), ref_color)
        assert np.array_equal(state.transmittance.astype(np.float64), ref_transmittance)
        assert product.tally.counts == units.tally.counts
        return evaluated


class TestGaussianTileMatchesPerPE:
    @given(
        precision=PRECISIONS,
        width=st.integers(min_value=1, max_value=16),
        height=st.integers(min_value=1, max_value=16),
        batch_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(precision=Precision.FP32, width=3, height=2, batch_sizes=[4, 4], seed=0)
    @example(precision=Precision.FP16, width=16, height=16, batch_sizes=[8, 8, 8], seed=1)
    @settings(max_examples=40, deadline=None)
    def test_block_matches_sixteen_independent_pes(
        self, precision, width, height, batch_sizes, seed
    ):
        config = _config(precision)
        rng = np.random.default_rng(seed)
        pixel_centers = _tile_pixels(width, height)
        batches = _split(_random_gaussians(rng, sum(batch_sizes)), batch_sizes)

        block = PEBlock(config)
        colors, results = block.process_gaussian_tile(pixel_centers, batches, BACKGROUND)
        ref_colors, ref_results, pes = _reference_gaussian_tile(
            config, pixel_centers, batches, BACKGROUND
        )
        assert np.array_equal(colors, ref_colors)
        assert results == ref_results
        _assert_same_counters(block, pes)

    def test_pe_owning_no_pixel_records_nothing(self):
        config = _config(Precision.FP32)
        block = PEBlock(config)
        pixel_centers = _tile_pixels(5, 1)
        batch = _random_gaussians(np.random.default_rng(3), 6)
        block.process_gaussian_tile(pixel_centers, [batch])
        assert not block.busy_cycles[5:].any()
        assert not block.fragments_evaluated[5:].any()
        assert not block.fragments_skipped[5:].any()
        assert block.fragments_evaluated[:5].sum() + block.fragments_skipped[:5].sum() == 30


class TestGaussianDatapath:
    @given(
        precision=PRECISIONS,
        num_pixels=st.integers(min_value=1, max_value=64),
        saturated=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_match_single_lane_calls_on_presaturated_pixels(
        self, precision, num_pixels, saturated, seed
    ):
        """Per-lane counts, state and tally equal 16 single-lane calls."""
        config = _config(precision)
        rng = np.random.default_rng(seed)
        pixel_centers = _tile_pixels(16, 16)[:num_pixels]
        lanes = np.arange(num_pixels) % 16
        state = GaussianPixelState.initial(num_pixels)
        state.transmittance[rng.random(num_pixels) < saturated] = 5e-5
        state.color[:] = rng.uniform(0.0, 0.5, size=(num_pixels, 3))
        primitive = quantize(_random_gaussians(rng, 1)[0], precision)

        pes = [ProcessingElement(config) for _ in range(16)]
        ref_color = state.color.copy()
        ref_transmittance = state.transmittance.copy()
        for lane, pe in enumerate(pes):
            mine = lanes == lane
            if mine.any():
                lane_state = GaussianPixelState(
                    color=ref_color[mine], transmittance=ref_transmittance[mine]
                )
                pe.apply_gaussian(pixel_centers[mine], lane_state, primitive)
                ref_color[mine] = lane_state.color
                ref_transmittance[mine] = lane_state.transmittance

        units = DatapathUnits(precision)
        evaluated, blended = gaussian_datapath(
            units, quantize(pixel_centers, precision), lanes, 16, state, primitive[np.newaxis]
        )
        assert evaluated.tolist() == [pe.fragments_evaluated for pe in pes]
        assert np.array_equal(state.color, ref_color)
        assert np.array_equal(state.transmittance, ref_transmittance)
        assert units.tally.counts == _merged_tally(pes)
        # Subtasks 1-2 cost 4 add, 8 mul, 1 exp per active fragment; a PE
        # that blends pays 4 add and 5 mul more on every active fragment.
        assert np.all((blended == 0) | (blended == evaluated))
        expected = {
            "add": 4 * evaluated.sum() + 4 * blended.sum(),
            "mul": 8 * evaluated.sum() + 5 * blended.sum(),
            "exp": evaluated.sum(),
        }
        assert units.tally.counts == {k: v for k, v in expected.items() if v}


class TestTriangleTileMatchesPerPE:
    @given(
        precision=PRECISIONS,
        width=st.integers(min_value=1, max_value=16),
        height=st.integers(min_value=1, max_value=16),
        batch_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(precision=Precision.FP32, width=3, height=2, batch_sizes=[4, 4], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_block_matches_sixteen_independent_pes(
        self, precision, width, height, batch_sizes, seed
    ):
        config = _config(precision)
        rng = np.random.default_rng(seed)
        pixel_centers = _tile_pixels(width, height)
        primitives, tri_colors, tri_uvs = _random_triangles(rng, sum(batch_sizes))
        batches = _split(primitives, batch_sizes)
        color_batches = _split(tri_colors, batch_sizes)
        uv_batches = _split(tri_uvs, batch_sizes)

        block = PEBlock(config)
        with np.errstate(over="ignore", invalid="ignore"):
            colors, depths, results = block.process_triangle_tile(
                pixel_centers, batches, color_batches, uv_batches, BACKGROUND
            )
            ref_colors, ref_depths, ref_results, pes = _reference_triangle_tile(
                config, pixel_centers, batches, color_batches, uv_batches, BACKGROUND
            )
        assert np.array_equal(colors, ref_colors)
        assert np.array_equal(depths, ref_depths)
        assert results == ref_results
        _assert_same_counters(block, pes)

    @given(
        num_rows=st.integers(min_value=1, max_value=256),
        columns=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_attribute_interpolation_is_row_independent(self, num_rows, columns, seed):
        """A PE's rows of ``weights @ attributes`` equal its own product."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-1.0, 2.0, size=(num_rows, 3))
        attributes = rng.uniform(0.0, 1.0, size=(3, columns))
        whole = weights @ attributes
        for lane in range(16):
            rows = np.arange(num_rows) % 16 == lane
            assert np.array_equal(whole[rows], weights[rows] @ attributes)


#: ``ScaledGauRast.simulate_frame`` outputs recorded with the per-PE
#: simulator (16 datapath passes per primitive) before the tile-wide pass
#: replaced it, keyed by precision and Gaussian count.  ``reports_sha256``
#: digests every field of every ``InstanceReport``; ``totals`` sums the
#: scalar fields so a mismatch shows which counter moved.
GOLDEN = {
    ("fp32", 96): {
        "image_sha256": "64f61d8c8261071b70e2472799d12bebc300b1d80425c4ac8b190a18e8e6062c",
        "frame_cycles": 3880,
        "reports_sha256": "a158b8ee5d0620981540d4b3dca5e173a7f776cc8cc1ee32c7d5a044a92ba472",
        "totals": {"cycles": 14512, "compute_cycles": 14272, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 57088, "fragments_skipped": 0,
                   "traffic_bytes": 57180},
        "operation_counts": {"add": 298496, "mul": 543232, "exp": 57088},
    },
    ("fp32", 128): {
        "image_sha256": "507652aef79f0c9fe7e5c524c11ecd85ac064ce7c53f1b2897f77cd1b85fad7b",
        "frame_cycles": 5672,
        "reports_sha256": "98cea207ef77be15af32a5ae86e297810cd2ba5c070ae13b5ceef9cc03cd6110",
        "totals": {"cycles": 21360, "compute_cycles": 21120, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 83945, "fragments_skipped": 535,
                   "traffic_bytes": 61032},
        "operation_counts": {"add": 437068, "mul": 797018, "exp": 83945},
    },
    ("fp32", 160): {
        "image_sha256": "de963a412c08d7cc264823d2f9f9db2d46ef3562a5e787910288b9ec87f72c05",
        "frame_cycles": 7848,
        "reports_sha256": "e01edf37aa3d86c03bf2c4262dea9380d5d735888b1de44f38611583d72f6673",
        "totals": {"cycles": 28976, "compute_cycles": 28736, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 114944, "fragments_skipped": 0,
                   "traffic_bytes": 65316},
        "operation_counts": {"add": 609280, "mul": 1105280, "exp": 114944},
    },
    ("fp16", 96): {
        "image_sha256": "607a6409c80fd1a5e3bcd0edec29fdf0ba2f80fbb37b3ae130da3107d13f32c4",
        "frame_cycles": 1960,
        "reports_sha256": "351b968afa3449379815ecaf610690c71cc47f252b8e0172850ace3461a0bf2a",
        "totals": {"cycles": 7376, "compute_cycles": 7136, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 57088, "fragments_skipped": 0,
                   "traffic_bytes": 57180},
        "operation_counts": {"add": 298496, "mul": 543232, "exp": 57088},
    },
    ("fp16", 128): {
        "image_sha256": "3306e866b91b202c534cd48835d36799ee9dd6a9ca393a0aa04557273eec16b2",
        "frame_cycles": 2856,
        "reports_sha256": "2bed0afa7cce0fe6b0dd55c9c906e4baf01a9404f5f8ee009783eabfaab244d0",
        "totals": {"cycles": 10800, "compute_cycles": 10560, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 83945, "fragments_skipped": 535,
                   "traffic_bytes": 61032},
        "operation_counts": {"add": 437068, "mul": 797018, "exp": 83945},
    },
    ("fp16", 160): {
        "image_sha256": "388b40c96fc9fef4246bc30879e90b8a17df4350343d9a8bd664b2f805a530be",
        "frame_cycles": 3944,
        "reports_sha256": "ad60d07c74c20141c754aac9c0f9f12958d7785a90c7b8d6968e24677f68e51f",
        "totals": {"cycles": 14608, "compute_cycles": 14368, "load_cycles_exposed": 0,
                   "control_cycles": 240, "tiles_processed": 6, "batches_processed": 6,
                   "fragments_evaluated": 114944, "fragments_skipped": 0,
                   "traffic_bytes": 65316},
        "operation_counts": {"add": 609216, "mul": 1105200, "exp": 114944},
    },
}

#: ``(gaussians, width, height, generator seed)`` of the golden scenes.
GOLDEN_SCENES = ((96, 48, 32, 301), (128, 48, 32, 302), (160, 48, 32, 303))


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP16], ids=lambda p: p.value)
@pytest.mark.parametrize("shape", GOLDEN_SCENES, ids=lambda s: f"{s[0]}g")
def test_simulate_frame_matches_golden_record(precision, shape):
    num_gaussians, width, height, seed = shape
    scene = make_synthetic_scene(SyntheticConfig(
        num_gaussians=num_gaussians, width=width, height=height, seed=seed
    ))
    result = render(scene, background=BACKGROUND, collect_stats=False)
    image, frame = ScaledGauRast(SCALED_CONFIG.with_precision(precision)).simulate_frame(
        result.projected, result.binning, background=BACKGROUND
    )
    reports = [dataclasses.asdict(report) for report in frame.instance_reports]
    golden = GOLDEN[(precision.value, num_gaussians)]

    assert frame.frame_cycles == golden["frame_cycles"]
    assert {
        field: sum(report[field] for report in reports) for field in golden["totals"]
    } == golden["totals"]
    assert frame.operation_counts == golden["operation_counts"]
    assert hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()
    ).hexdigest() == golden["reports_sha256"]
    assert hashlib.sha256(
        np.ascontiguousarray(image).tobytes()
    ).hexdigest() == golden["image_sha256"]
