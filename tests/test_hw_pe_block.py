"""Tests for the PE block's tile-wide datapath pass.

The block applies each primitive to a whole tile in one lane-parallel pass
instead of one pass per PE.  The differential tests compare it against 16
independent :class:`ProcessingElement` objects, each applying the same
batches to its own interleaved pixels (pixel ``p`` belongs to PE
``p % 16``): colours, depths, batch records, per-PE counters and operation
tallies must all be identical.  The golden test pins the multi-instance
simulator's outputs bit for bit on fixed synthetic frames.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gaussians.pipeline import render
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.hardware.config import GauRastConfig, SCALED_CONFIG
from repro.hardware.fp import Precision, quantize
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
            units, quantize(pixel_centers, precision), lanes, 16, state, primitive
        )
        assert evaluated.tolist() == [pe.fragments_evaluated for pe in pes]
        assert np.array_equal(state.color, ref_color)
        assert np.array_equal(state.transmittance, ref_transmittance)
        assert units.tally.counts == _merged_tally(pes)
        # Subtasks 1-2 cost 4 add, 8 mul, 1 exp per active fragment; a PE
        # that blends pays 4 add and 5 mul more on every active fragment.
        expected = {
            "add": 4 * evaluated.sum() + 4 * evaluated[blended].sum(),
            "mul": 8 * evaluated.sum() + 5 * evaluated[blended].sum(),
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
