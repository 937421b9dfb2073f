"""Tests of the benchmark's own machinery: seeded inputs and the tracer.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import loadgen
import run
from spans import SpanRecorder, instrument

from repro.gaussians import pipeline, sorting
from repro.gaussians.gaussian import GaussianCloud
from repro.hardware.multi import ScaledGauRast
from repro.serving import SceneStore

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _pose(request):
    return (request.scene_id, request.camera.world_to_camera.tobytes())


def test_unique_views_stream_is_a_function_of_the_seed():
    first = [_pose(loadgen.unique_view_request(7, 1, i)) for i in range(12)]
    again = [_pose(loadgen.unique_view_request(7, 1, i)) for i in range(12)]
    other = [_pose(loadgen.unique_view_request(8, 1, i)) for i in range(12)]
    warmup = [_pose(loadgen.unique_view_request(7, 0, i)) for i in range(12)]
    assert first == again
    assert first != other
    assert len(set(first + warmup)) == len(first) + len(warmup)
    sizes = [scene for scene, _ in first]
    assert sizes == list(loadgen.UNIQUE_SIZE_PATTERN) * 4


def test_open_loop_schedule_is_a_function_of_the_seed():
    cameras = [[f"camera-{s}-{c}" for c in range(3)] for s in range(4)]

    def keys(seed):
        triples = loadgen.hotspot_requests(seed, 1, 200, 2, cameras)
        return [(scene, camera) for scene, camera, _ in triples]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)
    hot_share = sum(scene == 2 for scene, _ in keys(3)) / 200
    assert 0.7 < hot_share < 0.9

    schedule = loadgen.arrival_schedule(3, 1, 500, 250.0)
    np.testing.assert_array_equal(schedule, loadgen.arrival_schedule(3, 1, 500, 250.0))
    assert not np.array_equal(schedule, loadgen.arrival_schedule(4, 1, 500, 250.0))
    assert np.all(np.diff(schedule) > 0)
    assert 1.6 < schedule[-1] < 2.4  # 500 requests at 250 req/s


def test_hw_round_visits_the_pool_once_per_round():
    first = loadgen.hw_round(5, 0, 12)
    assert first == loadgen.hw_round(5, 0, 12)
    assert first != loadgen.hw_round(6, 0, 12)
    assert sorted(frame for frame, _ in first) == list(range(12))
    assert all(2 <= length <= 4 for _, length in first)


def test_instrument_records_nested_spans_and_restores_entry_points():
    originals = (
        pipeline.preprocess, pipeline.bin_and_sort, pipeline.rasterize_tiles,
        sorting.duplicate_keys, GaussianCloud.__dict__["covariances"],
        ScaledGauRast.__dict__["simulate_frame"],
    )
    store = SceneStore([loadgen.build_scene(40, 32, 32, 1)])
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with instrument(recorder, stores=[store]):
            assert pipeline.preprocess is not originals[0]
            with recorder.span("client.request", request_id=0):
                scene = store.get_scene(0)
                pipeline.render(scene, covariances=scene.cloud.covariances())
            raise RuntimeError("the wrappers must come off anyway")
    assert originals == (
        pipeline.preprocess, pipeline.bin_and_sort, pipeline.rasterize_tiles,
        sorting.duplicate_keys, GaussianCloud.__dict__["covariances"],
        ScaledGauRast.__dict__["simulate_frame"],
    )
    assert "get_scene" not in store.__dict__

    names = {span[0] for span in recorder.spans}
    assert names == {
        "client.request", "storage.get_scene", "projection.covariances",
        "projection.preprocess", "sorting.bin_and_sort", "sorting.duplicate_keys",
        "rasterize.tiles",
    }
    assert all(span[4] == 0 for span in recorder.spans)
    assert recorder.counts["sorting.keys"] > 0
    self_times = recorder.self_times()
    assert all(value >= 0 for value in self_times.values())
    assert sum(self_times.values()) == pytest.approx(recorder.root_cover_seconds())


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
