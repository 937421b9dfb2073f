"""Tests for the RenderService request-serving layer and its caches."""

import numpy as np
import pytest

from repro.core import GauRastSystem
from repro.gaussians.pipeline import render
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.hardware.config import GauRastConfig
from repro.serving import (
    LRUByteCache,
    RenderRequest,
    RenderService,
    SceneStore,
    synthetic_request_trace,
)


@pytest.fixture(scope="module")
def store() -> SceneStore:
    scenes = [
        make_synthetic_scene(
            SyntheticConfig(
                num_gaussians=150, width=64, height=48, seed=seed,
                sh_degree=seed % 3,
            ),
            name=f"scene-{seed}",
            num_cameras=3,
        )
        for seed in range(3)
    ]
    return SceneStore(scenes)


class TestLRUByteCache:
    def test_hit_miss_accounting(self):
        cache = LRUByteCache(100)
        assert cache.get("a") is None
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.current_bytes == 10
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUByteCache(30)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.put("c", "C", 10)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("d", "D", 10)
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.stats().evictions == 1

    def test_oversized_value_not_cached(self):
        cache = LRUByteCache(10)
        cache.put("big", "X", 100)
        assert "big" not in cache
        assert cache.current_bytes == 0

    def test_zero_budget_disables_caching(self):
        cache = LRUByteCache(0)
        cache.put("a", 1, 1)
        assert cache.get("a") is None

    def test_unbounded_cache(self):
        cache = LRUByteCache(None)
        for index in range(100):
            cache.put(index, index, 1 << 20)
        assert len(cache) == 100
        assert cache.stats().evictions == 0

    def test_replacing_entry_updates_bytes(self):
        cache = LRUByteCache(100)
        cache.put("a", 1, 40)
        cache.put("a", 2, 10)
        assert cache.current_bytes == 10
        assert cache.get("a") == 2

    def test_oversized_put_is_counted_and_cannot_poison(self):
        # Regression: an oversized put must not disturb resident entries,
        # must not corrupt the byte accounting, and must be visible in the
        # stats as a rejection.
        cache = LRUByteCache(30)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.put("big", "X", 31)
        assert "big" not in cache
        assert cache.get("a") == "A" and cache.get("b") == "B"
        stats = cache.stats()
        assert stats.current_bytes == 20
        assert stats.entries == 2
        assert stats.rejections == 1
        assert stats.evictions == 0
        # The cache keeps working normally afterwards.
        cache.put("c", "C", 10)
        assert cache.get("c") == "C"
        assert cache.current_bytes == 30

    def test_oversized_put_evicts_the_stale_entry_under_its_key(self):
        # Regression: if the key already held a (smaller) value, leaving it
        # in place would hand later get() calls *outdated* data.  The stale
        # entry must be evicted and its bytes returned to the budget.
        cache = LRUByteCache(30)
        cache.put("k", "old", 10)
        cache.put("other", "O", 10)
        cache.put("k", "too-big", 1000)
        assert cache.get("k") is None, "stale value must not survive"
        assert cache.get("other") == "O"
        stats = cache.stats()
        assert stats.current_bytes == 10
        assert stats.entries == 1
        assert stats.rejections == 1
        assert stats.evictions == 1

    def test_oversized_put_exact_budget_boundary(self):
        # nbytes == max_bytes fits (evicting everything else); one more
        # byte is rejected.
        cache = LRUByteCache(10)
        cache.put("fits", "F", 10)
        assert cache.get("fits") == "F"
        cache.put("fits", "F2", 11)
        assert "fits" not in cache
        assert cache.current_bytes == 0

    def test_negative_nbytes_rejected(self):
        cache = LRUByteCache(10)
        with pytest.raises(ValueError, match="non-negative"):
            cache.put("a", 1, -1)

    def test_unbounded_cache_never_rejects(self):
        cache = LRUByteCache(None)
        cache.put("huge", "H", 1 << 60)
        assert cache.get("huge") == "H"
        assert cache.stats().rejections == 0

    def test_hit_rate_with_zero_lookups_is_zero(self):
        # Regression (PR 5 audit): a cache that was never read must report
        # a 0.0 hit rate, not divide by zero — both fresh and after writes.
        assert LRUByteCache(100).stats().hit_rate == 0.0
        written = LRUByteCache(100)
        written.put("a", 1, 10)
        assert written.stats().hit_rate == 0.0
        assert LRUByteCache(0).stats().hit_rate == 0.0
        assert LRUByteCache(None).stats().hit_rate == 0.0

    def test_unbounded_put_replaces_stale_entry_under_same_key(self):
        # Regression (PR 5 audit): with no byte bound there is no eviction
        # pressure, but a put under an existing key must still replace the
        # stale value — and the byte accounting must follow.
        cache = LRUByteCache(None)
        cache.put("k", "old", 40)
        cache.put("k", "new", 10)
        assert cache.get("k") == "new"
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.current_bytes == 10
        assert stats.evictions == 0

    def test_zero_budget_put_counts_a_rejection(self):
        # Regression (PR 5): a disabled cache (max_bytes=0) stores nothing,
        # but its dropped puts must be visible as rejections — otherwise
        # the counters of a misconfigured deployment read as "cache never
        # used" instead of "cache turned off".
        cache = LRUByteCache(0)
        cache.put("a", 1, 1)
        cache.put("b", 2, 0)
        stats = cache.stats()
        assert stats.rejections == 2
        assert stats.entries == 0
        assert stats.current_bytes == 0


class TestRenderService:
    def test_trace_is_bit_identical_to_per_request_renders(self, store):
        # The acceptance scenario: a 3-scene, 60-request trace served through
        # the service matches a naive per-request render() loop bit for bit.
        trace = synthetic_request_trace(store, 60, seed=7)
        service = RenderService(store)
        report = service.serve(trace)
        assert report.num_requests == 60
        for request, response in zip(trace, report.responses):
            golden = render(
                store.get_scene(response.scene_index), camera=request.camera
            )
            assert np.array_equal(response.image, golden.image)

    def test_same_scene_requests_are_batched(self, store):
        trace = synthetic_request_trace(store, 30, seed=1)
        report = RenderService(store).serve(trace)
        touched_scenes = {r.scene_index for r in report.responses}
        assert report.num_batches == len(touched_scenes)

    def test_repeated_viewpoints_served_by_memoization(self, store):
        camera = store.get_cameras(0)[0]
        trace = [RenderRequest(scene_id=0, camera=camera) for _ in range(5)]
        report = RenderService(store).serve(trace)
        assert report.num_rendered == 1
        assert report.num_cache_hits == 4
        images = [r.image for r in report.responses]
        assert all(np.array_equal(images[0], image) for image in images[1:])
        # Within-call duplicates are deduplicated before the LRU, so its
        # counters track only cross-call reuse: one miss, no hits.
        assert (report.frame_cache.hits, report.frame_cache.misses) == (0, 1)

    def test_frame_cache_hits_across_serve_calls(self, store):
        service = RenderService(store)
        trace = synthetic_request_trace(store, 10, seed=3)
        service.serve(trace)
        second = service.serve(trace)
        assert second.num_rendered == 0
        assert second.frame_cache.hits >= 10

    def test_covariance_cache_hits_across_serve_calls(self, store):
        # Disable frame memoization so every serve renders and therefore
        # consults the covariance cache.
        service = RenderService(store, frame_cache_bytes=0)
        trace = synthetic_request_trace(store, 6, seed=3)
        service.serve(trace)
        second = service.serve(trace)
        assert second.covariance_cache.hits > 0
        assert second.covariance_cache.entries <= len(store)

    def test_disabled_frame_cache_still_correct(self, store):
        service = RenderService(store, frame_cache_bytes=0)
        trace = synthetic_request_trace(store, 12, seed=5)
        report = service.serve(trace)
        assert report.frame_cache.entries == 0
        for request, response in zip(trace, report.responses):
            golden = render(
                store.get_scene(response.scene_index), camera=request.camera
            )
            assert np.array_equal(response.image, golden.image)

    def test_tiny_frame_cache_evicts_but_stays_correct(self, store):
        # Budget fits roughly one frame: constant eviction, same images.
        service = RenderService(store, frame_cache_bytes=300_000)
        trace = synthetic_request_trace(store, 20, seed=11)
        report = service.serve(trace)
        assert report.frame_cache.current_bytes <= 300_000
        for request, response in zip(trace, report.responses):
            golden = render(
                store.get_scene(response.scene_index), camera=request.camera
            )
            assert np.array_equal(response.image, golden.image)

    def test_latencies_and_throughput_reported(self, store):
        trace = synthetic_request_trace(store, 15, seed=2)
        report = RenderService(store).serve(trace)
        assert report.wall_seconds > 0
        assert report.requests_per_second > 0
        latencies = [r.latency_s for r in report.responses]
        assert all(lat > 0 for lat in latencies)
        assert report.mean_latency_s <= report.max_latency_s
        assert report.max_latency_s <= report.wall_seconds + 1e-6
        assert report.latency_percentile(95) <= report.max_latency_s + 1e-12

    def test_submit_single_request(self, store):
        service = RenderService(store)
        camera = store.get_cameras(2)[1]
        response = service.submit(RenderRequest(scene_id=2, camera=camera))
        golden = render(store.get_scene(2), camera=camera)
        assert np.array_equal(response.image, golden.image)
        assert not response.from_cache
        assert service.submit(
            RenderRequest(scene_id=2, camera=camera)
        ).from_cache

    def test_camera_less_request_rejected(self, store):
        # Rendering would fall back to the scene's default view, which the
        # frame key could not tell apart from any other camera-less request.
        with pytest.raises(TypeError, match="request camera must be a Camera"):
            RenderService(store).serve([RenderRequest(scene_id=0, camera=None)])

    def test_scene_lookup_by_name(self, store):
        camera = store.get_cameras(0)[0]
        response = RenderService(store).submit(
            RenderRequest(scene_id="scene-0", camera=camera)
        )
        assert response.scene_index == 0

    def test_empty_trace(self, store):
        report = RenderService(store).serve([])
        assert report.num_requests == 0
        assert report.num_batches == 0

    def test_trace_generator_validates_inputs(self, store):
        with pytest.raises(ValueError):
            synthetic_request_trace(SceneStore(), 5)
        with pytest.raises(ValueError):
            synthetic_request_trace(store, -1)
        trace = synthetic_request_trace(store, 8, seed=0)
        assert len(trace) == 8


class TestTraceEvaluation:
    def test_hardware_replay_counts_distinct_frames_once(self, store):
        system = GauRastSystem(config=GauRastConfig(num_instances=2))
        camera_a, camera_b = store.get_cameras(0)[:2]
        trace = [
            RenderRequest(scene_id=0, camera=camera_a),
            RenderRequest(scene_id=0, camera=camera_b),
            RenderRequest(scene_id=0, camera=camera_a),
            RenderRequest(scene_id=0, camera=camera_a),
        ]
        evaluation = system.evaluate_trace(store, trace)
        assert len(evaluation.frame_reports) == 2
        assert len(evaluation.request_cycles) == 4
        assert evaluation.naive_cycles > evaluation.served_cycles
        assert evaluation.hardware_speedup > 1.0
        assert evaluation.requests_per_second > 0

    def test_functional_results_match_standalone_renders(self, store):
        system = GauRastSystem(config=GauRastConfig(num_instances=2))
        trace = synthetic_request_trace(store, 10, seed=9)
        evaluation = system.evaluate_trace(store, trace)
        for request, response in zip(trace, evaluation.service.responses):
            golden = render(
                store.get_scene(response.scene_index), camera=request.camera,
                collect_stats=False,
            )
            assert np.array_equal(response.image, golden.image)
