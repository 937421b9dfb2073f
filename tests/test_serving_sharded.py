"""Tests for the sharded multi-worker serving layer."""

import multiprocessing

import numpy as np
import pytest

from repro.core import GauRastSystem
from repro.gaussians.pipeline import render
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.hardware.config import GauRastConfig
from repro.serving import (
    CacheStats,
    RenderRequest,
    RenderService,
    SceneStore,
    ShardedRenderService,
    generate_requests,
    merge_cache_stats,
)
from repro.serving.sharded import Stats


@pytest.fixture(scope="module")
def store() -> SceneStore:
    scenes = [
        make_synthetic_scene(
            SyntheticConfig(
                num_gaussians=120, width=48, height=36, seed=seed,
                sh_degree=seed % 3,
            ),
            name=f"scene-{seed}",
            num_cameras=3,
        )
        for seed in range(5)
    ]
    return SceneStore(scenes)


@pytest.fixture(scope="module")
def trace(store):
    return generate_requests(store, 40, pattern="zipf", seed=3)


@pytest.fixture(scope="module")
def single_report(store, trace):
    return RenderService(store).serve(trace)


class TestMergeCacheStats:
    def test_counters_add(self):
        merged = merge_cache_stats([
            CacheStats(1, 2, 3, 4, 500, 1000),
            CacheStats(10, 20, 30, 40, 5000, 1000),
        ])
        assert (merged.hits, merged.misses, merged.evictions) == (11, 22, 33)
        assert merged.entries == 44
        assert merged.current_bytes == 5500
        assert merged.max_bytes == 2000

    def test_any_unbounded_shard_makes_the_fleet_unbounded(self):
        merged = merge_cache_stats([
            CacheStats(0, 0, 0, 0, 0, 100),
            CacheStats(0, 0, 0, 0, 0, None),
        ])
        assert merged.max_bytes is None

    def test_empty(self):
        merged = merge_cache_stats([])
        assert merged.hits == 0 and merged.max_bytes is None


class TestShardedRenderService:
    @pytest.mark.parametrize("use_processes", [True, False])
    def test_bit_identical_to_single_worker(
        self, store, trace, single_report, use_processes
    ):
        # The acceptance scenario: the fleet's frames, frame keys and scene
        # indices all match the single-worker service response-for-response.
        with ShardedRenderService(
            store, num_workers=3, use_processes=use_processes
        ) as fleet:
            report = fleet.serve(trace)
        assert report.num_requests == single_report.num_requests
        for mine, ref in zip(report.responses, single_report.responses):
            assert np.array_equal(mine.image, ref.image)
            assert mine.frame_key == ref.frame_key
            assert mine.scene_index == ref.scene_index

    def test_scene_affinity_partition(self, store, trace):
        with ShardedRenderService(store, num_workers=3) as fleet:
            report = fleet.serve(trace)
        owned = [set(s.scene_indices) for s in report.shards]
        # Disjoint cover of the store, assigned modulo the worker count.
        assert set.union(*owned) == set(range(len(store)))
        assert sum(len(o) for o in owned) == len(store)
        for shard_id, scenes in enumerate(owned):
            assert all(index % 3 == shard_id for index in scenes)
        # Every request was counted by exactly its scene's owner.
        assert sum(s.num_requests for s in report.shards) == len(trace)

    def test_fleet_report_aggregates(self, store, trace):
        with ShardedRenderService(store, num_workers=3) as fleet:
            report = fleet.serve(trace)
        assert report.num_batches == sum(s.num_batches for s in report.shards)
        assert report.num_cache_hits == sum(
            s.num_cache_hits for s in report.shards
        )
        assert report.num_rendered + report.num_cache_hits == len(trace)
        assert report.requests_per_second > 0
        assert report.latency_percentile(50) <= report.latency_percentile(95)
        assert report.latency_percentile(95) <= report.max_latency_s + 1e-12
        assert 0 < report.critical_path_seconds <= sum(
            s.busy_seconds for s in report.shards
        )
        assert len(report.utilization) == 3
        assert max(report.utilization) == pytest.approx(1.0)
        assert all(0.0 <= u <= 1.0 for u in report.utilization)
        assert report.frame_cache.entries == sum(
            s.frame_cache.entries for s in report.shards
        )

    def test_caches_stay_warm_across_serves_and_reset(self, store, trace):
        with ShardedRenderService(store, num_workers=2) as fleet:
            first = fleet.serve(trace)
            assert first.num_rendered > 0
            warm = fleet.serve(trace)
            assert warm.num_rendered == 0          # all frames memoized
            fleet.reset_caches()
            cold = fleet.serve(trace)
            assert cold.num_rendered == first.num_rendered

    def test_idle_workers_are_reported(self, store):
        # 7 workers over 5 scenes: shards 5 and 6 own nothing.
        camera = store.get_cameras(0)[0]
        with ShardedRenderService(store, num_workers=7) as fleet:
            report = fleet.serve([RenderRequest(scene_id=0, camera=camera)])
        assert len(report.shards) == 7
        assert report.shards[0].num_requests == 1
        assert all(s.num_requests == 0 for s in report.shards[1:])
        assert report.shards[5].scene_indices == ()
        assert report.num_requests == 1

    def test_single_worker_stays_in_process(self, store, trace, single_report):
        before = set(multiprocessing.active_children())
        fleet = ShardedRenderService(store, num_workers=1)
        assert set(multiprocessing.active_children()) <= before
        report = fleet.serve(trace)
        for mine, ref in zip(report.responses, single_report.responses):
            assert np.array_equal(mine.image, ref.image)
        fleet.close()

    def test_scene_lookup_by_name_and_submit(self, store):
        camera = store.get_cameras(4)[1]
        with ShardedRenderService(store, num_workers=3) as fleet:
            response = fleet.submit(
                RenderRequest(scene_id="scene-4", camera=camera)
            )
            assert response.scene_index == 4
            golden = render(store.get_scene(4), camera=camera)
            assert np.array_equal(response.image, golden.image)
            assert fleet.submit(
                RenderRequest(scene_id="scene-4", camera=camera)
            ).from_cache

    def test_empty_trace(self, store):
        with ShardedRenderService(store, num_workers=2) as fleet:
            report = fleet.serve([])
        assert report.num_requests == 0
        assert report.num_batches == 0
        assert report.critical_path_seconds == 0.0
        assert len(report.shards) == 2

    def test_validation_and_lifecycle(self, store):
        with pytest.raises(ValueError):
            ShardedRenderService(store, num_workers=0)
        fleet = ShardedRenderService(store, num_workers=2)
        camera = store.get_cameras(0)[0]
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(RuntimeError):
            fleet.serve([RenderRequest(scene_id=0, camera=camera)])

    @pytest.mark.parametrize("use_processes", [True, False])
    def test_worker_survives_a_bad_request(self, store, use_processes):
        # An unknown scene id raises in the dispatcher without wedging the
        # fleet; the workers keep serving afterwards.
        camera = store.get_cameras(0)[0]
        with ShardedRenderService(
            store, num_workers=2, use_processes=use_processes
        ) as fleet:
            with pytest.raises(KeyError):
                fleet.serve([RenderRequest(scene_id="nope", camera=camera)])
            response = fleet.submit(RenderRequest(scene_id=0, camera=camera))
            assert response.image.shape == (36, 48, 3)

    @pytest.mark.parametrize("use_processes", [True, False])
    def test_worker_error_does_not_desync_the_fleet(self, store, use_processes):
        # One shard's worker raising mid-serve (camera=None explodes inside
        # the worker, past the dispatcher's own checks) must not leave the
        # other shard's reply unread: a stale reply would be handed to the
        # *next* message on that pipe.  In-process shards fail the same way.
        camera = store.get_cameras(1)[0]
        with ShardedRenderService(
            store, num_workers=2, use_processes=use_processes
        ) as fleet:
            with pytest.raises(RuntimeError, match="shard 0 worker failed"):
                fleet.serve([
                    RenderRequest(scene_id=0, camera=None),   # shard 0 dies
                    RenderRequest(scene_id=1, camera=camera),  # shard 1 fine
                ])
            # Both shards keep serving fresh requests with fresh replies.
            response = fleet.submit(RenderRequest(scene_id=1, camera=camera))
            golden = render(store.get_scene(1), camera=camera)
            assert np.array_equal(response.image, golden.image)
            assert fleet.serve(
                [RenderRequest(scene_id=0, camera=store.get_cameras(0)[0])]
            ).num_requests == 1

    @pytest.mark.parametrize("use_processes", [True, False])
    def test_non_message_gets_an_error_reply(self, store, use_processes):
        # Anything that is not a worker message is answered with an error
        # reply, and the worker keeps serving.
        camera = store.get_cameras(0)[0]
        with ShardedRenderService(
            store, num_workers=2, use_processes=use_processes
        ) as fleet:
            with pytest.raises(RuntimeError, match="shard 0 worker failed"):
                fleet._call(0, ("stats",))
            assert len(fleet._call(0, Stats())) == 2
            response = fleet.submit(RenderRequest(scene_id=0, camera=camera))
            golden = render(store.get_scene(0), camera=camera)
            assert np.array_equal(response.image, golden.image)


class TestReplicatedPlacement:
    def test_hot_scene_lives_on_k_shards_and_traffic_splits(self, store):
        # Replication makes the hot scene resident on 2 shards; load-aware
        # routing splits its requests instead of pinning them to one owner.
        camera = store.get_cameras(1)[0]
        hot_only = [RenderRequest(scene_id=1, camera=camera)] * 20
        with ShardedRenderService(
            store, num_workers=3, replication=2, hot_scenes=[1],
            use_processes=False, dispatch_window=4,
        ) as fleet:
            owners = fleet.placement.owners(1)
            assert len(owners) == 2 and owners[0] == 1 % 3
            report = fleet.serve(hot_only)
        served_by = [report.shards[s].num_requests for s in owners]
        assert sum(served_by) == 20
        assert min(served_by) == 10  # an even split, deterministically
        assert 1 in report.shards[owners[0]].scene_indices
        assert 1 in report.shards[owners[1]].scene_indices

    def test_replicated_serve_stays_bit_identical(
        self, store, trace, single_report
    ):
        with ShardedRenderService(
            store, num_workers=3, replication=3,
            hot_scenes=range(len(store)),
        ) as fleet:
            report = fleet.serve(trace)
        for mine, ref in zip(report.responses, single_report.responses):
            assert np.array_equal(mine.image, ref.image)
            assert mine.frame_key == ref.frame_key

    def test_constructor_validation(self, store):
        with pytest.raises(ValueError, match="replication"):
            ShardedRenderService(store, num_workers=2, replication=0)
        with pytest.raises(ValueError, match="dispatch_window"):
            ShardedRenderService(store, num_workers=2, dispatch_window=0)


class TestWorkerShutdownAudit:
    """Regressions for the ``__exit__``/close contract: workers must be
    joined (or terminated) even when ``serve`` raises mid-stream or replies
    are still in flight."""

    def _processes(self, fleet):
        return [p for p in fleet._processes if p is not None]

    def test_close_joins_workers_after_serve_raises_mid_stream(self, store):
        fleet = ShardedRenderService(store, num_workers=2)
        processes = self._processes(fleet)
        camera = store.get_cameras(1)[0]
        with pytest.raises(RuntimeError, match="worker failed"):
            fleet.serve([
                RenderRequest(scene_id=0, camera=None),
                RenderRequest(scene_id=1, camera=camera),
            ])
        fleet.close()
        assert all(not p.is_alive() for p in processes)
        # A clean exit (the close command), not a terminate.
        assert all(p.exitcode == 0 for p in processes)

    def test_close_drains_unread_replies(self, store):
        # A reply left in flight (dispatch without collect) must not wedge
        # close(): the dispatcher drains the pipe before sending Close, so
        # the worker still exits cleanly.
        fleet = ShardedRenderService(store, num_workers=2)
        processes = self._processes(fleet)
        fleet._connections[0].send(Stats())
        fleet._connections[1].send(Stats())
        fleet.close()
        assert all(not p.is_alive() for p in processes)
        assert all(p.exitcode == 0 for p in processes)

    def test_context_manager_exits_on_exception(self, store):
        camera = store.get_cameras(0)[0]
        with pytest.raises(RuntimeError, match="worker failed"):
            with ShardedRenderService(store, num_workers=2) as fleet:
                processes = self._processes(fleet)
                fleet.serve([RenderRequest(scene_id=0, camera=None)])
        assert all(not p.is_alive() for p in processes)
        # The fleet is closed; further serves are refused.
        with pytest.raises(RuntimeError, match="closed"):
            fleet.serve([RenderRequest(scene_id=0, camera=camera)])

    def test_close_after_kill_worker(self, store):
        fleet = ShardedRenderService(store, num_workers=3)
        processes = self._processes(fleet)
        fleet.kill_worker(1)
        fleet.close()
        fleet.close()  # idempotent
        assert all(not p.is_alive() for p in processes)


class TestShardedTraceEvaluation:
    def test_evaluate_trace_with_workers(self, store, trace):
        system = GauRastSystem(config=GauRastConfig(num_instances=2))
        sharded = system.evaluate_trace(store, trace[:12], workers=3)
        single = system.evaluate_trace(store, trace[:12])
        # Bit-identical serving implies identical hardware replay.
        assert sharded.served_cycles == single.served_cycles
        assert sharded.naive_cycles == single.naive_cycles
        assert sharded.service.num_requests == 12
        assert hasattr(sharded.service, "shards")
        for mine, ref in zip(
            sharded.service.responses, single.service.responses
        ):
            assert np.array_equal(mine.image, ref.image)
