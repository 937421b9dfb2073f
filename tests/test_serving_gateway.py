"""Tests for the async render gateway (repro.serving.gateway).

The contracts pinned here:

* **Bit-identity** — every frame a gateway serve completes is
  ``np.array_equal`` to the synchronous :class:`RenderService` (and
  sharded fleet) response for the same request, whatever the queue bound,
  overload policy, or lane assignment.
* **Ordering** — coalescing and priority lanes may reorder the *work*,
  never the *report*: responses come back sorted by submission id, aligned
  one-to-one with the request stream.
* **Reconciliation** — every submitted request terminates as exactly one
  of completed / shed / rejected / expired, and the coalesce count equals
  the stream's in-flight duplicate count.
* **Backpressure semantics** — ``block`` completes everything, ``reject``
  refuses arrivals beyond the bound, ``shed-oldest`` drops the oldest
  queued work of the lowest-priority lane, deadlines drop stale entries.
"""

import asyncio

import numpy as np
import pytest

from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import (
    OVERLOAD_POLICIES,
    RenderGateway,
    RenderRequest,
    RenderService,
    SceneStore,
    ShardedRenderService,
    generate_requests,
    popularity_priority,
)


@pytest.fixture(scope="module")
def store() -> SceneStore:
    scenes = [
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=80, width=32, height=24, seed=seed),
            name=f"scene-{seed}",
            num_cameras=3,
        )
        for seed in range(3)
    ]
    return SceneStore(scenes)


@pytest.fixture(scope="module")
def trace(store):
    """A duplicate-heavy hotspot burst (40 requests, ~9 distinct frames)."""
    return generate_requests(store, 40, pattern="hotspot", seed=3)


def _distinct_flights(store, trace):
    return len({
        (store.resolve_index(r.scene_id), r.camera.world_to_camera.tobytes())
        for r in trace
    })


class TestBitIdentityAndOrdering:
    def test_gateway_frames_match_the_synchronous_service(self, store, trace):
        report = RenderGateway(RenderService(store)).serve(trace)
        reference = RenderService(store).serve(trace)
        assert report.num_completed == len(trace)
        for mine, ref in zip(report.responses, reference.responses):
            assert np.array_equal(mine.image, ref.image)
            assert mine.frame_key == ref.frame_key
            assert mine.level == ref.level

    def test_coalescing_does_not_reorder_responses(self, store, trace):
        report = RenderGateway(RenderService(store)).serve(trace)
        for position, response in enumerate(report.responses):
            assert response.request_id == position
            assert response.request is trace[position]

    def test_gateway_over_the_sharded_fleet_is_bit_identical(self, store, trace):
        fleet = ShardedRenderService(store, num_workers=2, use_processes=False)
        report = RenderGateway(fleet).serve(trace)
        reference = RenderService(store).serve(trace)
        assert report.num_completed == len(trace)
        for mine, ref in zip(report.responses, reference.responses):
            assert np.array_equal(mine.image, ref.image)

    def test_seeded_replay_through_the_gateway_is_deterministic(self, store):
        # The determinism contract behind `serve --seed`: the same seed
        # regenerates the same stream, and two gateway serves of it (fresh
        # services, so nothing is answered from a warm cache) produce the
        # same frames in the same order.
        first_trace = generate_requests(store, 30, pattern="zipf", seed=11)
        replay_trace = generate_requests(store, 30, pattern="zipf", seed=11)
        first = RenderGateway(RenderService(store)).serve(first_trace)
        replay = RenderGateway(RenderService(store)).serve(replay_trace)
        assert [r.request_id for r in replay.responses] == list(range(30))
        for mine, ref in zip(replay.responses, first.responses):
            assert np.array_equal(mine.image, ref.image)
            assert mine.status == ref.status == "ok"


class TestCoalescing:
    def test_burst_duplicates_share_one_flight(self, store, trace):
        distinct = _distinct_flights(store, trace)
        # Disable the frame cache so reuse can only come from coalescing.
        service = RenderService(store, frame_cache_bytes=0)
        report = RenderGateway(service, queue_depth=len(trace)).serve(trace)
        assert report.num_completed == len(trace)
        assert report.num_coalesced == len(trace) - distinct
        assert report.coalesce_rate == pytest.approx(
            (len(trace) - distinct) / len(trace)
        )
        # One cache fill per flight: the underlying service rendered each
        # distinct frame exactly once (no put ever replaced an entry, and
        # with the cache disabled every render counted one rejection).
        covariance_stats, frame_stats = service.cache_stats()
        assert frame_stats.rejections == distinct

    def test_sequential_submits_do_not_coalesce(self, store, trace):
        # Coalescing is an *in-flight* phenomenon: one-at-a-time submits
        # always find an empty flight table (the previous request already
        # completed) and are answered by the frame cache instead.
        gateway = RenderGateway(RenderService(store))

        async def sequential():
            async with gateway:
                return [await gateway.submit(request) for request in trace[:8]]

        responses = asyncio.run(sequential())
        assert all(not response.coalesced for response in responses)

    def test_coalesced_response_is_the_leaders_frame(self, store):
        request = generate_requests(store, 1, seed=5)[0]
        duplicate = RenderRequest(
            scene_id=request.scene_id, camera=request.camera
        )
        service = RenderService(store, frame_cache_bytes=0)
        report = RenderGateway(service).serve([request, duplicate])
        leader, follower = report.responses
        assert follower.coalesced and not leader.coalesced
        assert follower.response.result is leader.response.result


class TestBackpressure:
    def test_block_policy_completes_everything(self, store, trace):
        # Queue bound far below the distinct-flight count: admissions must
        # wait for space, but nothing is ever dropped.
        report = RenderGateway(
            RenderService(store, frame_cache_bytes=0),
            queue_depth=2, max_batch=2, overload_policy="block",
        ).serve(trace)
        assert report.num_completed == len(trace)
        assert report.num_dropped == 0
        assert max(report.queue_depth_samples) <= 2

    def test_shed_oldest_drops_are_reconciled(self, store, trace):
        report = RenderGateway(
            RenderService(store, frame_cache_bytes=0),
            queue_depth=3, overload_policy="shed-oldest",
        ).serve(trace)
        assert report.num_shed > 0
        assert (
            report.num_completed + report.num_shed + report.num_rejected
            + report.num_expired == len(trace)
        )
        for response in report.responses:
            if response.status == "shed":
                assert response.response is None and not response.ok
        # Completed frames are still bit-identical to the sync service.
        reference = RenderService(store).serve(trace)
        for mine, ref in zip(report.responses, reference.responses):
            if mine.ok:
                assert np.array_equal(mine.image, ref.image)

    def test_shed_oldest_never_evicts_higher_priority_work(self, store):
        # Regression (review): with only high-priority work queued, a new
        # low-priority arrival must be shed itself — not evict the hot
        # request it is outranked by.
        first, second = generate_requests(store, 2, pattern="uniform", seed=9)
        assert _distinct_flights(store, [first, second]) == 2
        report = RenderGateway(
            RenderService(store), queue_depth=1, overload_policy="shed-oldest"
        ).serve([first, second], priorities=[0, 1])
        high, low = report.responses
        assert high.status == "ok"
        assert low.status == "shed"
        # The mirror case: a high-priority arrival may shed queued
        # low-priority work.
        report = RenderGateway(
            RenderService(store), queue_depth=1, overload_policy="shed-oldest"
        ).serve([first, second], priorities=[1, 0])
        low, high = report.responses
        assert low.status == "shed"
        assert high.status == "ok"

    def test_reject_policy_refuses_excess_arrivals(self, store, trace):
        report = RenderGateway(
            RenderService(store, frame_cache_bytes=0),
            queue_depth=2, overload_policy="reject",
        ).serve(trace)
        assert report.num_rejected > 0
        assert report.num_completed + report.num_rejected == len(trace)

    def test_expired_deadline_drops_the_request(self, store, trace):
        report = RenderGateway(RenderService(store)).serve(
            trace, deadlines=0.0
        )
        assert report.num_expired == len(trace)
        assert report.num_completed == 0

    def test_generous_deadline_changes_nothing(self, store, trace):
        report = RenderGateway(RenderService(store)).serve(
            trace, deadlines=3600.0
        )
        assert report.num_completed == len(trace)
        assert report.num_expired == 0


class TestPriorityLanes:
    def test_high_lane_is_served_first(self, store):
        # Two distinct frames, submitted low-priority first; with
        # max_batch=1 the dispatcher must still serve the high lane first,
        # so the low-priority request finishes strictly later.
        low, high = generate_requests(store, 2, pattern="uniform", seed=9)[:2]
        assert _distinct_flights(store, [low, high]) == 2
        report = RenderGateway(
            RenderService(store), max_batch=1
        ).serve([low, high], priorities=[1, 0])
        low_response, high_response = report.responses
        assert high_response.priority == 0 and low_response.priority == 1
        assert high_response.latency_s < low_response.latency_s

    def test_popularity_priority_maps_hot_scenes_to_lane_zero(self, store):
        priority_of = popularity_priority(store, pattern="hotspot", seed=3)
        assert len(priority_of.hot_scenes) == 1
        (hot,) = priority_of.hot_scenes
        camera = store.get_cameras(hot)[0]
        assert priority_of(RenderRequest(scene_id=hot, camera=camera)) == 0
        cold = next(i for i in range(len(store)) if i != hot)
        assert priority_of(
            RenderRequest(scene_id=cold, camera=camera)
        ) == 1

    def test_uniform_traffic_has_no_hot_scenes(self, store):
        priority_of = popularity_priority(store, pattern="uniform")
        assert priority_of.hot_scenes == frozenset()

    def test_lane_assignment_flows_into_the_report(self, store, trace):
        priority_of = popularity_priority(store, pattern="hotspot", seed=3)
        report = RenderGateway(
            RenderService(store), priority_of=priority_of
        ).serve(trace)
        for response in report.responses:
            expected = priority_of(response.request)
            assert response.priority == expected


class TestReportAndValidation:
    def test_empty_serve_yields_an_empty_report(self, store):
        report = RenderGateway(RenderService(store)).serve([])
        assert report.num_requests == 0
        assert report.coalesce_rate == 0.0
        assert report.latency_percentile(95) == 0.0
        assert report.queue_depth_percentile(95) == 0.0
        assert report.mean_latency_s == report.max_latency_s == 0.0

    def test_constructor_validation(self, store):
        service = RenderService(store)
        with pytest.raises(ValueError, match="queue_depth"):
            RenderGateway(service, queue_depth=0)
        with pytest.raises(ValueError, match="overload policy"):
            RenderGateway(service, overload_policy="drop-newest")
        with pytest.raises(ValueError, match="max_batch"):
            RenderGateway(service, max_batch=0)
        with pytest.raises(ValueError, match="num_lanes"):
            RenderGateway(service, num_lanes=0)
        assert set(OVERLOAD_POLICIES) == {"block", "shed-oldest", "reject"}

    def test_submit_outside_a_running_gateway_raises(self, store, trace):
        gateway = RenderGateway(RenderService(store))
        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(gateway.submit(trace[0]))

    def test_misaligned_priorities_and_deadlines_raise(self, store, trace):
        gateway = RenderGateway(RenderService(store))
        with pytest.raises(ValueError, match="priorities"):
            gateway.serve(trace, priorities=[0])
        with pytest.raises(ValueError, match="deadlines"):
            gateway.serve(trace, deadlines=[1.0])

    def test_cache_stats_surface(self, store, trace):
        service = RenderService(store)
        gateway = RenderGateway(service)
        report = gateway.serve(trace)
        covariance_stats, frame_stats = service.cache_stats()
        assert report.frame_cache == frame_stats
        assert report.covariance_cache == covariance_stats
        fleet = ShardedRenderService(store, num_workers=2, use_processes=False)
        fleet_cov, fleet_frame = fleet.cache_stats()
        assert fleet_cov.hits == fleet_cov.misses == 0

    def test_spaced_arrivals_serve_like_a_burst(self, store):
        short = generate_requests(store, 6, pattern="hotspot", seed=3)
        report = RenderGateway(RenderService(store)).serve(
            short, arrival_interval_s=0.002
        )
        assert report.num_completed == len(short)
        reference = RenderService(store).serve(short)
        for mine, ref in zip(report.responses, reference.responses):
            assert np.array_equal(mine.image, ref.image)


class TestHardwareReplay:
    def test_evaluate_trace_accepts_a_gateway(self, store, trace):
        from repro.core import GauRastSystem

        system = GauRastSystem()
        via_gateway = system.evaluate_trace(
            store, trace, gateway=RenderGateway(RenderService(store))
        )
        direct = system.evaluate_trace(store, trace)
        # Bit-identical frames -> identical distinct-frame replay.
        assert via_gateway.served_cycles == direct.served_cycles
        assert via_gateway.naive_cycles == direct.naive_cycles
        assert via_gateway.service.num_completed == len(trace)

    def test_evaluate_trace_rejects_service_and_gateway_together(self, store, trace):
        from repro.core import GauRastSystem

        system = GauRastSystem()
        with pytest.raises(ValueError, match="not both"):
            system.evaluate_trace(
                store, trace,
                service=RenderService(store),
                gateway=RenderGateway(RenderService(store)),
            )

    def test_dropped_requests_are_excluded_from_the_replay(self, store, trace):
        from repro.core import GauRastSystem

        system = GauRastSystem()
        gateway = RenderGateway(
            RenderService(store), queue_depth=2, overload_policy="reject"
        )
        evaluation = system.evaluate_trace(store, trace, gateway=gateway)
        completed = evaluation.service.num_completed
        assert completed < len(trace)
        assert len(evaluation.request_cycles) == completed
