"""Tests for the synthetic traffic generator (repro.serving.traffic)."""

import numpy as np
import pytest

from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import (
    TRAFFIC_PATTERNS,
    FailurePlan,
    RenderRequest,
    SceneStore,
    ShardedRenderService,
    generate_requests,
    popularity_priority,
    scene_popularity,
    synthetic_request_trace,
)


@pytest.fixture(scope="module")
def store() -> SceneStore:
    scenes = [
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=60, width=32, height=24, seed=seed),
            name=f"scene-{seed}",
            num_cameras=2,
        )
        for seed in range(5)
    ]
    return SceneStore(scenes)


def _scene_counts(store, trace):
    counts = np.zeros(len(store), dtype=int)
    for request in trace:
        counts[store.resolve_index(request.scene_id)] += 1
    return counts


class TestScenePopularity:
    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_is_a_distribution(self, pattern):
        popularity = scene_popularity(7, pattern=pattern, seed=3)
        assert popularity.shape == (7,)
        assert np.all(popularity > 0)
        assert popularity.sum() == pytest.approx(1.0)

    def test_uniform_is_flat(self):
        assert np.allclose(scene_popularity(4, "uniform"), 0.25)

    def test_zipf_is_skewed_and_seed_moves_the_ranking(self):
        a = scene_popularity(6, "zipf", seed=0)
        assert a.max() > 2 * a.min()
        # Sorted shapes match across seeds; the assignment permutes.
        b = scene_popularity(6, "zipf", seed=1)
        assert np.allclose(np.sort(a), np.sort(b))
        seeds = {scene_popularity(6, "zipf", seed=s).argmax() for s in range(20)}
        assert len(seeds) > 1

    def test_hotspot_mass(self):
        popularity = scene_popularity(5, "hotspot", hotspot_fraction=0.8)
        assert popularity.max() == pytest.approx(0.8)
        assert np.count_nonzero(np.isclose(popularity, popularity.max())) == 1

    def test_single_scene_degenerates_to_certainty(self):
        for pattern in TRAFFIC_PATTERNS:
            assert scene_popularity(1, pattern)[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            scene_popularity(0, "uniform")
        with pytest.raises(ValueError):
            scene_popularity(3, "vortex")
        with pytest.raises(ValueError):
            scene_popularity(3, "zipf", zipf_exponent=0.0)
        with pytest.raises(ValueError):
            scene_popularity(3, "hotspot", hotspot_fraction=0.0)
        with pytest.raises(ValueError):
            scene_popularity(3, "hotspot", hotspot_fraction=1.5)


class TestGenerateRequests:
    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_requests_are_valid_and_deterministic(self, store, pattern):
        trace = generate_requests(store, 30, pattern=pattern, seed=5)
        replay = generate_requests(store, 30, pattern=pattern, seed=5)
        assert len(trace) == 30
        for request, again in zip(trace, replay):
            index = store.resolve_index(request.scene_id)
            assert 0 <= index < len(store)
            assert request.scene_id == again.scene_id
            assert np.array_equal(
                request.camera.world_to_camera, again.camera.world_to_camera
            )

    def test_different_seeds_differ(self, store):
        a = generate_requests(store, 40, pattern="zipf", seed=0)
        b = generate_requests(store, 40, pattern="zipf", seed=1)
        assert [r.scene_id for r in a] != [r.scene_id for r in b]

    def test_zipf_concentrates_traffic(self, store):
        counts = _scene_counts(
            store, generate_requests(store, 400, pattern="zipf", seed=2)
        )
        uniform_share = 400 / len(store)
        assert counts.max() > 1.5 * uniform_share

    def test_hotspot_concentrates_traffic(self, store):
        counts = _scene_counts(
            store,
            generate_requests(
                store, 400, pattern="hotspot", seed=2, hotspot_fraction=0.9
            ),
        )
        assert counts.max() > 0.8 * 400

    def test_uniform_spreads_traffic(self, store):
        counts = _scene_counts(
            store, generate_requests(store, 400, pattern="uniform", seed=2)
        )
        assert np.all(counts > 0)
        assert counts.max() < 2 * counts.min() + 40

    def test_uniform_matches_legacy_trace_generator(self, store):
        # synthetic_request_trace is the PR-2 API; uniform streams must be
        # call-for-call identical so pinned traces keep replaying.
        legacy = synthetic_request_trace(store, 25, seed=9)
        uniform = generate_requests(store, 25, pattern="uniform", seed=9)
        for a, b in zip(legacy, uniform):
            assert a.scene_id == b.scene_id
            assert np.array_equal(
                a.camera.world_to_camera, b.camera.world_to_camera
            )

    def test_validation(self, store):
        with pytest.raises(ValueError):
            generate_requests(store, -1)
        with pytest.raises(ValueError):
            generate_requests(SceneStore(), 5)
        with pytest.raises(ValueError):
            generate_requests(store, 5, pattern="vortex")

    def test_seeded_streams_are_pinned_across_runs(self, store):
        # Regression (PR 5): replay determinism must hold across *runs*,
        # not just within one process — `serve --seed N` depends on it.
        # These golden sequences pin the generator's output for seed 5.
        golden = {
            "uniform": [3, 0, 2, 3, 4, 1, 2, 0, 0, 0,
                        0, 3, 1, 1, 0, 3, 0, 3, 3, 3],
            "zipf": [4, 3, 2, 2, 3, 0, 4, 2, 3, 4,
                     4, 3, 4, 4, 2, 0, 4, 2, 4, 0],
            "hotspot": [4, 4, 4, 4, 4, 0, 4, 4, 4, 4,
                        4, 4, 4, 4, 4, 1, 4, 4, 4, 0],
        }
        for pattern, scene_ids in golden.items():
            trace = generate_requests(store, 20, pattern=pattern, seed=5)
            assert [r.scene_id for r in trace] == scene_ids, pattern

    def test_seeded_replay_through_the_gateway_keeps_request_order(self, store):
        # The `serve --seed` contract end to end: the regenerated stream
        # replayed through the async gateway answers request i with the
        # frame of request i — coalescing must never reorder responses
        # relative to request ids.
        from repro.serving import RenderGateway, RenderService

        trace = generate_requests(store, 24, pattern="hotspot", seed=5)
        replay = generate_requests(store, 24, pattern="hotspot", seed=5)
        report = RenderGateway(RenderService(store)).serve(replay)
        assert [r.request_id for r in report.responses] == list(range(24))
        for position, response in enumerate(report.responses):
            assert response.request is replay[position]
            assert response.request.scene_id == trace[position].scene_id
            assert response.response.scene_index == store.resolve_index(
                trace[position].scene_id
            )

    def test_camera_less_store_rejected(self):
        from repro.gaussians.scene import GaussianScene

        scene = make_synthetic_scene(
            SyntheticConfig(num_gaussians=10, width=16, height=12)
        )
        cameraless = SceneStore(
            [GaussianScene(cloud=scene.cloud, cameras=[], name="no-cams")]
        )
        with pytest.raises(ValueError):
            generate_requests(cameraless, 5)


class TestFailurePlan:
    def test_at_sorts_and_validates(self):
        plan = FailurePlan.at((20, 1), (5, 0))
        assert plan.kills == ((5, 0), (20, 1))
        assert len(plan) == 2
        with pytest.raises(ValueError, match="non-negative"):
            FailurePlan.at((-1, 0))
        with pytest.raises(ValueError, match="at most once"):
            FailurePlan.at((3, 1), (9, 1))
        with pytest.raises(ValueError, match="sorted"):
            FailurePlan(kills=((9, 0), (3, 1)))

    def test_due_walks_the_schedule(self):
        plan = FailurePlan.at((5, 0), (12, 3))
        assert plan.due(4, fired=0) == ()
        assert plan.due(5, fired=0) == ((5, 0),)
        assert plan.due(12, fired=0) == ((5, 0), (12, 3))
        assert plan.due(12, fired=1) == ((12, 3),)
        assert plan.due(100, fired=2) == ()

    def test_seeded_is_pinned_across_runs(self):
        # Golden literals: seeded plans are pure functions of their
        # arguments, across processes and runs — chaos failures reproduce.
        assert FailurePlan.seeded(
            num_workers=4, num_requests=40, num_kills=2, seed=9
        ).kills == ((5, 0), (12, 3))
        assert FailurePlan.seeded(
            num_workers=3, num_requests=20, num_kills=1, seed=0
        ).kills == ((6, 2),)

    def test_seeded_properties_hold_over_seeds(self):
        for seed in range(12):
            plan = FailurePlan.seeded(
                num_workers=4, num_requests=30, num_kills=3, seed=seed
            )
            workers = [worker for _, worker in plan.kills]
            assert len(set(workers)) == 3          # distinct victims
            assert all(0 <= w < 4 for w in workers)
            assert all(1 <= p < 30 for p, _ in plan.kills)

    def test_seeded_validation(self):
        with pytest.raises(ValueError, match="2 workers"):
            FailurePlan.seeded(num_workers=1, num_requests=10)
        with pytest.raises(ValueError, match="2 requests"):
            FailurePlan.seeded(num_workers=2, num_requests=1)
        with pytest.raises(ValueError, match="num_kills"):
            FailurePlan.seeded(num_workers=3, num_requests=10, num_kills=3)

    def test_golden_replay_of_a_chaos_serve(self, store):
        # The headline determinism contract: the same traffic seed plus the
        # same failure plan produce the identical FleetReport counters and
        # placement history on two *fresh* fleets.
        trace = generate_requests(store, 40, pattern="hotspot", seed=9)
        plan = FailurePlan.seeded(
            num_workers=4, num_requests=40, num_kills=2, seed=9
        )
        priority = popularity_priority(store, pattern="hotspot", seed=9)

        def run():
            with ShardedRenderService(
                store, num_workers=4, replication=2, hot_scenes=priority,
                use_processes=False,
            ) as fleet:
                report = fleet.serve(trace, failure_plan=plan)
            return report

        first, second = run(), run()
        assert first.dispatched == second.dispatched
        assert first.requeued == second.requeued
        assert first.respawned == second.respawned
        assert first.killed == second.killed == (0, 3)
        assert list(first.placement) == list(second.placement)
        assert first.placement_map == second.placement_map
        assert [s.num_requests for s in first.shards] == [
            s.num_requests for s in second.shards
        ]


class TestPopularityPriority:
    def test_hotspot_hot_scene_matches_the_generated_traffic(self, store):
        # The lane assignment and the request generator share one seeded
        # popularity model: the scene popularity_priority calls hot is the
        # scene the hotspot stream actually concentrates on.
        priority_of = popularity_priority(store, pattern="hotspot", seed=2)
        counts = _scene_counts(
            store,
            generate_requests(
                store, 200, pattern="hotspot", seed=2, hotspot_fraction=0.8
            ),
        )
        assert priority_of.hot_scenes == frozenset({int(counts.argmax())})

    def test_zipf_marks_only_the_top_of_the_ranking(self, store):
        priority_of = popularity_priority(
            store, pattern="zipf", seed=4, hot_threshold=1.5
        )
        assert 0 < len(priority_of.hot_scenes) < len(store)

    def test_priority_values_are_lanes(self, store):
        priority_of = popularity_priority(store, pattern="hotspot", seed=0)
        lanes = {
            priority_of(
                RenderRequest(scene_id=i, camera=store.get_cameras(i)[0])
            )
            for i in range(len(store))
        }
        assert lanes == {0, 1}

    def test_validation(self, store):
        with pytest.raises(ValueError, match="hot_threshold"):
            popularity_priority(store, hot_threshold=0.0)
        with pytest.raises(ValueError, match="cameras"):
            popularity_priority(SceneStore())
