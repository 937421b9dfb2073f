"""Chaos suite: seeded worker kills against the sharded render fleet.

The contract under test (ISSUE: failure injection as a first-class API):
for *any* kill schedule that leaves the fleet recoverable,

* no response is lost and none is duplicated — every request gets exactly
  one response, in request order;
* the fault counters reconcile: ``dispatched == num_requests + requeued``;
* frames are bit-identical to an unkilled single-worker serve, because
  replicas render from verbatim payload copies;
* a scene whose last live owner dies gets its primary shard respawned.

Everything here is seeded — :class:`~repro.serving.traffic.FailurePlan`
and the traffic generator are pure functions of their seeds — so failures
reproduce exactly.  Most tests use in-process fleets (deterministic,
single-core friendly); process-mode coverage rides a couple of dedicated
tests, the heaviest marked ``slow`` (tier-1 skips them, CI runs them).
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import GauRastSystem
from repro.hardware.config import GauRastConfig
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import (
    FailurePlan,
    RenderService,
    SceneStore,
    ShardedRenderService,
    SharedSceneStore,
    generate_requests,
    popularity_priority,
)
from repro.serving.storage import SharedStoreView

NUM_WORKERS = 4


@pytest.fixture(scope="module")
def store() -> SceneStore:
    scenes = [
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=80, width=32, height=24, seed=seed),
            name=f"scene-{seed}",
            num_cameras=3,
        )
        for seed in range(6)
    ]
    return SceneStore(scenes)


@pytest.fixture(scope="module")
def trace(store):
    return generate_requests(store, 48, pattern="hotspot", seed=3)


@pytest.fixture(scope="module")
def priority(store):
    return popularity_priority(store, pattern="hotspot", seed=3)


@pytest.fixture(scope="module")
def single_report(store, trace):
    return RenderService(store).serve(trace)


def _fleet(store, priority, **kwargs):
    """A replicated in-process fleet unless overridden."""
    defaults = dict(
        num_workers=NUM_WORKERS, replication=2, hot_scenes=priority,
        use_processes=False,
    )
    defaults.update(kwargs)
    return ShardedRenderService(store, **defaults)


def _assert_chaos_contract(report, trace, single_report):
    """The invariants every chaos serve must satisfy."""
    # Zero lost, zero duplicated: one response per request, in order.
    assert report.num_requests == len(trace)
    assert [response.request for response in report.responses] == trace
    # Counters reconcile: every dispatch was collected or requeued.
    assert report.dispatched == report.num_requests + report.requeued
    assert len(report.killed) == sum(
        1 for event in report.placement if event.kind == "kill"
    )
    assert report.respawned == sum(
        1 for event in report.placement if event.kind == "respawn"
    )
    # Bit-identical to the unkilled single-worker serve.
    for mine, ref in zip(report.responses, single_report.responses):
        assert np.array_equal(mine.image, ref.image)
        assert mine.frame_key == ref.frame_key
        assert mine.scene_index == ref.scene_index


class TestSeededKillSchedules:
    @pytest.mark.parametrize("num_kills", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_kill_any_subset_mid_stream(
        self, store, trace, priority, single_report, num_kills, seed
    ):
        # Kill 1..N-1 of the 4 workers mid-stream; the serve must finish
        # with nothing lost whatever the schedule.
        plan = FailurePlan.seeded(
            num_workers=NUM_WORKERS, num_requests=len(trace),
            num_kills=num_kills, seed=seed,
        )
        with _fleet(store, priority) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        assert len(report.killed) == num_kills
        assert set(report.killed) == {worker for _, worker in plan.kills}

    def test_unreplicated_scene_triggers_respawn(
        self, store, trace, single_report
    ):
        # Without replicas, killing a worker leaves its scenes with no live
        # owner: the dispatcher must respawn the shard, not drop requests.
        plan = FailurePlan.at((10, 1))
        with _fleet(store, None, replication=1) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        assert report.respawned >= 1
        respawns = [e for e in report.placement if e.kind == "respawn"]
        assert any(event.shard == 1 for event in respawns)
        assert 1 not in report.dead_shards

    def test_replicated_kill_requeues_without_respawn(
        self, store, trace, priority, single_report
    ):
        # Kill one owner of the replicated hot scene: its in-flight work
        # moves to the surviving replica.  Only a shard owning an
        # unreplicated scene forces a respawn, so target the hot scene's
        # first owner only if every one of its scenes is replicated;
        # otherwise just check requeues happened.
        hot = min(priority.hot_scenes)
        with _fleet(store, priority) as fleet:
            victim = fleet.placement.owners(hot)[0]
            plan = FailurePlan.at((len(trace) // 2, victim))
            report = fleet.serve(trace, failure_plan=plan)
            # The surviving replica owns the hot scene for the rest of the
            # stream, and the fleet keeps serving after the report.
            assert fleet.placement.live_owners(
                hot, frozenset(report.dead_shards)
            )
            follow_up = fleet.serve(trace[:6])
        _assert_chaos_contract(report, trace, single_report)
        assert report.requeued > 0
        assert follow_up.num_requests == 6

    def test_kill_worker_api_between_serves(
        self, store, trace, priority, single_report
    ):
        with _fleet(store, priority) as fleet:
            first = fleet.serve(trace[:10])
            assert first.num_requests == 10
            fleet.kill_worker(2)
            assert 2 not in fleet.alive_workers
            with pytest.raises(ValueError, match="already dead"):
                fleet.kill_worker(2)
            with pytest.raises(IndexError):
                fleet.kill_worker(NUM_WORKERS)
            # The next serve restores coverage before routing.
            report = fleet.serve(trace)
        _assert_chaos_contract(report, trace, single_report)

    def test_plan_validation_against_fleet(self, store, trace, priority):
        with _fleet(store, priority) as fleet:
            with pytest.raises(ValueError, match="only 4 workers"):
                fleet.serve(
                    trace, failure_plan=FailurePlan.at((3, NUM_WORKERS))
                )


class TestPlacementUnderKills:
    def test_seeded_kills_keep_placement_invariants(
        self, store, trace, priority, single_report
    ):
        # Kills are a liveness filter: they must lose nothing and leave
        # the placement map structurally intact.
        plan = FailurePlan.seeded(
            num_workers=NUM_WORKERS, num_requests=len(trace),
            num_kills=2, seed=11,
        )
        with _fleet(store, priority) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        fleet.placement.check_invariants()


class TestProcessModeChaos:
    def test_process_fleet_matches_in_process_chaos(
        self, store, trace, priority, single_report
    ):
        # The kill schedule fires at dispatch positions, and killed shards'
        # in-flight work is requeued unconditionally — so process and
        # in-process fleets produce identical counters, placement history
        # and frames for the same plan.
        plan = FailurePlan.seeded(
            num_workers=NUM_WORKERS, num_requests=len(trace),
            num_kills=2, seed=7,
        )
        with _fleet(store, priority) as reference_fleet:
            reference = reference_fleet.serve(trace, failure_plan=plan)
        with _fleet(store, priority, use_processes=True) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        assert report.requeued == reference.requeued
        assert report.respawned == reference.respawned
        assert report.killed == reference.killed
        assert list(report.placement) == list(reference.placement)
        assert report.placement_map == reference.placement_map

    def test_idle_worker_crash_is_marked_dead_then_respawned(self, store, trace):
        # A worker process that dies while idle (an OOM kill, say — not
        # kill_worker) is only noticed when the end-of-serve stats call
        # finds its pipe closed.  The serve must still return every
        # response, report the shard dead, and the next serve respawn it.
        requests = [replace(request, scene_id=0) for request in trace[:8]]
        reference = RenderService(store).serve(requests)
        with _fleet(
            store, None, num_workers=2, replication=1, use_processes=True
        ) as fleet:
            assert 0 not in fleet.placement.scenes_of(1)
            process = fleet._processes[1]
            process.kill()
            process.join()
            report = fleet.serve(requests)
            _assert_chaos_contract(report, requests, reference)
            assert report.dead_shards == (1,)
            assert report.killed == (1,)
            assert not report.shards[1].alive
            assert fleet.cache_stats()[1].hits == report.frame_cache.hits
            follow_up = fleet.serve(requests)
            assert follow_up.respawned == 1
            assert follow_up.dead_shards == ()
            assert fleet.alive_workers == (0, 1)
            # The between-serve calls skip such a worker the same way.
            for probe in (fleet.cache_stats, fleet.reset_caches):
                process = fleet._processes[1]
                process.kill()
                process.join()
                probe()
                assert fleet.alive_workers == (0,)
                assert fleet.serve(requests[:1]).respawned == 1

    @pytest.mark.slow
    def test_process_fleet_survives_every_single_worker_kill(
        self, store, trace, priority, single_report
    ):
        # Acceptance sweep: for every worker, a real process kill
        # mid-stream keeps the fleet green.
        for victim in range(NUM_WORKERS):
            plan = FailurePlan.at((len(trace) // 3, victim))
            with _fleet(store, priority, use_processes=True) as fleet:
                report = fleet.serve(trace, failure_plan=plan)
            _assert_chaos_contract(report, trace, single_report)
            assert report.killed == (victim,)


class TestChaosThroughEvaluateTrace:
    def test_failure_plan_does_not_change_hardware_replay(self, store, trace):
        system = GauRastSystem(config=GauRastConfig(num_instances=2))
        plan = FailurePlan.at((6, 1))
        chaotic = system.evaluate_trace(
            store, trace[:16], workers=3, replication=2,
            hot_scenes=[min(range(len(store)))], failure_plan=plan,
        )
        single = system.evaluate_trace(store, trace[:16])
        assert chaotic.served_cycles == single.served_cycles
        assert chaotic.service.num_requests == 16
        assert chaotic.service.dispatched == (
            chaotic.service.num_requests + chaotic.service.requeued
        )

    def test_failure_plan_requires_a_fleet(self, store, trace):
        system = GauRastSystem()
        with pytest.raises(ValueError, match="sharded"):
            system.evaluate_trace(
                store, trace[:4], failure_plan=FailurePlan.at((2, 0))
            )


def _repro_segments() -> set:
    """Names of this test process's live repro shared-memory segments."""
    prefix = f"repro-shm-{os.getpid()}-"
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm platform
        return set()


class TestSharedStorageChaos:
    """Kill/respawn schedules against a shared-memory hosted catalog.

    The residency contract under chaos: worker death never leaks a
    segment (workers attach untracked, only the owner unlinks), respawned
    workers re-attach to the existing segment instead of re-copying the
    catalog, and frames stay bit-identical throughout.
    """

    @pytest.fixture()
    def shared_catalog(self, store):
        catalog = SharedSceneStore(
            store.get_scene(index) for index in range(len(store))
        )
        try:
            yield catalog
        finally:
            catalog.close()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_kill_schedule_leaks_no_segments(
        self, store, trace, priority, single_report, shared_catalog, seed
    ):
        plan = FailurePlan.seeded(
            num_workers=NUM_WORKERS, num_requests=len(trace),
            num_kills=2, seed=seed,
        )
        with _fleet(
            shared_catalog, priority, use_processes=True
        ) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        # Catalog segment alive for the owner, and nothing else: the
        # killed workers' deaths must not have unlinked or leaked anything.
        assert _repro_segments() == {shared_catalog.segment_name}

    def test_respawn_reattaches_instead_of_recopying(
        self, store, trace, priority, single_report, shared_catalog
    ):
        # Unreplicated placement so killing a worker forces a respawn.
        with _fleet(
            shared_catalog, None, replication=1, use_processes=False
        ) as fleet:
            plan = FailurePlan.at((10, 1))
            report = fleet.serve(trace, failure_plan=plan)
            assert report.respawned >= 1
            substore = fleet._connections[1].service.store
            # The respawned worker serves zero-copy views of the hosted
            # segment: a reference list, not a rebuilt catalog copy.
            assert isinstance(substore, SharedStoreView)
            assert substore.owned_bytes == 0
            assert np.shares_memory(
                substore.get_cloud(0).positions, shared_catalog._positions
            )
        _assert_chaos_contract(report, trace, single_report)
        assert _repro_segments() == {shared_catalog.segment_name}

    def test_owner_close_after_chaos_unlinks_everything(
        self, store, trace, priority, single_report
    ):
        catalog = SharedSceneStore(
            store.get_scene(index) for index in range(len(store))
        )
        plan = FailurePlan.seeded(
            num_workers=NUM_WORKERS, num_requests=len(trace),
            num_kills=3, seed=5,
        )
        with _fleet(catalog, priority, use_processes=True) as fleet:
            report = fleet.serve(trace, failure_plan=plan)
        _assert_chaos_contract(report, trace, single_report)
        catalog.close()
        # Resource-tracker clean: no segment of this catalog survives its
        # owner, whatever the kill schedule did to the attached readers.
        assert _repro_segments() == set()
