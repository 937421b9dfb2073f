"""Property-based tests for the scene-to-shard placement layer.

Hypothesis drives :class:`~repro.serving.placement.PlacementMap` through
random fleet shapes, hot sets and death patterns, pinning the invariants
the chaos harness relies on:

* every scene always has at least one owner, owners are distinct shards in
  range, and the primary owner is the affinity shard;
* routing never targets a dead shard, always returns an owner, and picks
  the least-loaded live owner (ties to the lowest shard id);
* owners are fixed when the map is built: recorded kills and respawns
  never change them, and the history accepts only those two kinds.

A small end-to-end test then checks the sorted-response contract on a real
replicated fleet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import (
    NoLiveOwnerError,
    PlacementMap,
    RenderService,
    SceneStore,
    ShardedRenderService,
    generate_requests,
)

#: One shared shape strategy: small fleets, a few scenes, optional hot set.
fleet_shapes = st.tuples(
    st.integers(min_value=1, max_value=12),   # num_scenes
    st.integers(min_value=1, max_value=6),    # num_workers
    st.integers(min_value=1, max_value=4),    # replication
    st.integers(min_value=0, max_value=2**31 - 1),  # seed for hot set / deaths
)


def _build(num_scenes, num_workers, replication, seed):
    """A PlacementMap with a seeded hot subset of the scenes."""
    rng = np.random.default_rng(seed)
    hot = [
        scene for scene in range(num_scenes) if rng.random() < 0.4
    ]
    return PlacementMap(
        num_scenes, num_workers, replication=replication, hot_scenes=hot
    )


class TestStructuralInvariants:
    @settings(max_examples=60, deadline=None)
    @given(fleet_shapes)
    def test_construction_satisfies_invariants(self, shape):
        placement = _build(*shape)
        placement.check_invariants()
        num_scenes, num_workers, replication, _ = shape
        for scene in range(num_scenes):
            owners = placement.owners(scene)
            assert owners[0] == scene % num_workers
            assert len(set(owners)) == len(owners)
            assert all(0 <= shard < num_workers for shard in owners)
            if scene in placement.hot_scenes:
                assert len(owners) == min(replication, num_workers)
            else:
                assert len(owners) == 1

    @settings(max_examples=60, deadline=None)
    @given(fleet_shapes)
    def test_scenes_of_is_the_transpose_of_owners(self, shape):
        placement = _build(*shape)
        for shard in range(placement.num_workers):
            scenes = placement.scenes_of(shard)
            assert list(scenes) == sorted(scenes)
            for scene in range(placement.num_scenes):
                assert (scene in scenes) == (shard in placement.owners(scene))

    @settings(max_examples=30, deadline=None)
    @given(fleet_shapes)
    def test_owners_are_tuples_fixed_at_construction(self, shape):
        placement = _build(*shape)
        snapshot = placement.snapshot()
        assert all(type(owners) is tuple for owners in snapshot.values())
        # The snapshot is a copy of the mapping; editing it changes nothing.
        for scene in list(snapshot):
            snapshot[scene] = ()
        for scene in range(placement.num_scenes):
            assert placement.owners(scene)
            assert placement.owners(scene) is placement.owners(scene)

    def test_out_of_range_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="num_scenes"):
            PlacementMap(-1, 2)
        with pytest.raises(ValueError, match="num_workers"):
            PlacementMap(3, 0)
        with pytest.raises(ValueError, match="replication"):
            PlacementMap(3, 2, replication=0)
        with pytest.raises(ValueError, match="hot scene 3"):
            PlacementMap(3, 2, replication=2, hot_scenes=[3])
        placement = PlacementMap(3, 2, replication=5, hot_scenes=[1])
        assert placement.replication == 2
        for probe in (placement.owners, placement.primary,
                      placement.live_owners):
            with pytest.raises(IndexError):
                probe(3)
        with pytest.raises(IndexError):
            placement.scenes_of(2)


class TestRouting:
    @settings(max_examples=60, deadline=None)
    @given(fleet_shapes, st.integers(min_value=0, max_value=2**31 - 1))
    def test_route_targets_a_live_least_loaded_owner(self, shape, seed):
        placement = _build(*shape)
        rng = np.random.default_rng(seed)
        load = {
            shard: int(rng.integers(0, 10))
            for shard in range(placement.num_workers)
        }
        # Kill a random strict subset of the workers.
        dead = frozenset(
            shard for shard in range(placement.num_workers)
            if rng.random() < 0.3
        )
        for scene in range(placement.num_scenes):
            live = placement.live_owners(scene, dead)
            if not live:
                with pytest.raises(NoLiveOwnerError):
                    placement.route(scene, load=load, dead=dead)
                continue
            chosen = placement.route(scene, load=load, dead=dead)
            assert chosen in live                   # never a dead shard
            best = min(load[shard] for shard in live)
            assert load[chosen] == best             # least-loaded
            assert chosen == min(                   # ties to lowest id
                shard for shard in live if load[shard] == best
            )

    @settings(max_examples=30, deadline=None)
    @given(fleet_shapes)
    def test_route_without_load_prefers_lowest_owner(self, shape):
        placement = _build(*shape)
        for scene in range(placement.num_scenes):
            assert placement.route(scene) == min(placement.owners(scene))


class TestHistory:
    @settings(max_examples=30, deadline=None)
    @given(fleet_shapes)
    def test_unknown_event_kind_is_rejected(self, shape):
        placement = _build(*shape)
        if placement.num_scenes == 0:
            return
        scene = 0
        primary = placement.primary(scene)
        with pytest.raises(ValueError):
            placement.record("explode", position=0, scene=scene, shard=primary)
        assert placement.history == []

    @settings(max_examples=60, deadline=None)
    @given(fleet_shapes, st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_kills_and_respawns_keep_owners_and_history(
        self, shape, seed
    ):
        # Death is a liveness filter: however many kill/respawn events are
        # recorded, the owners never change and the history is exact.
        placement = _build(*shape)
        owners_before = placement.snapshot()
        rng = np.random.default_rng(seed)
        dead = set()
        expected = []
        for position in range(12):
            shard = int(rng.integers(placement.num_workers))
            kind = "respawn" if shard in dead else "kill"
            (dead.discard if kind == "respawn" else dead.add)(shard)
            placement.record(kind, position=position, scene=None, shard=shard)
            expected.append((kind, position, None, shard))
            placement.check_invariants()
            for scene in range(placement.num_scenes):
                assert set(placement.live_owners(scene, dead)) == (
                    set(placement.owners(scene)) - dead
                )
        assert placement.snapshot() == owners_before
        assert [
            (e.kind, e.position, e.scene, e.shard) for e in placement.history
        ] == expected


class TestEndToEndOrdering:
    @pytest.fixture(scope="class")
    def store(self):
        scenes = [
            make_synthetic_scene(
                SyntheticConfig(
                    num_gaussians=60, width=24, height=18, seed=seed
                ),
                name=f"scene-{seed}",
                num_cameras=2,
            )
            for seed in range(4)
        ]
        return SceneStore(scenes)

    def test_replicated_fleet_keeps_responses_sorted_by_request_id(
        self, store
    ):
        # Load-aware routing scatters a hot scene's requests across owners;
        # the merge must still return them in request order with the same
        # frames a single worker produces.
        trace = generate_requests(store, 30, pattern="hotspot", seed=5)
        single = RenderService(store).serve(trace)
        with ShardedRenderService(
            store, num_workers=3, replication=3,
            hot_scenes=range(len(store)), use_processes=False,
            dispatch_window=4,
        ) as fleet:
            report = fleet.serve(trace)
        assert [r.request for r in report.responses] == trace
        for mine, ref in zip(report.responses, single.responses):
            assert np.array_equal(mine.image, ref.image)
            assert mine.frame_key == ref.frame_key

    def test_shard_scene_sets_are_fixed_at_spawn(self, store):
        # A shard's scenes come from the placement map when it is spawned
        # and never change: not by serving hot traffic, not by a kill and
        # the respawn that follows it.
        trace = generate_requests(store, 24, pattern="hotspot", seed=3)
        with ShardedRenderService(
            store, num_workers=3, replication=2, hot_scenes=[0, 1],
            use_processes=False,
        ) as fleet:
            owners = fleet.placement.snapshot()

            def resident(shard):
                return fleet._connections[shard].service.store.names

            expected = {
                shard: [store.names[s] for s in fleet.placement.scenes_of(shard)]
                for shard in range(3)
            }
            assert {shard: resident(shard) for shard in range(3)} == expected
            fleet.serve(trace)
            fleet.kill_worker(0)
            report = fleet.serve(trace)
            assert report.respawned == 1
            assert fleet.placement.snapshot() == owners
            assert {shard: resident(shard) for shard in range(3)} == expected
            assert [e.kind for e in fleet.placement.history] == [
                "kill", "respawn"
            ]
