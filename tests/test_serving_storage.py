"""Tests for the storage tiers: shared-memory catalogs and out-of-core paging.

Covers the residency contract end to end: bit-identical reads per tier,
read-only views on every tier, zero-copy views and pickled re-attach for
the write-once shared tier, explicit segment lifecycle with a
clean ``/dev/shm``, lazy loads under a byte-budgeted LRU for the paged
tier, verbatim round trips of quantized payloads through the version-4
archive, and the :func:`~repro.serving.storage.host_store` entry point.
"""

import gc
import glob
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.compression import CompressedSceneStore, load_store
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import RenderRequest, RenderService, ShardedRenderService
from repro.serving.storage import shared as shared_module
from repro.serving.storage import (
    PagedSceneStore,
    SharedSceneStore,
    SharedStoreView,
    StorageLease,
    host_store,
    import_archive,
    is_paged_archive,
    write_paged,
)
from repro.serving.store import SceneStore


def _scene(seed, num_gaussians=40, num_cameras=2, name=None, sh_degree=1):
    config = SyntheticConfig(
        num_gaussians=num_gaussians, width=32, height=24,
        sh_degree=sh_degree, seed=seed,
    )
    return make_synthetic_scene(
        config, name=name or f"scene-{seed}", num_cameras=num_cameras
    )


def _assert_clouds_identical(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.scales, b.scales)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.opacities, b.opacities)
    assert np.array_equal(a.sh_coeffs, b.sh_coeffs)


def _segments() -> set:
    prefix = f"repro-shm-{os.getpid()}-"
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


@pytest.fixture(scope="module")
def scenes():
    return [_scene(seed) for seed in range(5)]


@pytest.fixture(scope="module")
def plain(scenes):
    return SceneStore(scenes)


@pytest.fixture()
def shared(scenes):
    catalog = SharedSceneStore(scenes)
    try:
        yield catalog
    finally:
        catalog.close()


class TestSharedSceneStore:
    def test_reads_match_plain_store(self, plain, shared):
        assert shared.names == plain.names
        for index in range(len(plain)):
            _assert_clouds_identical(
                plain.get_cloud(index), shared.get_cloud(index)
            )
            for cam_a, cam_b in zip(
                plain.get_cameras(index), shared.get_cameras(index)
            ):
                assert np.array_equal(
                    cam_a.world_to_camera, cam_b.world_to_camera
                )
                assert (cam_a.fx, cam_a.fy) == (cam_b.fx, cam_b.fy)

    def test_segment_exists_and_close_unlinks(self, scenes):
        catalog = SharedSceneStore(scenes)
        name = catalog.segment_name
        assert os.path.exists(f"/dev/shm/{name}")
        catalog.close()
        assert catalog.segment_name is None
        assert not os.path.exists(f"/dev/shm/{name}")
        catalog.close()  # idempotent

    def test_context_manager_releases(self, scenes):
        with SharedSceneStore(scenes) as catalog:
            name = catalog.segment_name
            assert os.path.exists(f"/dev/shm/{name}")
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_pickle_roundtrip_attaches_readonly(self, plain, shared):
        reader = pickle.loads(pickle.dumps(shared))
        try:
            assert not reader.is_owner
            assert reader.segment_name == shared.segment_name
            for index in range(len(plain)):
                _assert_clouds_identical(
                    plain.get_cloud(index), reader.get_cloud(index)
                )
            with pytest.raises(RuntimeError):
                reader.add_scene(_scene(77))
        finally:
            reader.close()

    def test_attach_by_handle(self, plain, shared):
        reader = SharedSceneStore.attach(shared.handle())
        try:
            _assert_clouds_identical(
                plain.get_cloud(2), reader.get_cloud(2)
            )
        finally:
            reader.close()

    def test_owner_views_are_writable_reader_views_are_not(self, shared):
        """Neither is writeable: the catalog is write-once on both sides."""
        reader = pickle.loads(pickle.dumps(shared))
        try:
            for store in (shared, reader):
                assert not store._positions.flags.writeable
                with pytest.raises(ValueError):
                    store.get_cloud(0).positions[0] = 0.0
        finally:
            reader.close()

    def test_owner_rejects_mutation(self, shared):
        with pytest.raises(RuntimeError):
            shared.add_scene(_scene(77))
        assert len(shared) == 5

    def test_segment_is_sized_exactly(self, plain, shared):
        assert shared.capacity_bytes == plain.nbytes

    def test_save_roundtrip_via_plain_archive(self, plain, shared, tmp_path):
        path = shared.save(tmp_path / "shared.npz")
        loaded = SceneStore.load(path)
        for index in range(len(plain)):
            _assert_clouds_identical(
                plain.get_cloud(index), loaded.get_cloud(index)
            )

    def test_no_leaked_segments_after_close(self, scenes):
        baseline = _segments()
        catalog = SharedSceneStore(scenes)
        reader = pickle.loads(pickle.dumps(catalog))
        reader.close()
        catalog.close()
        assert _segments() == baseline


class TestSharedStoreView:
    def test_build_substore_is_zero_copy(self, plain, shared):
        view = shared.build_substore([1, 3])
        assert isinstance(view, SharedStoreView)
        assert view.names == ["scene-1", "scene-3"]
        assert np.shares_memory(
            view.get_cloud(0).positions, shared._positions
        )
        assert view.owned_bytes == 0
        assert view.nbytes > 0
        _assert_clouds_identical(view.get_cloud(1), plain.get_cloud(3))

    def test_view_pickle_reattaches(self, plain, shared):
        view = shared.build_substore([0, 2, 4])
        clone = pickle.loads(pickle.dumps(view))
        assert clone.names == view.names
        for local, global_index in enumerate((0, 2, 4)):
            _assert_clouds_identical(
                clone.get_cloud(local), plain.get_cloud(global_index)
            )
        # The clone maps the segment itself instead of copying payload.
        assert clone.owned_bytes == 0

    def test_view_rejects_payload_mutation(self, shared):
        view = shared.build_substore([0])
        with pytest.raises(RuntimeError):
            view.add_scene(_scene(88))
        with pytest.raises(RuntimeError):
            view.save("nowhere.npz")

    def test_overlapping_views_map_the_same_segment_bytes(self, plain, shared):
        # Static replication hands a hot scene to several shards; each
        # shard's view references the one copy in the segment.
        a = shared.build_substore([0, 1])
        b = shared.build_substore([1, 2])
        assert np.shares_memory(
            a.get_cloud(1).positions, b.get_cloud(0).positions
        )
        _assert_clouds_identical(b.get_cloud(0), plain.get_cloud(1))
        assert a.owned_bytes == b.owned_bytes == 0

    def test_view_narrowing(self, plain, shared):
        view = shared.build_substore([0, 1, 2])
        narrowed = view.build_substore([2, 0])
        assert narrowed.names == ["scene-2", "scene-0"]
        _assert_clouds_identical(
            narrowed.get_cloud(0), plain.get_cloud(2)
        )


TIERS = ("plain", "shared-owner", "shared-reader", "shared-view", "paged-raw")


@pytest.fixture(params=TIERS)
def aliasing_store(request, scenes, plain, tmp_path):
    """Each tier whose handed-out arrays alias store memory."""
    if request.param == "plain":
        yield plain
    elif request.param == "paged-raw":
        yield PagedSceneStore(write_paged(plain, tmp_path / "store"))
    else:
        with SharedSceneStore(scenes) as catalog:
            if request.param == "shared-owner":
                yield catalog
            elif request.param == "shared-view":
                yield catalog.build_substore([3, 1])
            else:
                reader = SharedSceneStore.attach(catalog.handle())
                try:
                    yield reader
                finally:
                    reader.close()


class TestReadOnlyViews:
    def test_every_handed_out_array_is_read_only(self, aliasing_store):
        for index in range(len(aliasing_store)):
            scene = aliasing_store.get_scene(index)
            cameras = aliasing_store.get_cameras(index) + scene.cameras
            arrays = [camera.world_to_camera for camera in cameras]
            for cloud in (aliasing_store.get_cloud(index), scene.cloud):
                arrays += [
                    cloud.positions, cloud.scales, cloud.rotations,
                    cloud.opacities, cloud.sh_coeffs,
                ]
            for array in arrays:
                # Checked before the write so a writeable view fails here
                # instead of corrupting the module-scoped catalog.
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_service_catalog_write_raises_and_cache_is_intact(self, scenes):
        service = RenderService(SceneStore(scenes))
        request = RenderRequest(
            scene_id=0, camera=service.store.get_cameras(0)[0]
        )
        first = service.submit(request)
        with pytest.raises(ValueError):
            service.store.get_cloud(0).positions[0] = 0.0
        again = service.submit(request)
        assert again.from_cache
        assert again.image.tobytes() == first.image.tobytes()
        assert np.array_equal(
            service.store.get_cloud(0).positions, scenes[0].cloud.positions
        )


class TestPagedSceneStore:
    @pytest.fixture(scope="class")
    def archive(self, plain, tmp_path_factory):
        return write_paged(
            plain, tmp_path_factory.mktemp("paged") / "store", group_size=2
        )

    def test_is_paged_archive(self, archive, tmp_path):
        assert is_paged_archive(archive)
        assert not is_paged_archive(tmp_path / "missing")

    def test_reads_match_plain_store(self, plain, archive):
        paged = PagedSceneStore(archive)
        assert paged.names == plain.names
        for index in range(len(plain)):
            _assert_clouds_identical(
                plain.get_cloud(index), paged.get_cloud(index)
            )
            assert paged.scene_nbytes(index) == plain.scene_nbytes(index)
            center, radius = paged.scene_bounds(index)
            expected_center, expected_radius = plain.scene_bounds(index)
            assert np.allclose(center, expected_center)
            assert radius == pytest.approx(expected_radius)

    def test_scene_bounds_do_not_load_payload(self, archive):
        paged = PagedSceneStore(archive)
        paged.scene_bounds(0)
        paged.level_sizes(0)
        assert paged.resident_bytes == 0

    def test_budget_bounds_resident_set(self, plain, archive):
        budget = plain.scene_nbytes(0)
        paged = PagedSceneStore(archive, memory_budget=budget)
        for index in range(len(plain)):
            paged.get_cloud(index)
            assert paged.resident_bytes <= budget
        stats = paged.resident_stats()
        assert stats.evictions > 0

    def test_unbounded_budget_keeps_everything(self, plain, archive):
        paged = PagedSceneStore(archive, memory_budget=None)
        for index in range(len(plain)):
            paged.get_cloud(index)
        assert paged.resident_stats().evictions == 0
        assert paged.resident_bytes > 0
        paged.drop_resident()
        assert paged.resident_bytes == 0

    def test_read_only_membership(self, archive):
        paged = PagedSceneStore(archive)
        with pytest.raises(RuntimeError):
            paged.add_scene(_scene(7))

    def test_substore_shares_archive_separate_cache(self, plain, archive):
        paged = PagedSceneStore(archive, memory_budget=1 << 20)
        sub = paged.build_substore([4, 0])
        assert sub.names == ["scene-4", "scene-0"]
        _assert_clouds_identical(sub.get_cloud(0), plain.get_cloud(4))
        assert sub.resident_bytes > 0
        assert paged.resident_bytes == 0

    def test_overlapping_substores_read_identically(self, plain, archive):
        # A replicated scene paged in by two shards: both read the same
        # archive records, each into its own resident cache.
        paged = PagedSceneStore(archive)
        a = paged.build_substore([0, 1])
        b = paged.build_substore([1, 2])
        _assert_clouds_identical(a.get_cloud(1), plain.get_cloud(1))
        assert b.resident_bytes == 0
        _assert_clouds_identical(b.get_cloud(0), plain.get_cloud(1))
        assert a.resident_bytes > 0 and b.resident_bytes > 0

    def test_substore_pickles_for_process_workers(self, plain, archive):
        sub = PagedSceneStore(archive).build_substore([3])
        clone = pickle.loads(pickle.dumps(sub))
        _assert_clouds_identical(clone.get_cloud(0), plain.get_cloud(3))

    def test_paged_save_roundtrip(self, plain, archive, tmp_path):
        paged = PagedSceneStore(archive)
        copy = PagedSceneStore(paged.save(tmp_path / "copy"))
        for index in range(len(plain)):
            _assert_clouds_identical(
                copy.get_cloud(index), plain.get_cloud(index)
            )

    def test_load_store_dispatches_v4(self, archive):
        assert isinstance(load_store(archive), PagedSceneStore)


class TestPagedCompressedTier:
    @pytest.fixture(scope="class")
    def compressed(self, scenes):
        return CompressedSceneStore(scenes, codec="int8", levels=3)

    @pytest.fixture(scope="class")
    def archive(self, compressed, tmp_path_factory):
        return write_paged(
            compressed, tmp_path_factory.mktemp("paged-lod") / "store"
        )

    def test_quantized_payload_roundtrips_verbatim(self, compressed, archive):
        paged = PagedSceneStore(archive)
        for index in range(len(compressed)):
            assert paged.num_levels(index) == compressed.num_levels(index)
            assert paged.level_sizes(index) == compressed.level_sizes(index)
            for level in range(compressed.num_levels(index)):
                _assert_clouds_identical(
                    compressed.get_cloud(index, level),
                    paged.get_cloud(index, level),
                )

    def test_import_v3_archive(self, compressed, archive, tmp_path):
        v3 = compressed.save(tmp_path / "store-v3.npz")
        imported = import_archive(v3, tmp_path / "imported")
        paged = PagedSceneStore(imported)
        for index in range(len(compressed)):
            for level in range(compressed.num_levels(index)):
                _assert_clouds_identical(
                    compressed.get_cloud(index, level),
                    paged.get_cloud(index, level),
                )

    def test_import_v2_archive(self, plain, tmp_path):
        v2 = plain.save(tmp_path / "store-v2.npz")
        paged = PagedSceneStore(import_archive(v2, tmp_path / "imported"))
        for index in range(len(plain)):
            _assert_clouds_identical(
                paged.get_cloud(index), plain.get_cloud(index)
            )

    def test_compressed_scene_nbytes_matches(self, compressed, archive):
        # The paged record also persists the LOD ordering permutation, so
        # its accounting sits at-or-slightly-above the in-memory tier's.
        paged = PagedSceneStore(archive)
        for index in range(len(compressed)):
            lower = compressed.scene_nbytes(index)
            assert lower <= paged.scene_nbytes(index) <= 1.5 * lower


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def trace(self, plain):
        return [
            RenderRequest(scene_id=index, camera=plain.get_cameras(index)[0])
            for index in range(len(plain))
        ]

    @pytest.fixture(scope="class")
    def reference(self, plain, trace):
        service = RenderService(plain)
        return [service.submit(request).image for request in trace]

    def test_shared_fleet_frames_bit_identical(
        self, scenes, trace, reference
    ):
        with SharedSceneStore(scenes) as catalog:
            with ShardedRenderService(
                catalog, num_workers=2, use_processes=True, replication=2
            ) as fleet:
                for request, expected in zip(trace, reference):
                    assert np.array_equal(
                        fleet.submit(request).image, expected
                    )

    def test_paged_fleet_frames_bit_identical(
        self, plain, trace, reference, tmp_path
    ):
        paged = PagedSceneStore(
            write_paged(plain, tmp_path / "store"), memory_budget=1 << 20
        )
        with ShardedRenderService(
            paged, num_workers=2, use_processes=True
        ) as fleet:
            for request, expected in zip(trace, reference):
                assert np.array_equal(
                    fleet.submit(request).image, expected
                )

    def test_single_service_over_each_tier(
        self, scenes, plain, trace, reference, tmp_path
    ):
        with SharedSceneStore(scenes) as catalog:
            service = RenderService(catalog)
            assert np.array_equal(
                service.submit(trace[0]).image, reference[0]
            )
        paged = PagedSceneStore(write_paged(plain, tmp_path / "store"))
        service = RenderService(paged)
        assert np.array_equal(service.submit(trace[1]).image, reference[1])


class TestHostStore:
    def test_memory_tier_is_passthrough(self, plain):
        lease = host_store(plain, None)
        assert lease.store is plain
        lease.close()
        with host_store(plain, "memory") as lease:
            assert lease.store is plain

    def test_shared_tier_lifecycle(self, plain):
        lease = host_store(plain, "shared")
        assert isinstance(lease.store, SharedSceneStore)
        name = lease.store.segment_name
        assert os.path.exists(f"/dev/shm/{name}")
        lease.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        lease.close()  # idempotent

    def test_shared_tier_rejects_compressed(self, scenes):
        compressed = CompressedSceneStore(scenes, codec="int8", levels=2)
        with pytest.raises(ValueError, match="paged"):
            host_store(compressed, "shared")

    def test_shared_tier_rejects_paged_compressed(self, scenes, tmp_path):
        """Hosting a quantized paged catalog would decode away its LODs."""
        compressed = CompressedSceneStore(scenes, codec="int8", levels=3)
        paged = PagedSceneStore(write_paged(compressed, tmp_path / "store"))
        assert paged.num_levels(0) == 3
        with pytest.raises(ValueError, match="paged"):
            host_store(paged, "shared")

    def test_hosting_creates_exactly_one_segment(self, monkeypatch):
        created = []
        real_shared_memory = shared_module.SharedMemory

        def counting_shared_memory(*args, **kwargs):
            segment = real_shared_memory(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(
            shared_module, "SharedMemory", counting_shared_memory
        )
        catalog = SceneStore(
            _scene(seed, num_gaussians=20) for seed in range(16)
        )
        with host_store(catalog, "shared") as lease:
            assert created == [lease.store.segment_name]

    def test_paged_tier_temporary_archive(self, plain):
        with host_store(plain, "paged", memory_budget=1 << 20) as lease:
            paged = lease.store
            assert isinstance(paged, PagedSceneStore)
            path = paged.path
            _assert_clouds_identical(
                paged.get_cloud(0), plain.get_cloud(0)
            )
        assert not os.path.exists(path)

    def test_dropped_paged_lease_removes_its_temp_dir(self, plain):
        """The temp dir lives exactly as long as someone holds the store."""
        pattern = os.path.join(tempfile.gettempdir(), "repro-paged-*")
        before = set(glob.glob(pattern))
        lease = host_store(plain, "paged")
        paged = lease.store
        (tempdir,) = set(glob.glob(pattern)) - before
        del lease
        gc.collect()
        for index in range(len(plain)):
            _assert_clouds_identical(
                paged.get_cloud(index), plain.get_cloud(index)
            )
        del paged
        gc.collect()
        assert not os.path.exists(tempdir)

    def test_paged_tier_workdir_left_in_place(self, plain, tmp_path):
        workdir = tmp_path / "archive"
        with host_store(plain, "paged", workdir=workdir) as lease:
            assert is_paged_archive(lease.store.path)
        assert is_paged_archive(workdir)

    def test_paged_passthrough_and_rebudget(self, plain, tmp_path):
        paged = PagedSceneStore(
            write_paged(plain, tmp_path / "store"), memory_budget=None
        )
        with host_store(paged, "paged") as lease:
            assert lease.store is paged
        with host_store(paged, "paged", memory_budget=4096) as lease:
            assert lease.store is not paged
            assert lease.store.memory_budget == 4096

    def test_shared_passthrough(self, scenes):
        with SharedSceneStore(scenes) as catalog:
            with host_store(catalog, "shared") as lease:
                assert lease.store is catalog

    def test_unknown_tier_rejected(self, plain):
        with pytest.raises(ValueError, match="unknown storage tier"):
            host_store(plain, "quantum")

    def test_lease_is_reusable_container(self, plain):
        lease = StorageLease(plain)
        assert lease.store is plain
        lease.close()


class TestEvaluateTraceStorage:
    def test_storage_tiers_do_not_change_the_replay(self, plain, tmp_path):
        from repro.core import GauRastSystem
        from repro.hardware.config import GauRastConfig
        from repro.serving import generate_requests

        system = GauRastSystem(config=GauRastConfig(num_instances=2))
        trace = generate_requests(plain, 12, pattern="zipf", seed=2)
        baseline = system.evaluate_trace(plain, trace)
        shared = system.evaluate_trace(plain, trace, storage="shared")
        paged = system.evaluate_trace(
            plain, trace, storage="paged", memory_budget=1 << 20
        )
        assert shared.served_cycles == baseline.served_cycles
        assert paged.served_cycles == baseline.served_cycles
        assert _segments() == set()

    def test_storage_conflicts_with_existing_service(self, plain):
        from repro.core import GauRastSystem
        from repro.serving import generate_requests

        system = GauRastSystem()
        trace = generate_requests(plain, 4, seed=0)
        service = RenderService(plain)
        with pytest.raises(ValueError, match="storage"):
            system.evaluate_trace(
                plain, trace, service=service, storage="shared"
            )
