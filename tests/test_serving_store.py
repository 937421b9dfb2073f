"""Tests for the flattened multi-scene SceneStore and the io.py wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.io import load_scene, save_scene
from repro.gaussians.scene import GaussianScene
from repro.gaussians.sh import num_sh_coeffs
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import SceneStore


def _scene(num_gaussians=50, sh_degree=1, seed=0, num_cameras=2, name=None):
    config = SyntheticConfig(
        num_gaussians=num_gaussians, width=64, height=48,
        sh_degree=sh_degree, seed=seed,
    )
    return make_synthetic_scene(
        config, name=name or f"scene-{seed}", num_cameras=num_cameras
    )


def _random_cloud(rng: np.random.Generator, n: int, degree: int) -> GaussianCloud:
    k = num_sh_coeffs(degree)
    return GaussianCloud(
        positions=rng.normal(size=(n, 3)) * 5.0,
        scales=rng.uniform(0.01, 2.0, size=(n, 3)),
        rotations=rng.normal(size=(n, 4)) + 1e-3,
        opacities=rng.uniform(0.0, 1.0, size=n),
        sh_coeffs=rng.normal(size=(n, k, 3)),
    )


def _assert_clouds_identical(a: GaussianCloud, b: GaussianCloud):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.scales, b.scales)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.opacities, b.opacities)
    assert np.array_equal(a.sh_coeffs, b.sh_coeffs)


def _assert_scenes_identical(a: GaussianScene, b: GaussianScene):
    _assert_clouds_identical(a.cloud, b.cloud)
    assert a.name == b.name
    assert a.descriptor_name == b.descriptor_name
    assert len(a.cameras) == len(b.cameras)
    for cam_a, cam_b in zip(a.cameras, b.cameras):
        assert cam_a.resolution == cam_b.resolution
        assert (cam_a.fx, cam_a.fy, cam_a.cx, cam_a.cy) == (
            cam_b.fx, cam_b.fy, cam_b.cx, cam_b.cy
        )
        assert (cam_a.znear, cam_a.zfar) == (cam_b.znear, cam_b.zfar)
        assert np.array_equal(cam_a.world_to_camera, cam_b.world_to_camera)


class TestSceneStore:
    def test_empty_store(self):
        store = SceneStore()
        assert len(store) == 0
        assert store.num_gaussians == 0
        assert store.num_cameras == 0
        assert list(store) == []

    def test_round_trip_is_bit_identical(self):
        scenes = [_scene(seed=i, sh_degree=i % 3) for i in range(4)]
        store = SceneStore(scenes)
        assert len(store) == 4
        for index, scene in enumerate(scenes):
            _assert_scenes_identical(store.get_scene(index), scene)

    def test_views_share_memory_with_store(self):
        store = SceneStore([_scene()])
        view = store.get_scene(0)
        assert np.shares_memory(view.cloud.positions, store._positions)
        assert np.shares_memory(view.cloud.sh_coeffs, store._sh)
        assert np.shares_memory(
            view.cameras[0].world_to_camera, store._poses
        )

    def test_lookup_by_name_and_negative_index(self):
        store = SceneStore([_scene(seed=0, name="a"), _scene(seed=1, name="b")])
        assert store.scene_index("b") == 1
        assert store.get_scene("a").name == "a"
        assert store.get_scene(-1).name == "b"

    def test_unknown_name_and_out_of_range_index(self):
        store = SceneStore([_scene()])
        with pytest.raises(KeyError):
            store.scene_index("missing")
        with pytest.raises(IndexError):
            store.get_scene(1)
        with pytest.raises(IndexError):
            store.get_scene(-2)

    def test_mixed_sh_degrees_round_trip(self):
        scenes = [_scene(seed=i, sh_degree=degree) for i, degree in
                  enumerate([0, 3, 1, 2])]
        store = SceneStore(scenes)
        for index, scene in enumerate(scenes):
            view = store.get_scene(index)
            assert view.cloud.sh_coeffs.shape == scene.cloud.sh_coeffs.shape
            _assert_clouds_identical(view.cloud, scene.cloud)

    def test_camera_less_and_empty_cloud_scenes(self):
        cloud = _scene().cloud
        empty_cloud = GaussianCloud(
            positions=np.zeros((0, 3)), scales=np.zeros((0, 3)),
            rotations=np.zeros((0, 4)), opacities=np.zeros(0),
            sh_coeffs=np.zeros((0, 4, 3)),
        )
        camera = Camera(width=32, height=24, fx=30.0, fy=30.0)
        store = SceneStore([
            GaussianScene(cloud=cloud, cameras=[], name="no-cams"),
            GaussianScene(cloud=empty_cloud, cameras=[camera], name="empty"),
        ])
        no_cams = store.get_scene("no-cams")
        assert no_cams.cameras == []
        assert no_cams.num_gaussians == len(cloud)
        empty = store.get_scene("empty")
        assert empty.num_gaussians == 0
        assert empty.cloud.sh_coeffs.shape == (0, 4, 3)
        assert len(empty.cameras) == 1

    def test_amortized_reallocation(self):
        # Appending N scenes must not reallocate the flat arrays N times:
        # geometric growth keeps the number of distinct buffers O(log N).
        store = SceneStore()
        buffers = set()
        for seed in range(24):
            store.add_scene(_scene(num_gaussians=40, seed=seed))
            buffers.add(id(store._positions))
        assert len(buffers) <= int(np.ceil(np.log2(24 * 40))) + 1
        assert store.num_gaussians == 24 * 40
        assert store.capacity_bytes >= store.nbytes

    def test_save_load_round_trip(self, tmp_path):
        scenes = [_scene(seed=i, sh_degree=(3 - i) % 4) for i in range(3)]
        store = SceneStore(scenes)
        path = store.save(tmp_path / "fleet")
        assert path.suffix == ".npz"
        loaded = SceneStore.load(path)
        assert len(loaded) == len(store)
        assert loaded.names == store.names
        for index, scene in enumerate(scenes):
            _assert_scenes_identical(loaded.get_scene(index), scene)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SceneStore.load(tmp_path / "nope.npz")

    def test_scene_nbytes_sums_to_store_payload(self):
        # Mixed SH degrees: the total must charge each scene its own
        # coefficient count, not the padded store-wide SH width.
        store = SceneStore([_scene(seed=i, sh_degree=i) for i in range(3)])
        per_scene = sum(store.scene_nbytes(i) for i in range(3))
        # The store total additionally counts the five per-scene index slots.
        assert store.nbytes == per_scene + 3 * 5 * 8

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=25), min_size=1,
                       max_size=6),
        degrees=st.lists(st.integers(min_value=0, max_value=3), min_size=6,
                         max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_clouds_round_trip_bit_identically(
        self, sizes, degrees, seed
    ):
        rng = np.random.default_rng(seed)
        scenes = [
            GaussianScene(
                cloud=_random_cloud(rng, n, degrees[i]),
                cameras=[], name=f"rand-{i}",
            )
            for i, n in enumerate(sizes)
        ]
        store = SceneStore(scenes)
        for index, scene in enumerate(scenes):
            _assert_clouds_identical(store.get_cloud(index), scene.cloud)


class TestIncrementalGrowth:
    """Membership only grows: ``add_scene``/``extend`` after construction."""

    def _grown_store_and_scenes(self):
        # Later scenes are larger and carry more SH bands, so adding them
        # one at a time reallocates the flat arrays and widens the SH block
        # under the scenes already stored.
        scenes = [
            _scene(num_gaussians=40 + 15 * seed, sh_degree=seed % 4,
                   seed=seed, num_cameras=1 + seed)
            for seed in range(4)
        ]
        store = SceneStore()
        for scene in scenes:
            store.add_scene(scene)
        return store, scenes

    @pytest.mark.parametrize("key", [0, 1, 3, "scene-2"])
    def test_every_scene_is_intact_after_growth(self, key):
        store, scenes = self._grown_store_and_scenes()
        index = store.resolve_index(key)
        _assert_scenes_identical(store.get_scene(key), scenes[index])
        assert store.names == [scene.name for scene in scenes]

    def test_counters_and_bytes_grow_by_the_added_scene(self):
        store, scenes = self._grown_store_and_scenes()
        before_bytes = store.nbytes
        extra = _scene(num_gaussians=33, sh_degree=2, seed=9, num_cameras=3)
        index = store.add_scene(extra)
        assert index == len(scenes)
        assert store.num_gaussians == (
            sum(s.num_gaussians for s in scenes) + extra.num_gaussians
        )
        assert store.num_cameras == (
            sum(len(s.cameras) for s in scenes) + len(extra.cameras)
        )
        # Payload plus the five per-scene index slots are charged.
        assert store.nbytes == before_bytes + store.scene_nbytes(index) + 5 * 8

    def test_extend_returns_consecutive_indices(self):
        store, scenes = self._grown_store_and_scenes()
        extras = [_scene(seed=seed, name=f"extra-{seed}") for seed in (7, 8)]
        assert store.extend(extras) == [4, 5]
        assert store.extend([]) == []
        _assert_scenes_identical(store.get_scene("extra-8"), extras[1])
        _assert_scenes_identical(store.get_scene(0), scenes[0])

    def test_duplicate_names_resolve_to_the_first(self):
        first = _scene(seed=1, name="twin")
        second = _scene(seed=2, name="twin")
        store = SceneStore([first])
        assert store.add_scene(second) == 1
        assert store.scene_index("twin") == 0
        _assert_clouds_identical(store.get_cloud("twin"), first.cloud)
        _assert_clouds_identical(store.get_cloud(1), second.cloud)

    def test_save_load_after_growth(self, tmp_path):
        store, scenes = self._grown_store_and_scenes()
        assert store.capacity_bytes > store.nbytes  # slack is not persisted
        reloaded = SceneStore.load(store.save(tmp_path / "grown.npz"))
        assert reloaded.names == store.names
        assert reloaded.nbytes == store.nbytes
        for index, scene in enumerate(scenes):
            _assert_scenes_identical(reloaded.get_scene(index), scene)

    def test_failed_lookups_change_nothing(self):
        store, _ = self._grown_store_and_scenes()
        before = (len(store), store.num_gaussians, store.nbytes)
        with pytest.raises(IndexError):
            store.get_scene(4)
        with pytest.raises(KeyError):
            store.get_scene("missing")
        assert (len(store), store.num_gaussians, store.nbytes) == before

    def test_views_from_before_growth_keep_their_values(self):
        store = SceneStore([_scene(seed=0, sh_degree=0)])
        view = store.get_cloud(0)
        expected = view.positions.copy()
        store.add_scene(_scene(seed=1, num_gaussians=500, sh_degree=3))
        # The old buffer is dropped by the store but not by the view.
        assert not np.shares_memory(view.positions, store._positions)
        assert np.array_equal(view.positions, expected)
        _assert_clouds_identical(store.get_cloud(0), view)

    def test_capacity_covers_payload_after_every_add(self):
        store = SceneStore()
        for seed in range(6):
            store.add_scene(_scene(seed=seed, num_gaussians=30 + 20 * seed))
            assert store.capacity_bytes >= store.nbytes
        assert store.num_gaussians == sum(30 + 20 * seed for seed in range(6))


class TestSceneIOWrappers:
    def test_save_scene_with_empty_camera_list(self, tmp_path):
        # Regression: np.stack over an empty camera list used to raise.
        scene = GaussianScene(cloud=_scene().cloud, cameras=[], name="bare")
        path = save_scene(scene, tmp_path / "bare")
        loaded = load_scene(path)
        assert loaded.cameras == []
        _assert_clouds_identical(loaded.cloud, scene.cloud)
        assert loaded.name == "bare"

    def test_load_scene_rejects_multi_scene_archives(self, tmp_path):
        store = SceneStore([_scene(seed=0), _scene(seed=1)])
        path = store.save(tmp_path / "two")
        with pytest.raises(ValueError, match="2 scenes"):
            load_scene(path)
        # The store API reads the same archive fine.
        assert len(SceneStore.load(path)) == 2

    def test_load_scene_reads_legacy_v1_archives(self, tmp_path):
        # save_scene now writes store archives; hand-craft a v1 file to keep
        # the legacy reader honest.
        import json

        scene = _scene(num_cameras=1)
        camera = scene.default_camera
        metadata = {
            "format_version": 1,
            "name": scene.name,
            "descriptor_name": None,
            "cameras": [{
                "width": camera.width, "height": camera.height,
                "fx": camera.fx, "fy": camera.fy, "cx": camera.cx,
                "cy": camera.cy, "znear": camera.znear, "zfar": camera.zfar,
            }],
        }
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            metadata=json.dumps(metadata),
            positions=scene.cloud.positions,
            scales=scene.cloud.scales,
            rotations=scene.cloud.rotations,
            opacities=scene.cloud.opacities,
            sh_coeffs=scene.cloud.sh_coeffs,
            camera_poses=np.stack([camera.world_to_camera]),
        )
        loaded = load_scene(path)
        _assert_scenes_identical(loaded, scene)
