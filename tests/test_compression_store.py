"""Tests for the CompressedSceneStore tier and its format-v3 persistence."""

import numpy as np
import pytest

from repro.compression import CompressedSceneStore, load_store
from repro.gaussians.io import save_scene
from repro.gaussians.pipeline import render
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import SceneStore


def _scene(num_gaussians=120, sh_degree=1, seed=0, num_cameras=2, name=None):
    config = SyntheticConfig(
        num_gaussians=num_gaussians, width=64, height=48,
        sh_degree=sh_degree, seed=seed,
    )
    return make_synthetic_scene(
        config, name=name or f"scene-{seed}", num_cameras=num_cameras
    )


@pytest.fixture()
def scenes():
    return [
        _scene(seed=0, sh_degree=1),
        _scene(seed=1, sh_degree=2, num_gaussians=80),
        _scene(seed=2, sh_degree=0, num_gaussians=150),
    ]


class TestCompressedStoreBasics:
    def test_mirrors_the_store_api(self, scenes):
        store = CompressedSceneStore(scenes, codec="fp16")
        assert len(store) == 3
        assert store.names == ["scene-0", "scene-1", "scene-2"]
        assert store.num_gaussians == sum(s.num_gaussians for s in scenes)
        assert store.resolve_index("scene-1") == 1
        assert len(store.get_cameras(0)) == 2
        assert [scene.name for scene in store] == store.names

    def test_levels_and_sizes(self, scenes):
        store = CompressedSceneStore(scenes, levels=3, keep_ratio=0.5)
        for index in range(3):
            assert store.num_levels(index) == 3
            sizes = store.level_sizes(index)
            assert sizes[0] == scenes[index].num_gaussians
            assert sizes[0] > sizes[1] > sizes[2]
            for level in range(3):
                assert len(store.get_cloud(index, level)) == sizes[level]
        with pytest.raises(IndexError, match="detail level"):
            store.get_cloud(0, 3)
        with pytest.raises(IndexError, match="detail level"):
            store.get_scene(0, -1)

    def test_lossless_codec_roundtrips_exactly(self, scenes):
        store = CompressedSceneStore(scenes, codec="fp64")
        for index, scene in enumerate(scenes):
            decoded = store.get_cloud(index)
            assert np.array_equal(decoded.positions, scene.cloud.positions)
            assert np.array_equal(decoded.sh_coeffs, scene.cloud.sh_coeffs)

    def test_lossy_codec_within_bounds_and_smaller(self, scenes):
        store = CompressedSceneStore(scenes, codec="int8")
        assert store.compression_ratio > 5.0
        for index, scene in enumerate(scenes):
            decoded = store.get_cloud(index)
            bounds = store.error_bounds(index)
            for name in ("positions", "scales", "opacities"):
                error = np.max(
                    np.abs(getattr(decoded, name) - getattr(scene.cloud, name))
                )
                assert error <= bounds[name]
            assert store.scene_nbytes(index) < store.scene_raw_nbytes(index)

    def test_scene_bounds_match_cloud(self, scenes):
        store = CompressedSceneStore(scenes, codec="fp64")
        center, radius = store.scene_bounds(0)
        positions = scenes[0].cloud.positions
        assert np.allclose(center, positions.mean(axis=0))
        distances = np.linalg.norm(positions - positions.mean(axis=0), axis=1)
        assert radius == pytest.approx(distances.max())

    def test_counters_follow_added_scenes(self, scenes):
        store = CompressedSceneStore(scenes[:2], codec="fp16")
        index = store.add_scene(scenes[2])
        assert index == 2
        assert store.names == ["scene-0", "scene-1", "scene-2"]
        assert store.num_gaussians == sum(s.num_gaussians for s in scenes)
        assert store.num_cameras == sum(len(s.cameras) for s in scenes)
        assert store.level_sizes(2)[0] == scenes[2].num_gaussians
        assert np.array_equal(
            store.get_cloud(2).positions,
            CompressedSceneStore([scenes[2]], codec="fp16")
            .get_cloud(0).positions,
        )

    def test_overlapping_substores_share_records(self, scenes):
        # A replicated scene on two shards: both sub-stores carry the same
        # quantized record rather than two encodings of it.
        store = CompressedSceneStore(scenes, codec="int8")
        a = store.build_substore([0, 1])
        b = store.build_substore([1, 2])
        assert a.scene_record(1) is b.scene_record(0) is store.scene_record(1)
        assert np.array_equal(
            a.get_cloud(1).sh_coeffs, b.get_cloud(0).sh_coeffs
        )

    def test_substore_preserves_payload_verbatim(self, scenes):
        store = CompressedSceneStore(scenes, codec="int8", levels=3)
        substore = store.build_substore([2, 0])
        assert isinstance(substore, CompressedSceneStore)
        assert substore.names == ["scene-2", "scene-0"]
        for sub_index, parent_index in ((0, 2), (1, 0)):
            for level in range(3):
                a = substore.get_cloud(sub_index, level)
                b = store.get_cloud(parent_index, level)
                assert np.array_equal(a.positions, b.positions)
                assert np.array_equal(a.opacities, b.opacities)


class TestPersistence:
    def test_v3_roundtrip_is_bit_exact(self, scenes, tmp_path):
        store = CompressedSceneStore(
            scenes, codec="int8", levels=3, keep_ratio=0.6
        )
        path = store.save(tmp_path / "fleet-q.npz")
        reloaded = CompressedSceneStore.load(path)
        assert reloaded.names == store.names
        assert reloaded.codec == store.codec
        for index in range(len(store)):
            assert reloaded.level_sizes(index) == store.level_sizes(index)
            assert reloaded.error_bounds(index) == store.error_bounds(index)
            for level in range(3):
                a = store.get_cloud(index, level)
                b = reloaded.get_cloud(index, level)
                for name in (
                    "positions", "scales", "rotations", "opacities",
                    "sh_coeffs",
                ):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            cameras = reloaded.get_cameras(index)
            assert len(cameras) == len(store.get_cameras(index))
            assert np.array_equal(
                cameras[0].world_to_camera,
                store.get_cameras(index)[0].world_to_camera,
            )

    def test_v3_renders_identically_after_reload(self, scenes, tmp_path):
        store = CompressedSceneStore(scenes, codec="fp16")
        path = store.save(tmp_path / "q.npz")
        reloaded = CompressedSceneStore.load(path)
        camera = scenes[0].cameras[0]
        assert np.array_equal(
            render(store.get_scene(0, 1), camera=camera).image,
            render(reloaded.get_scene(0, 1), camera=camera).image,
        )

    def test_loads_v2_archives_losslessly(self, scenes, tmp_path):
        plain = SceneStore(scenes)
        path = plain.save(tmp_path / "fleet.npz")
        imported = CompressedSceneStore.load(path)
        assert imported.codec == "fp64"
        assert imported.num_levels(0) == 1
        for index, scene in enumerate(scenes):
            assert np.array_equal(
                imported.get_cloud(index).positions, scene.cloud.positions
            )

    def test_loads_v1_archives_losslessly(self, scenes, tmp_path):
        # Write a genuine legacy v1 archive via the io module's v1 layout.
        import json

        scene = scenes[0]
        path = tmp_path / "legacy.npz"
        metadata = {
            "format_version": 1,
            "name": scene.name,
            "descriptor_name": None,
            "cameras": [
                {
                    "width": c.width, "height": c.height, "fx": c.fx,
                    "fy": c.fy, "cx": c.cx, "cy": c.cy, "znear": c.znear,
                    "zfar": c.zfar,
                }
                for c in scene.cameras
            ],
        }
        np.savez_compressed(
            path,
            metadata=json.dumps(metadata),
            positions=scene.cloud.positions,
            scales=scene.cloud.scales,
            rotations=scene.cloud.rotations,
            opacities=scene.cloud.opacities,
            sh_coeffs=scene.cloud.sh_coeffs,
            camera_poses=np.stack(
                [c.world_to_camera for c in scene.cameras]
            ),
        )
        imported = CompressedSceneStore.load(path)
        assert len(imported) == 1
        assert np.array_equal(
            imported.get_cloud(0).positions, scene.cloud.positions
        )

    def test_plain_store_rejects_v3_with_hint(self, scenes, tmp_path):
        path = CompressedSceneStore(scenes).save(tmp_path / "q.npz")
        with pytest.raises(ValueError, match="CompressedSceneStore"):
            SceneStore.load(path)

    def test_load_store_sniffs_the_format(self, scenes, tmp_path):
        v2 = SceneStore(scenes).save(tmp_path / "v2.npz")
        v3 = CompressedSceneStore(scenes).save(tmp_path / "v3.npz")
        v1 = save_scene(scenes[0], tmp_path / "v1.npz")
        assert type(load_store(v2)) is SceneStore
        assert isinstance(load_store(v3), CompressedSceneStore)
        assert type(load_store(v1)) is SceneStore  # v2 wrapper of one scene
        with pytest.raises(FileNotFoundError):
            load_store(tmp_path / "missing.npz")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CompressedSceneStore.load(tmp_path / "missing.npz")
