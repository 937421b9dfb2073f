"""Compressed multi-scene storage tier: quantized payloads + LOD pyramids.

A :class:`CompressedSceneStore` is a drop-in storage tier under the serving
layer: it keeps every scene's Gaussian cloud *quantized* (one codec per
store, see :mod:`repro.compression.codecs`) together with its importance
pyramid (:mod:`repro.compression.lod`), while cameras, names and index
bookkeeping reuse the flattened machinery of the parent
:class:`~repro.serving.store.SceneStore`.  ``get_cloud``/``get_scene`` take
a ``level`` argument, decode on demand, and return *valid* clouds, so the
whole ``RenderService`` / ``ShardedRenderService`` stack serves compressed
scenes without special cases.

Persistence is ``.npz`` **format version 3**: quantized field payloads,
affine parameters, importance orders and level sizes per scene, alongside
the same flat camera arrays as a version-2 archive.  :meth:`load` also
reads version-1 and version-2 archives, importing them as a lossless
(``"fp64"``) single-level tier so nothing is silently re-quantized.

Usage::

    from repro.compression import CompressedSceneStore

    store = CompressedSceneStore([scene_a, scene_b], codec="fp16", levels=3)
    store.compression_ratio            # e.g. ~4.0 for fp16
    coarse = store.get_scene(0, level=2)
    store.save("fleet-q.npz")          # format v3
    store = CompressedSceneStore.load("fleet-q.npz")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.compression.codecs import (
    CLOUD_FIELDS,
    CompressedCloud,
    DEFAULT_CODEC,
    EncodedField,
    compress_cloud,
    raw_cloud_nbytes,
)
from repro.compression.lod import (
    DEFAULT_KEEP_RATIO,
    DEFAULT_LOD_LEVELS,
    LodPyramid,
    build_lod_pyramid,
)
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.scene import GaussianScene
from repro.serving.store import CAMERA_FIELDS, SceneStore, bounding_sphere

#: Format identifier of compressed store archives.
COMPRESSED_FORMAT_VERSION = 3


def _empty_cloud() -> GaussianCloud:
    """A zero-Gaussian cloud used as the parent store's placeholder."""
    return GaussianCloud(
        positions=np.zeros((0, 3)),
        scales=np.zeros((0, 3)),
        rotations=np.zeros((0, 4)),
        opacities=np.zeros(0),
        sh_coeffs=np.zeros((0, 1, 3)),
    )


@dataclass
class CompressedSceneRecord:
    """One scene's quantized payload plus its LOD metadata.

    Attributes
    ----------
    cloud:
        The quantized Gaussian cloud.
    pyramid:
        Importance ordering and nested level sizes.
    center, radius:
        Bounding sphere of the Gaussian centres (drives footprint LOD).
    """

    cloud: CompressedCloud
    pyramid: LodPyramid
    center: np.ndarray = field(repr=False)
    radius: float


class CompressedSceneStore(SceneStore):
    """A :class:`~repro.serving.store.SceneStore` tier with quantized scenes.

    Parameters
    ----------
    scenes:
        Scenes to compress and add.
    codec:
        Quantization codec applied to every added scene (``"fp64"`` is the
        lossless tier; ``"fp16"``/``"int8"`` are lossy with advertised
        error bounds).
    levels, keep_ratio:
        LOD pyramid shape: ``levels`` nested tiers, each keeping
        ``keep_ratio`` of the previous one (see
        :func:`~repro.compression.lod.build_lod_pyramid`).

    Unlike the parent store, ``get_cloud``/``get_scene`` *decode* — they
    return fresh arrays, not views, so they are O(scene size) rather than
    O(1).  The serving layer's covariance and frame caches absorb the
    difference for hot scenes.
    """

    def __init__(
        self,
        scenes: Optional[Iterable[GaussianScene]] = None,
        codec: str = DEFAULT_CODEC,
        levels: int = DEFAULT_LOD_LEVELS,
        keep_ratio: float = DEFAULT_KEEP_RATIO,
    ):
        self.codec = codec
        self.levels = int(levels)
        self.keep_ratio = float(keep_ratio)
        self._records: List[CompressedSceneRecord] = []
        super().__init__(scenes)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def add_scene(self, scene: GaussianScene) -> int:
        """Compress a scene with the store's codec and append it."""
        cloud = scene.cloud
        center, radius = bounding_sphere(cloud.positions)
        record = CompressedSceneRecord(
            cloud=compress_cloud(cloud, self.codec),
            pyramid=build_lod_pyramid(
                cloud, cameras=scene.cameras, levels=self.levels,
                keep_ratio=self.keep_ratio,
            ),
            center=center,
            radius=radius,
        )
        return self._adopt(record, scene)

    def _adopt(self, record: CompressedSceneRecord, scene: GaussianScene) -> int:
        """Register an already-compressed record (cameras via the parent)."""
        shell = GaussianScene(
            cloud=_empty_cloud(),
            cameras=scene.cameras,
            name=scene.name,
            descriptor_name=scene.descriptor_name,
        )
        index = super().add_scene(shell)
        self._records.append(record)
        return index

    def build_substore(self, indices) -> "CompressedSceneStore":
        """Sub-store carrying the selected scenes' payloads *verbatim*.

        Quantized payloads are shared, not re-encoded, so a sharded worker
        serves bit-identical frames to the parent store (re-quantizing a
        decoded lossy cloud would move the quantization grid).
        """
        substore = CompressedSceneStore(
            codec=self.codec, levels=self.levels, keep_ratio=self.keep_ratio
        )
        for index in indices:
            resolved = self.resolve_index(index)
            shell = GaussianScene(
                cloud=_empty_cloud(),
                cameras=self.get_cameras(resolved),
                name=self._names[resolved],
                descriptor_name=self._descriptors[resolved],
            )
            substore._adopt(self._records[resolved], shell)
        return substore

    @classmethod
    def from_store(
        cls,
        store: SceneStore,
        codec: str = DEFAULT_CODEC,
        levels: int = DEFAULT_LOD_LEVELS,
        keep_ratio: float = DEFAULT_KEEP_RATIO,
    ) -> "CompressedSceneStore":
        """Compress every scene of an existing store into a new tier."""
        return cls(
            (store.get_scene(index) for index in range(len(store))),
            codec=codec, levels=levels, keep_ratio=keep_ratio,
        )

    # ------------------------------------------------------------------ #
    # Reading (decode on demand)
    # ------------------------------------------------------------------ #
    def num_levels(self, index: Union[int, str]) -> int:
        """Detail levels of scene ``index`` (its pyramid depth)."""
        index = self.resolve_index(index)
        return self._records[index].pyramid.num_levels

    def level_sizes(self, index: Union[int, str]) -> tuple:
        """Gaussian count of each detail level, finest first."""
        index = self.resolve_index(index)
        return tuple(self._records[index].pyramid.level_sizes)

    def scene_bounds(self, index: Union[int, str]):
        """Bounding sphere ``(center, radius)`` recorded at compression time."""
        index = self.resolve_index(index)
        record = self._records[index]
        return record.center.copy(), record.radius

    def get_cloud(self, index: Union[int, str], level: int = 0) -> GaussianCloud:
        """Decode scene ``index`` at ``level`` (fresh arrays, not views).

        Coarse levels decode only the rows they keep, so the cost scales
        with the level's own Gaussian count, not the full scene's.
        """
        index = self.resolve_index(index)
        level = self._check_level(index, level)
        record = self._records[index]
        if level == 0:
            return record.cloud.decode()
        return record.cloud.decode(record.pyramid.level_indices(level))

    def error_bounds(self, index: Union[int, str]) -> dict:
        """Advertised per-field worst-case decode errors of one scene."""
        index = self.resolve_index(index)
        return self._records[index].cloud.error_bounds

    def scene_record(self, index: Union[int, str]) -> CompressedSceneRecord:
        """The quantized record behind one scene (payload-verbatim access).

        Storage tiers (:mod:`repro.serving.storage`) use this to persist
        or re-host the encoded payload without a decode/re-encode round
        trip, which is what keeps frames bit-identical across tiers.
        """
        return self._records[self.resolve_index(index)]

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    @property
    def num_gaussians(self) -> int:
        """Total (full-detail) Gaussians across all stored scenes."""
        return sum(record.cloud.num_gaussians for record in self._records)

    def scene_nbytes(self, index: Union[int, str]) -> int:
        """Compressed payload bytes of one scene (cloud + cameras)."""
        index = self.resolve_index(index)
        cameras = int(self._cam_length[index]) * (16 + CAMERA_FIELDS) * 8
        return self._records[index].cloud.nbytes + cameras

    def scene_raw_nbytes(self, index: Union[int, str]) -> int:
        """Bytes the same scene would occupy uncompressed (fp64, no LOD)."""
        index = self.resolve_index(index)
        record = self._records[index]
        k = record.cloud.fields["sh_coeffs"].shape[1] if record.cloud.num_gaussians else 1
        return raw_cloud_nbytes(record.cloud.num_gaussians, k)

    @property
    def nbytes(self) -> int:
        """Payload bytes of the whole tier (compressed clouds + cameras)."""
        cameras = self._num_cameras * (16 + CAMERA_FIELDS) * 8
        per_scene = 5 * 8 * self._num_scenes
        clouds = sum(record.cloud.nbytes for record in self._records)
        orders = sum(record.pyramid.order.nbytes for record in self._records)
        return clouds + orders + cameras + per_scene

    @property
    def compression_ratio(self) -> float:
        """Uncompressed-to-compressed cloud payload ratio (1.0 when empty)."""
        compressed = sum(record.cloud.nbytes for record in self._records)
        if compressed == 0:
            return 1.0
        raw = sum(
            self.scene_raw_nbytes(index) for index in range(self._num_scenes)
        )
        return raw / compressed

    # ------------------------------------------------------------------ #
    # Persistence (format version 3)
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the compressed tier to an ``.npz`` archive (format v3)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        s, c = self._num_scenes, self._num_cameras

        arrays = {
            "camera_start": self._cam_start[:s],
            "camera_length": self._cam_length[:s],
            "camera_poses": self._poses[:c],
            "camera_intrinsics": self._intrinsics[:c],
        }
        scenes_meta = []
        for i, record in enumerate(self._records):
            fields_meta = {}
            for name in CLOUD_FIELDS:
                field = record.cloud.fields[name]
                arrays[f"s{i}_{name}_data"] = field.data
                if field.offsets is not None:
                    arrays[f"s{i}_{name}_offsets"] = field.offsets
                    arrays[f"s{i}_{name}_steps"] = field.steps
                fields_meta[name] = {
                    "shape": list(field.shape),
                    "error_bound": field.error_bound,
                }
            arrays[f"s{i}_order"] = record.pyramid.order
            scenes_meta.append(
                {
                    "name": self._names[i],
                    "descriptor_name": self._descriptors[i],
                    "codec": record.cloud.codec,
                    "fields": fields_meta,
                    "level_sizes": list(record.pyramid.level_sizes),
                    "center": [float(v) for v in record.center],
                    "radius": record.radius,
                }
            )
        metadata = {
            "format_version": COMPRESSED_FORMAT_VERSION,
            "codec": self.codec,
            "levels": self.levels,
            "keep_ratio": self.keep_ratio,
            "scenes": scenes_meta,
        }
        np.savez_compressed(path, metadata=json.dumps(metadata), **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompressedSceneStore":
        """Load a compressed tier; v1/v2 archives import as lossless.

        Format-3 archives restore the quantized payloads verbatim.  A
        version-2 (plain store) or version-1 (single-scene) archive is
        imported with the ``"fp64"`` codec and a single detail level, so
        loading never silently degrades data.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"scene store archive not found: {path}")
        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            version = metadata.get("format_version")
            if version == COMPRESSED_FORMAT_VERSION:
                return cls._from_v3_archive(archive, metadata)
        if version == 2:
            return cls.from_store(SceneStore.load(path), codec="fp64", levels=1)
        if version == 1:
            from repro.gaussians.io import load_scene

            return cls([load_scene(path)], codec="fp64", levels=1)
        raise ValueError(f"unsupported scene store format version {version!r}")

    @classmethod
    def _from_v3_archive(cls, archive, metadata: dict) -> "CompressedSceneStore":
        """Rebuild the tier from an open format-3 archive."""
        store = cls(
            codec=metadata["codec"],
            levels=int(metadata["levels"]),
            keep_ratio=float(metadata["keep_ratio"]),
        )
        cam_start = np.array(archive["camera_start"], dtype=np.int64)
        cam_length = np.array(archive["camera_length"], dtype=np.int64)
        poses = np.array(archive["camera_poses"])
        intrinsics = np.array(archive["camera_intrinsics"])

        from repro.gaussians.camera import Camera

        for i, scene_meta in enumerate(metadata["scenes"]):
            fields = {}
            for name in CLOUD_FIELDS:
                field_meta = scene_meta["fields"][name]
                offsets = steps = None
                if f"s{i}_{name}_offsets" in archive:
                    offsets = np.array(archive[f"s{i}_{name}_offsets"])
                    steps = np.array(archive[f"s{i}_{name}_steps"])
                fields[name] = EncodedField(
                    codec=scene_meta["codec"],
                    data=np.array(archive[f"s{i}_{name}_data"]),
                    shape=tuple(field_meta["shape"]),
                    offsets=offsets,
                    steps=steps,
                    error_bound=float(field_meta["error_bound"]),
                )
            order = np.array(archive[f"s{i}_order"], dtype=np.int64)
            record = CompressedSceneRecord(
                cloud=CompressedCloud(
                    codec=scene_meta["codec"], fields=fields,
                    num_gaussians=len(order),
                ),
                pyramid=LodPyramid(
                    order=order, level_sizes=tuple(scene_meta["level_sizes"])
                ),
                center=np.array(scene_meta["center"], dtype=np.float64),
                radius=float(scene_meta["radius"]),
            )
            cameras = []
            for row in range(cam_start[i], cam_start[i] + cam_length[i]):
                width, height, fx, fy, cx, cy, znear, zfar = intrinsics[row]
                cameras.append(
                    Camera(
                        width=int(width), height=int(height), fx=fx, fy=fy,
                        cx=cx, cy=cy, world_to_camera=poses[row],
                        znear=znear, zfar=zfar,
                    )
                )
            shell = GaussianScene(
                cloud=_empty_cloud(),
                cameras=cameras,
                name=scene_meta["name"],
                descriptor_name=scene_meta["descriptor_name"],
            )
            store._adopt(record, shell)
        return store


def load_store(path: Union[str, Path]) -> SceneStore:
    """Open any scene-store archive with the right tier for its format.

    Version-3 archives come back as a :class:`CompressedSceneStore`;
    version-2 (and single-scene version-1) archives come back as a plain
    :class:`~repro.serving.store.SceneStore`; version-4 paged directories
    come back as a :class:`~repro.serving.storage.paged.PagedSceneStore`.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scene store archive not found: {path}")
    from repro.serving.storage.paged import PagedSceneStore, is_paged_archive

    if is_paged_archive(path):
        return PagedSceneStore(path)
    with np.load(path, allow_pickle=False) as archive:
        version = json.loads(str(archive["metadata"])).get("format_version")
    if version == COMPRESSED_FORMAT_VERSION:
        return CompressedSceneStore.load(path)
    if version == 1:
        from repro.gaussians.io import load_scene

        store = SceneStore()
        store.add_scene(load_scene(path))
        return store
    return SceneStore.load(path)
