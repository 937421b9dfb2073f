"""Flattened multi-scene container with O(1) zero-copy scene views.

A :class:`SceneStore` packs any number of Gaussian clouds into *single*
contiguous NumPy arrays — one array per field (positions, scales, rotations,
opacities, SH coefficients) shared by every scene — plus per-scene
``start``/``length`` index arrays that carve the flat arrays into scenes.
Camera poses and intrinsics are flattened the same way.  The layout follows
the flattened-storage pattern of pyiron's ``StructureContainer``: growing the
store reallocates capacity geometrically, so adding N scenes costs amortized
O(total Gaussians), and reading a scene back is a constant-time slice that
*shares memory* with the store (no copies) and is read-only.

The store also owns the ``.npz`` persistence format (version 2), which
supersedes the one-scene archives of :mod:`repro.gaussians.io`;
``save_scene``/``load_scene`` remain as thin single-scene wrappers.

Spherical-harmonics coefficient counts may differ between scenes (1, 4, 9 or
16 per Gaussian).  The shared SH array is as wide as the widest scene stored
so far and zero-padded for narrower scenes; the per-scene coefficient count
is recorded so that views slice back to exactly the original shape.

Usage::

    from repro.serving import SceneStore

    store = SceneStore([bicycle_scene, garden_scene])
    store.add_scene(kitchen_scene)

    view = store.get_scene("garden")      # O(1) zero-copy read-only view
    store.save("fleet.npz")               # one archive, all scenes
    store = SceneStore.load("fleet.npz")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.scene import GaussianScene

#: Format identifier of multi-scene store archives.
STORE_FORMAT_VERSION = 2

#: Per-camera intrinsics packed into one row of the flat camera array:
#: ``width, height, fx, fy, cx, cy, znear, zfar``.
CAMERA_FIELDS = 8


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """Return ``array`` with its first dimension enlarged to ``rows``."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _read_only(view: np.ndarray) -> np.ndarray:
    """Mark a freshly sliced view of the flat arrays non-writeable."""
    view.flags.writeable = False
    return view


def bounding_sphere(positions: np.ndarray):
    """Bounding sphere ``(center, radius)`` of ``(N, 3)`` points.

    The single definition shared by every store tier — footprint-driven
    LOD policies compare against it, so plain and compressed stores must
    agree.  An empty point set reports a zero-radius sphere at the origin.
    """
    if len(positions) == 0:
        return np.zeros(3), 0.0
    center = positions.mean(axis=0)
    radius = float(np.sqrt(((positions - center) ** 2).sum(axis=1).max()))
    return center, radius


class SceneStore:
    """Many Gaussian scenes in flattened arrays with amortized growth.

    Usage::

        store = SceneStore()
        bicycle_id = store.add_scene(bicycle_scene)
        store.add_scene(garden_scene)

        view = store.get_scene(bicycle_id)   # O(1), shares memory
        store.save("scenes.npz")
        reloaded = SceneStore.load("scenes.npz")

    ``get_scene`` returns :class:`~repro.gaussians.scene.GaussianScene`
    objects whose cloud arrays and camera poses are *read-only views* into
    the store: a write raises ``ValueError`` instead of silently changing
    the catalog under the frame cache.  Copy an array to modify it.  Like
    any array-backed container with geometric growth, a later
    ``add_scene`` may reallocate the flat buffers, at which point
    previously handed-out views keep the (still correct) old buffer but no
    longer share memory with the store — re-fetch views after adding scenes
    if store identity matters.
    """

    def __init__(self, scenes: Optional[Iterable[GaussianScene]] = None):
        self._num_scenes = 0
        self._num_gaussians = 0
        self._num_cameras = 0
        self._sh_width = 1

        # Per-Gaussian flat arrays (first dimension: total Gaussians).
        self._positions = np.zeros((1, 3))
        self._scales = np.zeros((1, 3))
        self._rotations = np.zeros((1, 4))
        self._opacities = np.zeros(1)
        self._sh = np.zeros((1, self._sh_width, 3))

        # Per-scene index arrays (first dimension: scenes).
        self._start = np.zeros(1, dtype=np.int64)
        self._length = np.zeros(1, dtype=np.int64)
        self._sh_k = np.zeros(1, dtype=np.int64)
        self._cam_start = np.zeros(1, dtype=np.int64)
        self._cam_length = np.zeros(1, dtype=np.int64)
        self._names: List[str] = []
        self._descriptors: List[Optional[str]] = []

        # Per-camera flat arrays (first dimension: total cameras).
        self._poses = np.zeros((1, 4, 4))
        self._intrinsics = np.zeros((1, CAMERA_FIELDS))

        if scenes is not None:
            self.extend(scenes)

    # ------------------------------------------------------------------ #
    # Size and introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._num_scenes

    def __iter__(self) -> Iterator[GaussianScene]:
        for index in range(self._num_scenes):
            yield self.get_scene(index)

    @property
    def num_gaussians(self) -> int:
        """Total Gaussians across all stored scenes."""
        return self._num_gaussians

    @property
    def num_cameras(self) -> int:
        """Total cameras across all stored scenes."""
        return self._num_cameras

    @property
    def names(self) -> List[str]:
        """Names of the stored scenes, in insertion order."""
        return list(self._names)

    @property
    def nbytes(self) -> int:
        """Bytes of payload currently used (excluding spare capacity).

        SH bytes are charged at each scene's own coefficient count, not the
        padded store-wide width, so this equals the sum of
        :meth:`scene_nbytes` plus the per-scene index slots.
        """
        n, c, s = self._num_gaussians, self._num_cameras, self._num_scenes
        sh_values = 3 * int(np.dot(self._length[:s], self._sh_k[:s]))
        per_gaussian = (3 + 3 + 4 + 1) * 8
        per_camera = (16 + CAMERA_FIELDS) * 8
        per_scene = 5 * 8
        return n * per_gaussian + sh_values * 8 + c * per_camera + s * per_scene

    @property
    def capacity_bytes(self) -> int:
        """Bytes currently allocated, including spare capacity."""
        arrays = (
            self._positions, self._scales, self._rotations, self._opacities,
            self._sh, self._start, self._length, self._sh_k, self._cam_start,
            self._cam_length, self._poses, self._intrinsics,
        )
        return sum(a.nbytes for a in arrays)

    def scene_index(self, name: str) -> int:
        """Index of the first scene called ``name`` (KeyError if absent)."""
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"no scene named {name!r} in the store") from None

    def resolve_index(self, index: Union[int, str]) -> int:
        """Normalise an index or name to a 0-based position in the store."""
        if isinstance(index, str):
            return self.scene_index(index)
        index = int(index)
        if index < 0:
            index += self._num_scenes
        if not 0 <= index < self._num_scenes:
            raise IndexError(
                f"scene index {index} out of range for {self._num_scenes} scenes"
            )
        return index

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def _require_gaussians(self, extra: int) -> None:
        needed = self._num_gaussians + extra
        if needed > len(self._positions):
            rows = max(needed, 2 * len(self._positions))
            self._positions = _grown(self._positions, rows)
            self._scales = _grown(self._scales, rows)
            self._rotations = _grown(self._rotations, rows)
            self._opacities = _grown(self._opacities, rows)
            self._sh = _grown(self._sh, rows)

    def _require_scenes(self, extra: int) -> None:
        needed = self._num_scenes + extra
        if needed > len(self._start):
            rows = max(needed, 2 * len(self._start))
            self._start = _grown(self._start, rows)
            self._length = _grown(self._length, rows)
            self._sh_k = _grown(self._sh_k, rows)
            self._cam_start = _grown(self._cam_start, rows)
            self._cam_length = _grown(self._cam_length, rows)

    def _require_cameras(self, extra: int) -> None:
        needed = self._num_cameras + extra
        if needed > len(self._poses):
            rows = max(needed, 2 * len(self._poses))
            self._poses = _grown(self._poses, rows)
            self._intrinsics = _grown(self._intrinsics, rows)

    def _require_sh_width(self, width: int) -> None:
        if width > self._sh_width:
            widened = np.zeros((len(self._sh), width, 3))
            widened[:, : self._sh_width, :] = self._sh
            self._sh = widened
            self._sh_width = width

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def add_scene(self, scene: GaussianScene) -> int:
        """Append a scene and return its index in the store."""
        cloud = scene.cloud
        n = len(cloud)
        k = cloud.sh_coeffs.shape[1]
        num_cams = len(scene.cameras)

        self._require_sh_width(k)
        self._require_gaussians(n)
        self._require_scenes(1)
        self._require_cameras(num_cams)

        start = self._num_gaussians
        self._positions[start : start + n] = cloud.positions
        self._scales[start : start + n] = cloud.scales
        self._rotations[start : start + n] = cloud.rotations
        self._opacities[start : start + n] = cloud.opacities
        self._sh[start : start + n, :k, :] = cloud.sh_coeffs
        self._sh[start : start + n, k:, :] = 0.0

        cam_start = self._num_cameras
        for offset, camera in enumerate(scene.cameras):
            self._poses[cam_start + offset] = camera.world_to_camera
            self._intrinsics[cam_start + offset] = (
                camera.width, camera.height, camera.fx, camera.fy,
                camera.cx, camera.cy, camera.znear, camera.zfar,
            )

        index = self._num_scenes
        self._start[index] = start
        self._length[index] = n
        self._sh_k[index] = k
        self._cam_start[index] = cam_start
        self._cam_length[index] = num_cams
        self._names.append(scene.name)
        self._descriptors.append(scene.descriptor_name)

        self._num_gaussians += n
        self._num_cameras += num_cams
        self._num_scenes += 1
        return index

    def extend(self, scenes: Iterable[GaussianScene]) -> List[int]:
        """Append several scenes; returns their indices."""
        return [self.add_scene(scene) for scene in scenes]

    def build_substore(self, indices: Iterable[Union[int, str]]) -> "SceneStore":
        """Build a new store holding copies of the given scenes, in order.

        Used by the sharded serving layer to hand each worker exactly the
        scenes it owns; subclasses override it so a sub-store preserves the
        parent's storage tier (e.g. quantized payloads and LOD pyramids).
        """
        return SceneStore(self.get_scene(index) for index in indices)

    # ------------------------------------------------------------------ #
    # Reading (zero-copy)
    # ------------------------------------------------------------------ #
    def _check_level(self, index: int, level: int) -> int:
        """Validate a detail level against :meth:`num_levels`."""
        level = int(level)
        if not 0 <= level < self.num_levels(index):
            raise IndexError(
                f"detail level {level} out of range for scene {index} "
                f"({self.num_levels(index)} levels)"
            )
        return level

    def num_levels(self, index: Union[int, str]) -> int:
        """Detail levels available for scene ``index``.

        A plain store holds only the full-detail representation, so this is
        always 1; :class:`~repro.compression.store.CompressedSceneStore`
        returns its LOD pyramid depth.
        """
        self.resolve_index(index)
        return 1

    def level_sizes(self, index: Union[int, str]) -> tuple:
        """Gaussian count of each detail level, finest first."""
        index = self.resolve_index(index)
        return (int(self._length[index]),)

    def scene_bounds(self, index: Union[int, str]):
        """Bounding sphere ``(center, radius)`` of a scene's Gaussian centres.

        Used by footprint-driven LOD policies; an empty scene reports a
        zero-radius sphere at the origin.
        """
        index = self.resolve_index(index)
        start = self._start[index]
        stop = start + self._length[index]
        return bounding_sphere(self._positions[start:stop])

    def get_cloud(self, index: Union[int, str], level: int = 0) -> GaussianCloud:
        """Cloud of scene ``index`` as read-only views into the flat arrays.

        O(1); see the class docstring for growth.  ``level``
        selects a detail level; a plain store only has level 0.
        """
        index = self.resolve_index(index)
        self._check_level(index, level)
        start = self._start[index]
        stop = start + self._length[index]
        k = self._sh_k[index]
        return GaussianCloud(
            positions=_read_only(self._positions[start:stop]),
            scales=_read_only(self._scales[start:stop]),
            rotations=_read_only(self._rotations[start:stop]),
            opacities=_read_only(self._opacities[start:stop]),
            sh_coeffs=_read_only(self._sh[start:stop, :k, :]),
        )

    def get_cameras(self, index: Union[int, str]) -> List[Camera]:
        """Cameras of scene ``index`` (poses are read-only store views)."""
        index = self.resolve_index(index)
        start = self._cam_start[index]
        cameras = []
        for row in range(start, start + self._cam_length[index]):
            width, height, fx, fy, cx, cy, znear, zfar = self._intrinsics[row]
            cameras.append(
                Camera(
                    width=int(width), height=int(height), fx=fx, fy=fy,
                    cx=cx, cy=cy, world_to_camera=_read_only(self._poses[row]),
                    znear=znear, zfar=zfar,
                )
            )
        return cameras

    def get_scene(self, index: Union[int, str], level: int = 0) -> GaussianScene:
        """Scene ``index`` (or name) as a zero-copy read-only view.

        ``level`` selects a detail level; a plain store only has level 0.
        """
        resolved = self.resolve_index(index)
        return GaussianScene(
            cloud=self.get_cloud(resolved, level=level),
            cameras=self.get_cameras(resolved),
            name=self._names[resolved],
            descriptor_name=self._descriptors[resolved],
        )

    def scene_nbytes(self, index: Union[int, str]) -> int:
        """Payload bytes of one stored scene."""
        index = self.resolve_index(index)
        n = int(self._length[index])
        c = int(self._cam_length[index])
        per_gaussian = (3 + 3 + 4 + 1 + 3 * int(self._sh_k[index])) * 8
        return n * per_gaussian + c * (16 + CAMERA_FIELDS) * 8

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the store to an ``.npz`` archive (format version 2)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        s, n, c = self._num_scenes, self._num_gaussians, self._num_cameras
        metadata = {
            "format_version": STORE_FORMAT_VERSION,
            "names": self._names[:s],
            "descriptor_names": self._descriptors[:s],
        }
        np.savez_compressed(
            path,
            metadata=json.dumps(metadata),
            positions=self._positions[:n],
            scales=self._scales[:n],
            rotations=self._rotations[:n],
            opacities=self._opacities[:n],
            sh_coeffs=self._sh[:n],
            scene_start=self._start[:s],
            scene_length=self._length[:s],
            scene_sh_k=self._sh_k[:s],
            camera_start=self._cam_start[:s],
            camera_length=self._cam_length[:s],
            camera_poses=self._poses[:c],
            camera_intrinsics=self._intrinsics[:c],
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SceneStore":
        """Load a store written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"scene store archive not found: {path}")
        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            return cls.from_archive(archive, metadata)

    @classmethod
    def from_archive(cls, archive, metadata: dict) -> "SceneStore":
        """Build a store from an already-open ``np.load`` archive.

        Lets callers that have to sniff the format version first (e.g.
        :func:`repro.gaussians.io.load_scene`) read the file once.
        """
        version = metadata.get("format_version")
        if version != STORE_FORMAT_VERSION:
            hint = ""
            if version == 3:
                hint = (
                    "; this is a compressed archive — use "
                    "repro.compression.CompressedSceneStore.load"
                )
            raise ValueError(
                f"unsupported scene store format version {version!r}{hint}"
            )
        store = cls.__new__(cls)
        store._positions = np.array(archive["positions"])
        store._scales = np.array(archive["scales"])
        store._rotations = np.array(archive["rotations"])
        store._opacities = np.array(archive["opacities"])
        store._sh = np.array(archive["sh_coeffs"])
        store._start = np.array(archive["scene_start"], dtype=np.int64)
        store._length = np.array(archive["scene_length"], dtype=np.int64)
        store._sh_k = np.array(archive["scene_sh_k"], dtype=np.int64)
        store._cam_start = np.array(archive["camera_start"], dtype=np.int64)
        store._cam_length = np.array(archive["camera_length"], dtype=np.int64)
        store._poses = np.array(archive["camera_poses"])
        store._intrinsics = np.array(archive["camera_intrinsics"])
        store._names = list(metadata["names"])
        store._descriptors = list(metadata["descriptor_names"])
        store._num_scenes = len(store._start)
        store._num_gaussians = len(store._positions)
        store._num_cameras = len(store._poses)
        store._sh_width = store._sh.shape[1] if store._sh.ndim == 3 else 1
        return store
