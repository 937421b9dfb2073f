"""Out-of-core SceneStore tier: chunked on-disk catalog, bounded resident set.

A :class:`PagedSceneStore` serves catalogs larger than RAM.  Scene payloads
live in mmap-able chunk files on disk (one file per scene *group*, byte
offsets kept in a small in-memory index); cameras, names and per-scene
metadata stay resident.  ``get_cloud`` loads a scene's payload lazily and
parks it in a byte-budgeted LRU (:class:`~repro.serving.cache.LRUByteCache`
accounting), so the resident set never exceeds ``memory_budget`` no matter
how many scenes the request stream touches.

This is **archive format version 4** — a directory, not an ``.npz``::

    catalog.pstore/
        manifest.json     # format version, per-scene field specs + offsets
        cameras.npz       # flat camera arrays (always resident)
        chunk-00000.bin   # aligned raw bytes of one scene group
        chunk-00001.bin
        ...

:func:`write_paged` builds one from any existing tier: a plain
:class:`~repro.serving.store.SceneStore` pages raw float64 fields, a
:class:`~repro.compression.store.CompressedSceneStore` pages its quantized
payloads **verbatim** (never decoded or re-encoded), so a paged compressed
catalog serves frames bit-identical to its in-memory source, level by
level.  Version 1–3 ``.npz`` archives import through
:func:`import_archive` (sniffed by the same ``load_store`` entry point
that dispatches the older formats).

The tier is read-only with respect to the archive: ``build_substore``
shares the same chunk files with its own (small) resident budget, and
pickling a sub-store ships field specs — never payload — so sharded workers
re-open the chunks lazily.

Usage::

    from repro.serving.storage import PagedSceneStore, write_paged

    write_paged(store, "catalog.pstore")
    paged = PagedSceneStore("catalog.pstore", memory_budget=64 << 20)
    paged.get_scene("garden")          # lazy load, then LRU-resident
    paged.resident_bytes               # always <= memory_budget
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.scene import GaussianScene
from repro.serving.cache import CacheStats, LRUByteCache
from repro.serving.store import CAMERA_FIELDS, SceneStore

#: Format identifier of paged (directory) archives.
PAGED_FORMAT_VERSION = 4

#: Default resident-set byte budget of an opened paged store.
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

#: Scenes per chunk file written by :func:`write_paged`.
DEFAULT_GROUP_SIZE = 64

#: Byte alignment of every array inside a chunk file.
CHUNK_ALIGNMENT = 64

#: Raw-tier field names, in chunk layout order.
_RAW_FIELDS = ("positions", "scales", "rotations", "opacities", "sh_coeffs")


def is_paged_archive(path: Union[str, Path]) -> bool:
    """Whether ``path`` is a version-4 paged store directory."""
    path = Path(path)
    return path.is_dir() and (path / "manifest.json").is_file()


def _empty_shell_cloud() -> GaussianCloud:
    """Zero-Gaussian placeholder cloud for the parent store's bookkeeping."""
    return GaussianCloud(
        positions=np.zeros((0, 3)),
        scales=np.zeros((0, 3)),
        rotations=np.zeros((0, 4)),
        opacities=np.zeros(0),
        sh_coeffs=np.zeros((0, 1, 3)),
    )


@dataclass
class _PagedRecord:
    """Resident index entry of one paged scene (metadata only, no payload)."""

    uid: int
    kind: str
    chunk_path: str
    fields: dict
    sh_k: int
    length: int
    level_sizes: tuple
    center: tuple
    radius: float
    payload_nbytes: int
    codec: Optional[str] = None
    cloud_fields: Optional[dict] = None


def _descriptor_of(store: SceneStore, index: int) -> Optional[str]:
    """Descriptor name of one scene without forcing a payload load."""
    descriptors = getattr(store, "_descriptors", None)
    if descriptors is not None:
        return descriptors[index]
    return store.get_scene(index).descriptor_name


def _spec_nbytes(spec: dict) -> int:
    """Stored bytes of one field per its manifest spec."""
    count = int(np.prod(tuple(spec["shape"]), dtype=np.int64))
    return count * np.dtype(spec["dtype"]).itemsize


def _append_chunk_array(handle, array: np.ndarray, offset: int):
    """Append one array to an open chunk file; return ``(spec, new offset)``.

    Payloads are padded to :data:`CHUNK_ALIGNMENT` so every stored array
    starts aligned, which keeps dtype views over the mmap valid.
    """
    data = np.ascontiguousarray(array)
    spec = {
        "dtype": data.dtype.str,
        "shape": [int(dim) for dim in data.shape],
        "offset": int(offset),
    }
    payload = data.tobytes()
    handle.write(payload)
    padded = -(-len(payload) // CHUNK_ALIGNMENT) * CHUNK_ALIGNMENT
    handle.write(b"\0" * (padded - len(payload)))
    return spec, offset + padded


def _scene_payload(store: SceneStore, index: int):
    """One scene's payload as ``(meta, [(field name, array), ...])``.

    Chooses the verbatim-preserving representation for the source tier:
    quantized records for a compressed store, stored bytes for a paged
    store, raw float64 fields otherwise.  This is the single place that
    decides what "paging a tier" means, so every writer path agrees.
    """
    if isinstance(store, PagedSceneStore):
        record = store._records[index]
        meta = {
            "kind": record.kind,
            "sh_k": record.sh_k,
            "length": record.length,
            "level_sizes": list(record.level_sizes),
            "center": list(record.center),
            "radius": record.radius,
            "codec": record.codec,
            "cloud_fields": record.cloud_fields,
        }
        arrays = [
            (name, store._read_array(record.chunk_path, spec))
            for name, spec in record.fields.items()
        ]
        return meta, arrays
    if hasattr(store, "scene_record"):
        record = store.scene_record(index)
        cloud = record.cloud
        arrays = []
        cloud_fields = {}
        for name in sorted(cloud.fields):
            encoded = cloud.fields[name]
            arrays.append((f"{name}_data", encoded.data))
            if encoded.offsets is not None:
                arrays.append((f"{name}_offsets", encoded.offsets))
                arrays.append((f"{name}_steps", encoded.steps))
            cloud_fields[name] = {
                "shape": [int(dim) for dim in encoded.shape],
                "error_bound": float(encoded.error_bound),
            }
        arrays.append(("order", record.pyramid.order))
        sh_k = 1
        if cloud.num_gaussians:
            sh_k = int(cloud.fields["sh_coeffs"].shape[1])
        meta = {
            "kind": "compressed",
            "sh_k": sh_k,
            "length": int(cloud.num_gaussians),
            "level_sizes": [int(size) for size in record.pyramid.level_sizes],
            "center": [float(value) for value in record.center],
            "radius": float(record.radius),
            "codec": cloud.codec,
            "cloud_fields": cloud_fields,
        }
        return meta, arrays
    cloud = store.get_cloud(index)
    center, radius = store.scene_bounds(index)
    arrays = [
        ("positions", cloud.positions),
        ("scales", cloud.scales),
        ("rotations", cloud.rotations),
        ("opacities", cloud.opacities),
        ("sh_coeffs", cloud.sh_coeffs),
    ]
    meta = {
        "kind": "raw",
        "sh_k": int(cloud.sh_coeffs.shape[1]) if len(cloud) else 1,
        "length": int(len(cloud)),
        "level_sizes": [int(len(cloud))],
        "center": [float(value) for value in center],
        "radius": float(radius),
        "codec": None,
        "cloud_fields": None,
    }
    return meta, arrays


def write_paged(
    store: SceneStore,
    path: Union[str, Path],
    group_size: int = DEFAULT_GROUP_SIZE,
) -> Path:
    """Write any store tier to a version-4 paged directory; return its path.

    Scenes are grouped ``group_size`` per chunk file.  Compressed tiers
    (and already-paged tiers) are persisted payload-verbatim, so a round
    trip through the paged format never moves a quantization grid.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    num_scenes = len(store)
    cam_start = np.zeros(num_scenes, dtype=np.int64)
    cam_length = np.zeros(num_scenes, dtype=np.int64)
    poses: List[np.ndarray] = []
    intrinsics: List[tuple] = []

    chunks: List[str] = []
    scenes_meta: List[dict] = []
    for group_start in range(0, max(num_scenes, 1), group_size):
        group = range(group_start, min(group_start + group_size, num_scenes))
        if len(group) == 0:
            break
        chunk_name = f"chunk-{len(chunks):05d}.bin"
        with open(path / chunk_name, "wb") as handle:
            offset = 0
            for index in group:
                meta, arrays = _scene_payload(store, index)
                specs = {}
                for field_name, array in arrays:
                    specs[field_name], offset = _append_chunk_array(
                        handle, array, offset
                    )
                meta["fields"] = specs
                meta["chunk"] = len(chunks)
                meta["name"] = store.names[index]
                meta["descriptor_name"] = _descriptor_of(store, index)
                scenes_meta.append(meta)
            if offset == 0:
                handle.write(b"\0" * CHUNK_ALIGNMENT)
        chunks.append(chunk_name)

    for index in range(num_scenes):
        cam_start[index] = len(poses)
        cameras = store.get_cameras(index)
        cam_length[index] = len(cameras)
        for camera in cameras:
            poses.append(np.asarray(camera.world_to_camera, dtype=np.float64))
            intrinsics.append(
                (camera.width, camera.height, camera.fx, camera.fy,
                 camera.cx, camera.cy, camera.znear, camera.zfar)
            )
    np.savez_compressed(
        path / "cameras.npz",
        camera_start=cam_start,
        camera_length=cam_length,
        camera_poses=(
            np.stack(poses) if poses else np.zeros((0, 4, 4))
        ),
        camera_intrinsics=(
            np.array(intrinsics, dtype=np.float64).reshape(-1, CAMERA_FIELDS)
        ),
    )
    manifest = {
        "format_version": PAGED_FORMAT_VERSION,
        "codec": getattr(store, "codec", None),
        "chunks": chunks,
        "scenes": scenes_meta,
    }
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def import_archive(
    source: Union[str, Path],
    path: Union[str, Path],
    group_size: int = DEFAULT_GROUP_SIZE,
) -> Path:
    """Convert a version 1–3 ``.npz`` archive into a paged directory.

    The source is opened with the tier its format dictates (v3 stays
    quantized, v1/v2 stay raw) and re-persisted chunked; see
    :func:`write_paged` for the verbatim guarantee.
    """
    # Imported lazily: the storage layer must not hard-depend on the
    # compression package (which itself builds on serving.store).
    from repro.compression.store import load_store

    return write_paged(load_store(source), path, group_size=group_size)


class PagedSceneStore(SceneStore):
    """A :class:`~repro.serving.store.SceneStore` that pages scenes from disk.

    Parameters
    ----------
    path:
        A directory written by :func:`write_paged`.
    memory_budget:
        Byte budget of the resident payload set (``None`` unbounded,
        ``0`` disables caching so every request re-reads its scene).  A
        single scene larger than the whole budget is still served — it is
        loaded transiently and never cached.

    Cameras, names and per-scene field specs stay resident (the parent
    store's flattened machinery); Gaussian payloads load lazily through an
    LRU bounded by ``memory_budget``.  ``get_cloud``/``get_scene`` on a
    ``"compressed"``-kind scene decode the stored quantized payload with
    the same code path as :class:`~repro.compression.store.CompressedSceneStore`,
    so frames are bit-identical to serving the in-memory tier.
    """

    def __init__(
        self,
        path: Union[str, Path],
        memory_budget: Optional[int] = DEFAULT_MEMORY_BUDGET,
    ):
        path = Path(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no paged store manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version != PAGED_FORMAT_VERSION:
            raise ValueError(
                f"unsupported paged store format version {version!r}"
            )

        self._path = path
        self._memory_budget = memory_budget
        self._resident = LRUByteCache(memory_budget)
        self._chunks: dict = {}
        self._records: List[_PagedRecord] = []
        super().__init__()

        with np.load(path / "cameras.npz", allow_pickle=False) as cameras:
            cam_start = np.array(cameras["camera_start"], dtype=np.int64)
            cam_length = np.array(cameras["camera_length"], dtype=np.int64)
            poses = np.array(cameras["camera_poses"])
            intrinsics = np.array(cameras["camera_intrinsics"])

        from repro.gaussians.camera import Camera

        for uid, meta in enumerate(manifest["scenes"]):
            row_range = range(
                int(cam_start[uid]), int(cam_start[uid] + cam_length[uid])
            )
            cameras_of_scene = []
            for row in row_range:
                width, height, fx, fy, cx, cy, znear, zfar = intrinsics[row]
                cameras_of_scene.append(
                    Camera(
                        width=int(width), height=int(height), fx=fx, fy=fy,
                        cx=cx, cy=cy, world_to_camera=poses[row],
                        znear=znear, zfar=zfar,
                    )
                )
            shell = GaussianScene(
                cloud=_empty_shell_cloud(),
                cameras=cameras_of_scene,
                name=meta["name"],
                descriptor_name=meta["descriptor_name"],
            )
            record = _PagedRecord(
                uid=uid,
                kind=meta["kind"],
                chunk_path=str(path / manifest["chunks"][meta["chunk"]]),
                fields=meta["fields"],
                sh_k=int(meta["sh_k"]),
                length=int(meta["length"]),
                level_sizes=tuple(int(s) for s in meta["level_sizes"]),
                center=tuple(float(v) for v in meta["center"]),
                radius=float(meta["radius"]),
                payload_nbytes=sum(
                    _spec_nbytes(spec) for spec in meta["fields"].values()
                ),
                codec=meta.get("codec"),
                cloud_fields=meta.get("cloud_fields"),
            )
            self._adopt_record(record, shell)

    # ------------------------------------------------------------------ #
    # Resident-set accounting
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Directory of the backing version-4 archive."""
        return self._path

    @property
    def memory_budget(self) -> Optional[int]:
        """Byte budget of the resident payload set."""
        return self._memory_budget

    @property
    def resident_bytes(self) -> int:
        """Payload bytes currently resident (always ``<= memory_budget``)."""
        return self._resident.current_bytes

    def resident_stats(self) -> CacheStats:
        """Activity counters of the resident set (hits/misses/evictions)."""
        return self._resident.stats()

    def drop_resident(self) -> None:
        """Evict every resident payload (counters reset with the cache)."""
        self._resident = LRUByteCache(self._memory_budget)

    # ------------------------------------------------------------------ #
    # Lazy payload loading
    # ------------------------------------------------------------------ #
    def _chunk(self, chunk_path: str) -> np.ndarray:
        """The mmap of one chunk file, opened lazily and kept per store."""
        chunk = self._chunks.get(chunk_path)
        if chunk is None:
            chunk = np.memmap(chunk_path, dtype=np.uint8, mode="r")
            self._chunks[chunk_path] = chunk
        return chunk

    def _read_array(self, chunk_path: str, spec: dict) -> np.ndarray:
        """One stored field as a private, read-only in-memory array.

        Copies off disk are deliberate: resident bytes must be *owned* bytes
        for the budget to actually bound the process footprint, and eviction
        must genuinely release them rather than leave file-backed pages
        around.  The copy is read-only because every reader of a resident
        scene shares it.
        """
        chunk = self._chunk(chunk_path)
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        start = int(spec["offset"])
        raw = np.array(chunk[start : start + nbytes])
        raw.flags.writeable = False
        return raw.view(dtype).reshape(shape)

    def _load_payload(self, record: _PagedRecord) -> dict:
        """Load one scene's payload from its chunk file."""
        arrays = {
            name: self._read_array(record.chunk_path, spec)
            for name, spec in record.fields.items()
        }
        if record.kind == "raw":
            payload = dict(arrays)
            payload["nbytes"] = sum(array.nbytes for array in arrays.values())
            return payload
        # Imported lazily: see import_archive.
        from repro.compression.codecs import CompressedCloud, EncodedField
        from repro.compression.lod import LodPyramid

        fields = {}
        for name, field_meta in record.cloud_fields.items():
            fields[name] = EncodedField(
                codec=record.codec,
                data=arrays[f"{name}_data"],
                shape=tuple(field_meta["shape"]),
                offsets=arrays.get(f"{name}_offsets"),
                steps=arrays.get(f"{name}_steps"),
                error_bound=float(field_meta["error_bound"]),
            )
        cloud = CompressedCloud(
            codec=record.codec, fields=fields, num_gaussians=record.length
        )
        pyramid = LodPyramid(
            order=np.asarray(arrays["order"], dtype=np.int64),
            level_sizes=tuple(record.level_sizes),
        )
        return {
            "cloud": cloud,
            "pyramid": pyramid,
            "nbytes": cloud.nbytes + pyramid.order.nbytes,
        }

    def _fetch(self, record: _PagedRecord) -> dict:
        """Resident payload of one scene, loading (and caching) on miss."""
        key = (record.uid,)
        payload = self._resident.get(key)
        if payload is None:
            payload = self._load_payload(record)
            self._resident.put(key, payload, payload["nbytes"])
        return payload

    # ------------------------------------------------------------------ #
    # Read API
    # ------------------------------------------------------------------ #
    def num_levels(self, index: Union[int, str]) -> int:
        """Detail levels of scene ``index`` (1 for raw-kind scenes)."""
        index = self.resolve_index(index)
        return len(self._records[index].level_sizes)

    def level_sizes(self, index: Union[int, str]) -> tuple:
        """Gaussian count of each detail level, finest first."""
        index = self.resolve_index(index)
        return tuple(self._records[index].level_sizes)

    def scene_bounds(self, index: Union[int, str]):
        """Bounding sphere recorded in the manifest (no payload load)."""
        index = self.resolve_index(index)
        record = self._records[index]
        return np.array(record.center, dtype=np.float64), record.radius

    def get_cloud(self, index: Union[int, str], level: int = 0) -> GaussianCloud:
        """Cloud of scene ``index``, loaded lazily from its chunk file.

        Raw-kind scenes return read-only views over the resident copy;
        compressed scenes decode with the exact
        :class:`~repro.compression.store.CompressedSceneStore` code path,
        so frames stay bit-identical per level across residency tiers.
        """
        index = self.resolve_index(index)
        level = self._check_level(index, level)
        record = self._records[index]
        payload = self._fetch(record)
        if record.kind == "raw":
            return GaussianCloud(
                positions=payload["positions"],
                scales=payload["scales"],
                rotations=payload["rotations"],
                opacities=payload["opacities"],
                sh_coeffs=payload["sh_coeffs"],
            )
        if level == 0:
            return payload["cloud"].decode()
        return payload["cloud"].decode(payload["pyramid"].level_indices(level))

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    @property
    def num_gaussians(self) -> int:
        """Total (full-detail) Gaussians across the catalog, on disk."""
        return sum(record.length for record in self._records)

    def scene_nbytes(self, index: Union[int, str]) -> int:
        """Stored payload bytes of one scene (from the index, no load)."""
        index = self.resolve_index(index)
        cameras = int(self._cam_length[index]) * (16 + CAMERA_FIELDS) * 8
        return self._records[index].payload_nbytes + cameras

    @property
    def nbytes(self) -> int:
        """Catalog payload bytes (stored payloads + cameras + index slots).

        This is the *on-disk* catalog size; the in-memory footprint is
        :attr:`capacity_bytes` (resident index) plus :attr:`resident_bytes`
        (paged-in payload, bounded by the budget).
        """
        cameras = self._num_cameras * (16 + CAMERA_FIELDS) * 8
        per_scene = 5 * 8 * self._num_scenes
        payload = sum(record.payload_nbytes for record in self._records)
        return payload + cameras + per_scene

    # ------------------------------------------------------------------ #
    # Membership (read-only tier: views narrow, the archive never changes)
    # ------------------------------------------------------------------ #
    def add_scene(self, scene: GaussianScene) -> int:
        """Unsupported: the paged tier is read-only over its archive."""
        raise RuntimeError(
            "PagedSceneStore is a read-only on-disk tier; rebuild the "
            "archive with write_paged(...) to change its contents"
        )

    def _adopt_record(self, record: _PagedRecord, shell: GaussianScene) -> int:
        """Register a record (cameras/names via the parent's shell scene)."""
        index = SceneStore.add_scene(self, shell)
        self._records.append(record)
        return index

    def _shell(self, index: int) -> GaussianScene:
        """Zero-payload shell of one scene (cameras + identity only)."""
        return GaussianScene(
            cloud=_empty_shell_cloud(),
            cameras=self.get_cameras(index),
            name=self._names[index],
            descriptor_name=self._descriptors[index],
        )

    def build_substore(self, indices: Iterable[Union[int, str]]) -> "PagedSceneStore":
        """A paged store over the same chunk files, narrowed to ``indices``.

        Each sub-store gets its *own* resident budget (equal to the
        parent's), so per-worker residency in a sharded fleet is bounded
        worker-by-worker; chunk files are shared through the filesystem.
        """
        substore = PagedSceneStore.__new__(PagedSceneStore)
        substore._path = self._path
        substore._memory_budget = self._memory_budget
        substore._resident = LRUByteCache(self._memory_budget)
        substore._chunks = {}
        substore._records = []
        SceneStore.__init__(substore)
        for index in indices:
            resolved = self.resolve_index(index)
            substore._adopt_record(self._records[resolved], self._shell(resolved))
        return substore

    # ------------------------------------------------------------------ #
    # Persistence and pickling
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Re-write the (possibly narrowed) view as a new paged directory."""
        return write_paged(self, path)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        memory_budget: Optional[int] = DEFAULT_MEMORY_BUDGET,
    ) -> "PagedSceneStore":
        """Open a paged directory (constructor alias, mirrors other tiers)."""
        return cls(path, memory_budget=memory_budget)

    def __getstate__(self) -> dict:
        """Pickle the resident index only — no mmaps, no paged-in payload."""
        state = self.__dict__.copy()
        state["_chunks"] = {}
        state["_resident"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore with a fresh (empty) resident set and lazy chunk mmaps."""
        self.__dict__.update(state)
        self._resident = LRUByteCache(self._memory_budget)
