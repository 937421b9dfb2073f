"""Shared-memory SceneStore tier: one hosted catalog, many zero-copy readers.

A :class:`SharedSceneStore` keeps the flattened Gaussian/pose arrays of a
:class:`~repro.serving.store.SceneStore` inside a single named
``multiprocessing.shared_memory`` segment instead of private process heap.
The dispatcher process *owns* the segment; every worker process attaches
read-only **by name** and maps the same physical pages, so an N-worker
fleet holds one copy of the catalog no matter how scenes are placed or
replicated — placement and replication control *routing and caches*, not
residency.  This is the DAQ-style buffer-pool shape: a fixed shared pool,
many reader processes, explicit ownership.

Three cooperating pieces:

* :class:`SharedSceneStore` — the catalog itself.  Owners construct it
  like a plain store; readers call :meth:`SharedSceneStore.attach` with a
  :class:`SharedStoreHandle` (or just unpickle the store, which reduces to
  an attach).
* :class:`SharedStoreHandle` — a tiny picklable pointer (segment name,
  counts, scene names) that crosses pipes instead of array payload.
* :class:`SharedStoreView` — what :meth:`SharedSceneStore.build_substore`
  returns: an ordered list of ``(catalog, global index)`` references
  implementing the ``SceneStore`` API.  Pickling a view ships handles and
  indices only; unpickling re-attaches.  A scene replicated onto several
  views is referenced by each, never copied.

**Write-once.**  The constructor sizes one segment exactly from the
scenes' row totals and SH width, fills it, and marks the arrays
read-only — on the owner as on every reader.  ``add_scene`` raises; a
changed catalog is a new ``SharedSceneStore``.  So a handle never goes
stale while its owner is open, and no reader can observe a write.  See the
"memory residency contract" in ``docs/ARCHITECTURE.md``.

**Lifecycle.**  ``close()`` (or the context manager, or garbage collection
via ``weakref.finalize``) detaches the mapping; the owner additionally
unlinks the segment.  Unlinking is guarded by the creating PID so a forked
child that inherited the owner object can never delete segments its parent
still serves.  Readers attach *untracked* — on Python < 3.13 the
``resource_tracker`` would otherwise unlink a live segment when any
attached process exits (CPython issue 82300, hit constantly under the
kill/respawn chaos of the sharded fleet).

Usage::

    from repro.serving.storage import SharedSceneStore

    with SharedSceneStore(scenes) as catalog:
        view = catalog.build_substore([0, 2])      # zero-copy routing view
        handle = catalog.handle()                  # picklable pointer
        reader = SharedSceneStore.attach(handle)   # other process: zero-copy
    # segment unlinked on exit; readers keep their mapping until they close
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.scene import GaussianScene
from repro.serving.store import CAMERA_FIELDS, SceneStore

#: Byte alignment of every flat array inside a segment (cache-line sized,
#: and a multiple of every element size used, so dtype views are valid).
SEGMENT_ALIGNMENT = 64

#: Flat arrays hosted in a segment, with the row axis each one is sized
#: along.  Order is the layout order inside the segment.
_FIELD_AXES = (
    ("_positions", "gaussians"),
    ("_scales", "gaussians"),
    ("_rotations", "gaussians"),
    ("_opacities", "gaussians"),
    ("_sh", "gaussians"),
    ("_start", "scenes"),
    ("_length", "scenes"),
    ("_sh_k", "scenes"),
    ("_cam_start", "scenes"),
    ("_cam_length", "scenes"),
    ("_poses", "cameras"),
    ("_intrinsics", "cameras"),
)

#: The int64 per-scene index arrays; everything else is float64.
_INT_FIELDS = frozenset({"_start", "_length", "_sh_k", "_cam_start", "_cam_length"})

#: Distinguishes segments of distinct stores created by one process.
_STORE_IDS = itertools.count()


def _segment_layout(num_gaussians: int, num_scenes: int, num_cameras: int,
                    sh_width: int) -> Tuple[list, int]:
    """Aligned ``(name, offset, shape, dtype)`` layout of one segment.

    Purely a function of the catalog's counts and SH width, so owner and
    readers derive identical views from the numbers carried by a
    :class:`SharedStoreHandle` — no layout table is stored in the segment.
    """
    trailing = {
        "_positions": (3,), "_scales": (3,), "_rotations": (4,),
        "_opacities": (), "_sh": (sh_width, 3),
        "_start": (), "_length": (), "_sh_k": (),
        "_cam_start": (), "_cam_length": (),
        "_poses": (4, 4), "_intrinsics": (CAMERA_FIELDS,),
    }
    rows = {
        "gaussians": num_gaussians, "scenes": num_scenes, "cameras": num_cameras,
    }
    layout = []
    offset = 0
    for name, axis in _FIELD_AXES:
        dtype = np.dtype(np.int64 if name in _INT_FIELDS else np.float64)
        shape = (rows[axis],) + trailing[name]
        layout.append((name, offset, shape, dtype))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        padded = -(-nbytes // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT
        offset += padded
    return layout, max(offset, SEGMENT_ALIGNMENT)


def _map_views(segment: SharedMemory, layout: list) -> dict:
    """Writeable NumPy views over one segment, per the layout."""
    views = {}
    for name, offset, shape, dtype in layout:
        count = int(np.prod(shape, dtype=np.int64))
        views[name] = np.frombuffer(
            segment.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return views


#: Serializes the registration-suppressing attach below (module-global so
#: every attacher in the process shares one critical section).
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> SharedMemory:
    """Attach an existing segment by name, without tracker registration.

    Attaching normally registers the segment with the per-process resource
    tracker, which unlinks "leaked" segments when its process exits —
    correct for owners, catastrophic for readers (a worker exiting, or
    being killed and respawned by the chaos schedules, would delete the
    live catalog under the whole fleet; CPython issue 82300).  Python 3.13
    grows ``track=False``; on the interpreters CI runs we suppress the
    ``register`` call during attach instead, which also keeps the owner's
    own registration balanced when owner and reader share a process.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            # Lifecycle owned by the caller, which registers a finalizer.
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _release_segment(segment: SharedMemory, unlink: bool,
                     owner_pid: Optional[int] = None) -> None:
    """Detach (and, for the owning process, delete) one segment.

    Tolerates live array exports — ``close()`` raising ``BufferError``
    while handed-out views are still alive just postpones the unmap to
    their garbage collection; the *unlink* (which is what keeps
    ``/dev/shm`` clean) succeeds regardless.  ``owner_pid`` guards unlink
    against forked children that inherited an owner object.
    """
    try:
        segment.close()
    except (BufferError, ValueError):
        # Live exports pin the mapping; hand it to them (it unmaps when
        # the last view dies) and disarm close() retries at GC time.
        segment._mmap = None
        descriptor = getattr(segment, "_fd", -1)
        if descriptor >= 0:
            try:
                os.close(descriptor)
            except OSError:  # pragma: no cover - already closed
                pass
            segment._fd = -1
    if unlink and (owner_pid is None or owner_pid == os.getpid()):
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _attach_store(handle: "SharedStoreHandle") -> "SharedSceneStore":
    """Module-level attach hook (pickle targets resolve by qualified name)."""
    return SharedSceneStore.attach(handle)


@dataclass(frozen=True)
class SharedStoreHandle:
    """Picklable pointer to a hosted shared catalog.

    Carries everything a reader needs to map the segment and interpret it
    (name, counts, SH width, scene names) and none of the payload.  The
    catalog never changes, so a handle stays valid for attaching until the
    owner closes it.
    """

    segment: str
    num_gaussians: int
    num_scenes: int
    num_cameras: int
    sh_width: int
    names: Tuple[str, ...]
    descriptors: Tuple[Optional[str], ...]


class SharedSceneStore(SceneStore):
    """A write-once :class:`~repro.serving.store.SceneStore` in shared memory.

    The constructor hosts ``scenes`` in one exactly-sized named segment;
    readers attach by name via :meth:`attach` — or simply by unpickling
    the store, which reduces to an attach — and see the identical arrays
    zero-copy.  Owner and reader arrays are both read-only, and
    ``add_scene`` raises on either.
    ``build_substore`` returns a :class:`SharedStoreView` (scene
    references, no payload) instead of a copying sub-store.
    """

    def __init__(self, scenes: Iterable[GaussianScene] = ()):
        scenes = list(scenes)
        self._num_scenes = 0
        self._num_gaussians = 0
        self._num_cameras = 0
        self._sh_width = max(
            (scene.cloud.sh_coeffs.shape[1] for scene in scenes), default=1
        )
        self._names: List[str] = []
        self._descriptors: List[Optional[str]] = []
        self._owner = True
        self._pid = os.getpid()

        layout, size = _segment_layout(
            sum(len(scene.cloud) for scene in scenes),
            len(scenes),
            sum(len(scene.cameras) for scene in scenes),
            self._sh_width,
        )
        segment = SharedMemory(
            name=f"repro-shm-{self._pid}-{next(_STORE_IDS)}",
            create=True, size=size,
        )
        try:
            for field_name, view in _map_views(segment, layout).items():
                setattr(self, field_name, view)
            # Exact capacity: the base growth hooks never reallocate.
            for scene in scenes:
                SceneStore.add_scene(self, scene)
        except BaseException:
            for field_name, _ in _FIELD_AXES:
                setattr(self, field_name, None)
            _release_segment(segment, unlink=True)
            raise
        for field_name, _ in _FIELD_AXES:
            getattr(self, field_name).flags.writeable = False
        self._segment = segment
        self._finalizer = weakref.finalize(
            self, _release_segment, segment, True, self._pid
        )

    # ------------------------------------------------------------------ #
    # Segment lifecycle
    # ------------------------------------------------------------------ #
    @property
    def segment_name(self) -> Optional[str]:
        """Name of the hosting segment (``None`` once closed)."""
        return self._segment.name if self._finalizer.alive else None

    @property
    def segment_bytes(self) -> int:
        """Allocated bytes of the segment (0 once closed)."""
        return self._segment.size if self._finalizer.alive else 0

    @property
    def is_owner(self) -> bool:
        """Whether this process created (and may unlink) the catalog."""
        return self._owner

    def handle(self) -> SharedStoreHandle:
        """Picklable pointer to the catalog (for readers to attach)."""
        if not self._finalizer.alive:
            raise RuntimeError("shared scene store is closed")
        return SharedStoreHandle(
            segment=self._segment.name,
            num_gaussians=self._num_gaussians,
            num_scenes=self._num_scenes,
            num_cameras=self._num_cameras,
            sh_width=self._sh_width,
            names=tuple(self._names),
            descriptors=tuple(self._descriptors),
        )

    @classmethod
    def attach(cls, handle: SharedStoreHandle) -> "SharedSceneStore":
        """Attach to a hosted catalog by name (zero-copy, read-only).

        The reader maps the same physical pages as the owner.  Close it
        (or let it be garbage collected) to drop the mapping; a reader
        never unlinks the segment.
        """
        segment = _attach_segment(handle.segment)
        try:
            layout, _ = _segment_layout(
                handle.num_gaussians, handle.num_scenes,
                handle.num_cameras, handle.sh_width,
            )
            views = _map_views(segment, layout)
        except BaseException:
            segment.close()
            raise
        store = cls.__new__(cls)
        store._owner = False
        store._pid = os.getpid()
        store._segment = segment
        store._num_scenes = handle.num_scenes
        store._num_gaussians = handle.num_gaussians
        store._num_cameras = handle.num_cameras
        store._sh_width = handle.sh_width
        store._names = list(handle.names)
        store._descriptors = list(handle.descriptors)
        for field_name, view in views.items():
            view.flags.writeable = False
            setattr(store, field_name, view)
        store._finalizer = weakref.finalize(
            store, _release_segment, segment, False
        )
        return store

    def close(self) -> None:
        """Detach the mapping; the owner also unlinks the segment.

        Idempotent: the release is the store's finalizer, which runs at
        most once.  Views already handed out keep the old pages alive
        until they are garbage collected, but the segment *name* is gone
        immediately (nothing is left under ``/dev/shm``), which is the
        cleanliness property the chaos tests assert.
        """
        for field_name, _ in _FIELD_AXES:
            setattr(self, field_name, None)
        self._finalizer()

    def __enter__(self) -> "SharedSceneStore":
        """Context-managed hosting: the segment is released on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Release the segment (owners unlink it) on scope exit."""
        self.close()

    def __reduce__(self):
        """Pickle as an attach-by-name (no payload)."""
        return (_attach_store, (self.handle(),))

    def add_scene(self, scene: GaussianScene) -> int:
        """Unsupported: the catalog is immutable after construction."""
        raise RuntimeError(
            "a SharedSceneStore is immutable after construction; host the "
            "changed scene list in a new SharedSceneStore"
        )

    # ------------------------------------------------------------------ #
    # Zero-copy routing views
    # ------------------------------------------------------------------ #
    def build_substore(self, indices: Iterable[Union[int, str]]) -> "SharedStoreView":
        """A zero-copy :class:`SharedStoreView` over the given scenes.

        Unlike the copying base implementation, no payload moves: the view
        routes reads into this catalog, and pickling it ships a handle
        plus indices so worker processes re-attach instead of re-copying.
        """
        return SharedStoreView(
            (self, self.resolve_index(index)) for index in indices
        )


class SharedStoreView(SceneStore):
    """Scene-membership view over shared catalogs: routing without residency.

    What the sharded dispatcher hands each worker instead of a private
    sub-store copy: an ordered list of ``(catalog, global index)``
    references.  The view implements the read side of the ``SceneStore``
    API by delegation and pickles as segment handles plus indices, so
    crossing a pipe costs O(metadata).  Its scene list is fixed when it is
    built.
    """

    def __init__(self, entries: Iterable[tuple]):
        self._entries: List[tuple] = list(entries)

    # -- identity (drives the inherited resolve_index/__len__/__iter__) -- #
    @property
    def _num_scenes(self) -> int:
        """Scene count, derived from the entry list."""
        return len(self._entries)

    @property
    def _names(self) -> List[str]:
        """Scene names, read through to the referenced catalogs."""
        return [catalog._names[index] for catalog, index in self._entries]

    def _entry(self, index: Union[int, str]) -> tuple:
        """The ``(catalog, global index)`` entry behind a local index."""
        return self._entries[self.resolve_index(index)]

    # ------------------------------------------------------------------ #
    # Read API (delegated, zero-copy)
    # ------------------------------------------------------------------ #
    def get_cloud(self, index: Union[int, str], level: int = 0) -> GaussianCloud:
        """Cloud of a referenced scene — views into the shared segment."""
        resolved = self.resolve_index(index)
        self._check_level(resolved, level)
        catalog, gindex = self._entries[resolved]
        return catalog.get_cloud(gindex)

    def get_cameras(self, index: Union[int, str]) -> List[Camera]:
        """Cameras of a referenced scene (poses view the shared segment)."""
        catalog, gindex = self._entry(index)
        return catalog.get_cameras(gindex)

    def get_scene(self, index: Union[int, str], level: int = 0) -> GaussianScene:
        """Referenced scene as a zero-copy view."""
        resolved = self.resolve_index(index)
        self._check_level(resolved, level)
        catalog, gindex = self._entries[resolved]
        return catalog.get_scene(gindex)

    def level_sizes(self, index: Union[int, str]) -> tuple:
        """Gaussian count per detail level of the referenced scene."""
        catalog, gindex = self._entry(index)
        return catalog.level_sizes(gindex)

    def scene_bounds(self, index: Union[int, str]):
        """Bounding sphere of the referenced scene."""
        catalog, gindex = self._entry(index)
        return catalog.scene_bounds(gindex)

    def scene_nbytes(self, index: Union[int, str]) -> int:
        """Payload bytes of the referenced scene (resident in the catalog)."""
        catalog, gindex = self._entry(index)
        return catalog.scene_nbytes(gindex)

    @property
    def num_gaussians(self) -> int:
        """Total Gaussians across the referenced scenes."""
        return sum(
            catalog.level_sizes(index)[0] for catalog, index in self._entries
        )

    @property
    def num_cameras(self) -> int:
        """Total cameras across the referenced scenes."""
        return sum(
            int(catalog._cam_length[index]) for catalog, index in self._entries
        )

    @property
    def nbytes(self) -> int:
        """Payload bytes the view *references* (resident in the catalogs)."""
        return sum(
            catalog.scene_nbytes(index) for catalog, index in self._entries
        )

    @property
    def capacity_bytes(self) -> int:
        """Bytes the view itself allocates for payload — always 0."""
        return 0

    @property
    def owned_bytes(self) -> int:
        """Private payload bytes of this view — always 0.

        The per-worker residency metric of the storage benchmark: a plain
        copying sub-store owns ``nbytes`` of private payload per worker,
        a shared view owns none (residency stays with the catalog
        segments, mapped once per machine).
        """
        return 0

    # ------------------------------------------------------------------ #
    # Membership (fixed when the view is built)
    # ------------------------------------------------------------------ #
    def add_scene(self, scene: GaussianScene) -> int:
        """Unsupported: a view routes to shared catalogs, it owns no arrays."""
        raise RuntimeError(
            "SharedStoreView cannot host new payload; host the changed "
            "scene list in a new SharedSceneStore and take views of it "
            "with build_substore"
        )

    def build_substore(self, indices: Iterable[Union[int, str]]) -> "SharedStoreView":
        """A narrower view over the same catalogs (still zero-copy)."""
        return SharedStoreView(
            self._entries[self.resolve_index(index)] for index in indices
        )

    def save(self, path):
        """Unsupported on a view; save the owning catalog instead."""
        raise RuntimeError(
            "SharedStoreView does not own payload to save; call save() on "
            "the owning SharedSceneStore"
        )

    # ------------------------------------------------------------------ #
    # Pickling (attach-on-unpickle)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Serialize as segment handles plus indices — no payload."""
        handles = {}
        entries = []
        for catalog, index in self._entries:
            handle = catalog.handle()
            handles[handle.segment] = handle
            entries.append((handle.segment, index))
        return {"handles": handles, "entries": entries}

    def __setstate__(self, state: dict) -> None:
        """Re-attach each referenced catalog by name (zero-copy)."""
        catalogs = {
            segment: SharedSceneStore.attach(handle)
            for segment, handle in state["handles"].items()
        }
        self._entries = [
            (catalogs[segment], index) for segment, index in state["entries"]
        ]
