"""Storage tiers for scene catalogs: shared-memory residency and paging.

The serving stack reads scenes through the
:class:`~repro.serving.store.SceneStore` API; this package supplies two
composable *residency* tiers behind that same API, so services, sharded
fleets and the CLI do not care where catalog bytes physically live:

* :mod:`repro.serving.storage.shared` —
  :class:`~repro.serving.storage.shared.SharedSceneStore` hosts the
  flattened arrays in named POSIX shared memory.  One owner, N zero-copy
  reader processes, explicit segment lifecycle, immutable after
  construction.
* :mod:`repro.serving.storage.paged` —
  :class:`~repro.serving.storage.paged.PagedSceneStore` pages scenes
  lazily from chunked on-disk files (archive format v4) under a
  byte-budgeted LRU, bounding the resident set for catalogs larger than
  RAM.

:func:`host_store` is the one-call entry point used by
``GauRastSystem.evaluate_trace(storage=...)`` and the CLI ``--storage``
flag: it re-hosts an in-memory store on the requested tier and returns a
:class:`StorageLease` that owns the tier's lifetime.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Callable, Optional, Union

from repro.serving.store import SceneStore
from repro.serving.storage.paged import (
    DEFAULT_GROUP_SIZE,
    DEFAULT_MEMORY_BUDGET,
    PAGED_FORMAT_VERSION,
    PagedSceneStore,
    import_archive,
    is_paged_archive,
    write_paged,
)
from repro.serving.storage.shared import (
    SEGMENT_ALIGNMENT,
    SharedSceneStore,
    SharedStoreHandle,
    SharedStoreView,
)

#: Storage tiers accepted by :func:`host_store` (and the CLI ``--storage``).
STORAGE_TIERS = ("memory", "shared", "paged")


def _is_quantized(store: SceneStore) -> bool:
    """Whether ``store`` holds quantized payloads (in memory or paged)."""
    if isinstance(store, PagedSceneStore):
        return any(record.kind != "raw" for record in store._records)
    return hasattr(store, "scene_record")


class StorageLease:
    """An opened storage tier plus ownership of its lifetime.

    ``store`` is ready to serve from; :meth:`close` releases whatever the
    lease created (a shared segment, a temporary paged directory) and is
    idempotent.  A lease over a store that was already on the requested
    tier owns nothing and its ``close`` is a no-op — the caller keeps
    responsibility for stores it built itself.
    """

    def __init__(self, store: SceneStore, cleanup: Optional[Callable] = None):
        self.store = store
        self._cleanup = cleanup

    def close(self) -> None:
        """Release everything this lease created (idempotent)."""
        cleanup, self._cleanup = self._cleanup, None
        if cleanup is not None:
            cleanup()

    def __enter__(self) -> "StorageLease":
        """Context-managed tier lifetime."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Release the tier on scope exit."""
        self.close()


def host_store(
    store: SceneStore,
    storage: Optional[str] = None,
    memory_budget: Optional[int] = None,
    workdir: Optional[str] = None,
) -> StorageLease:
    """Re-host a catalog on a storage tier; returns a :class:`StorageLease`.

    Parameters
    ----------
    store:
        The catalog to host.
    storage:
        ``None``/``"memory"`` leaves the store untouched; ``"shared"``
        hosts the flattened arrays in a shared-memory segment (the lease
        owns — and on close unlinks — the segment); ``"paged"`` writes the
        catalog to a temporary version-4 paged directory (or under
        ``workdir``) and opens it with ``memory_budget``.
    memory_budget:
        Resident-set byte budget of the paged tier (``None`` keeps the
        tier default).  Ignored by the other tiers.
    workdir:
        Directory to hold the paged archive.  When given, the archive is
        left in place on close; a lease over a temporary directory removes
        it.

    A store already on the requested tier passes through unchanged (no-op
    lease).  The shared tier hosts flat full-detail catalogs only:
    re-hosting a quantized (LOD) tier raw — in memory or paged — would
    silently decode it, so that combination is rejected — page it instead,
    which preserves the quantized payload verbatim.
    """
    if storage in (None, "memory"):
        return StorageLease(store)
    if storage == "shared":
        if isinstance(store, SharedSceneStore):
            return StorageLease(store)
        if _is_quantized(store):
            raise ValueError(
                "the shared tier hosts flat full-detail catalogs; page a "
                "compressed store instead (storage='paged') to keep its "
                "quantized payload verbatim"
            )
        shared = SharedSceneStore(store.get_scene(i) for i in range(len(store)))
        return StorageLease(shared, cleanup=shared.close)
    if storage == "paged":
        if isinstance(store, PagedSceneStore):
            if memory_budget is None or memory_budget == store.memory_budget:
                return StorageLease(store)
            # Same archive, re-opened under the requested budget.
            return StorageLease(
                PagedSceneStore(store.path, memory_budget=memory_budget)
            )
        budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        if workdir is not None:
            path = write_paged(store, workdir)
            return StorageLease(PagedSceneStore(path, memory_budget=budget))
        tempdir = tempfile.mkdtemp(prefix="repro-paged-")
        path = write_paged(store, tempdir)
        paged = PagedSceneStore(path, memory_budget=budget)

        def _cleanup() -> None:
            """Drop the temporary archive (open mmaps stay valid on POSIX)."""
            shutil.rmtree(tempdir, ignore_errors=True)

        return StorageLease(paged, cleanup=_cleanup)
    raise ValueError(
        f"unknown storage tier {storage!r}; choose from {STORAGE_TIERS}"
    )


__all__ = [
    "DEFAULT_GROUP_SIZE",
    "DEFAULT_MEMORY_BUDGET",
    "PAGED_FORMAT_VERSION",
    "PagedSceneStore",
    "SEGMENT_ALIGNMENT",
    "STORAGE_TIERS",
    "SharedSceneStore",
    "SharedStoreHandle",
    "SharedStoreView",
    "StorageLease",
    "host_store",
    "import_archive",
    "is_paged_archive",
    "write_paged",
]
