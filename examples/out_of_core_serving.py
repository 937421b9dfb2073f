#!/usr/bin/env python
"""Serving a large catalog from shared-memory and out-of-core tiers.

The scenario: the catalog has outgrown "one private copy per worker".  A
four-worker fleet over N scenes used to hold the payload four times (plus
replication copies); on the path to million-scene serving the whole
catalog stops fitting in RAM at all.  The storage tiers fix both ends:

1. build a catalog and re-host it in **shared memory**
   (:class:`SharedSceneStore`): one named segment, every worker process
   attaches zero-copy, so per-worker owned payload drops to zero;
2. page the catalog to a chunked on-disk archive
   (:class:`PagedSceneStore`, format v4) and serve it under a **byte
   budget**: scenes load lazily and a byte-accounted LRU keeps the
   resident set bounded;
3. serve the same trace through both tiers and the plain in-memory store
   and check every frame is **bit-identical** — residency never changes a
   pixel;
4. release everything and verify ``/dev/shm`` is clean.

Run with::

    python examples/out_of_core_serving.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.gaussians.scene import GaussianScene
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import (
    PagedSceneStore,
    RenderService,
    SceneStore,
    ShardedRenderService,
    SharedSceneStore,
    generate_requests,
    write_paged,
)

NUM_SCENES = 96
NUM_WORKERS = 4


def build_catalog() -> SceneStore:
    """A catalog tiling a few base payloads across many scene entries."""
    base = [
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=60, width=48, height=36, seed=seed),
            name=f"base-{seed}", num_cameras=3,
        )
        for seed in range(6)
    ]
    store = SceneStore()
    for index in range(NUM_SCENES):
        source = base[index % len(base)]
        store.add_scene(GaussianScene(
            cloud=source.cloud, cameras=source.cameras,
            name=f"scene-{index:03d}",
        ))
    return store


def main() -> None:
    store = build_catalog()
    trace = generate_requests(store, 48, pattern="zipf", seed=11)
    print(f"catalog: {len(store)} scenes, "
          f"{store.nbytes / 1024:.0f} KiB payload, "
          f"{store.capacity_bytes / 1024:.0f} KiB allocated")

    # Reference frames from the plain in-memory single-worker serve.
    single = RenderService(store, frame_cache_bytes=0).serve(trace)

    # ------------------------------------------------------------------ #
    # 1. Shared tier: one segment, zero-copy workers.
    # ------------------------------------------------------------------ #
    with SharedSceneStore(
        store.get_scene(index) for index in range(len(store))
    ) as catalog:
        print(f"\nshared tier: segment {catalog.segment_name} "
              f"({catalog.segment_bytes / 1024:.0f} KiB)")
        with ShardedRenderService(
            catalog, num_workers=NUM_WORKERS, use_processes=True,
            frame_cache_bytes=0,
        ) as fleet:
            report = fleet.serve(trace)
        identical = all(
            np.array_equal(mine.image, ref.image)
            for mine, ref in zip(report.responses, single.responses)
        )
        print(f"  {NUM_WORKERS}-process fleet served "
              f"{report.num_requests} requests at "
              f"{report.requests_per_second:.0f} req/s, "
              f"bit-identical frames: {identical}")

        # In-process views show the zero-copy bookkeeping directly.
        view = catalog.build_substore(range(0, len(catalog), 2))
        print(f"  worker view: {len(view)} scenes referenced, "
              f"{view.owned_bytes} bytes privately owned (zero-copy)")

    # ------------------------------------------------------------------ #
    # 2. Paged tier: bounded resident set from an on-disk archive.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory(prefix="repro-example-") as tmp:
        archive = write_paged(store, Path(tmp) / "catalog")
        budget = 8 * store.scene_nbytes(0)
        paged = PagedSceneStore(archive, memory_budget=budget)
        print(f"\npaged tier: archive {archive.name}/ "
              f"(v4, {len(paged)} scenes), "
              f"budget {budget / 1024:.0f} KiB")
        report = RenderService(paged, frame_cache_bytes=0).serve(trace)
        stats = paged.resident_stats()
        identical = all(
            np.array_equal(mine.image, ref.image)
            for mine, ref in zip(report.responses, single.responses)
        )
        print(f"  served {report.num_requests} requests with "
              f"{paged.resident_bytes / 1024:.0f} KiB resident "
              f"(<= budget: {paged.resident_bytes <= budget}), "
              f"{stats.evictions} evictions")
        print(f"  bit-identical frames from disk: {identical}")

    # ------------------------------------------------------------------ #
    # 3. Lifecycle: nothing left behind.
    # ------------------------------------------------------------------ #
    leaked = [
        name for name in os.listdir("/dev/shm")
        if name.startswith(f"repro-shm-{os.getpid()}-")
    ]
    print(f"\nlifecycle: leaked shared-memory segments: {leaked or 'none'}")


if __name__ == "__main__":
    main()
