"""Multi-scene hosting and render-request serving.

This package is the production-serving layer of the reproduction, built in
three tiers:

* :class:`~repro.serving.store.SceneStore` packs many Gaussian scenes into
  flattened arrays (O(1) zero-copy scene views, amortized growth, one
  ``.npz`` archive for the whole fleet of scenes);
* :class:`~repro.serving.service.RenderService` serves a stream of
  ``(scene_id, camera, level)`` render requests against the store with
  same-scene batching and byte-budgeted LRU memoization of per-scene
  covariances and rendered frames;
* :class:`~repro.serving.sharded.ShardedRenderService` partitions the
  stream across N worker processes with scene affinity, merging per-shard
  results into a fleet-level report — frames stay bit-identical to the
  single-worker service.  A :class:`~repro.serving.placement.PlacementMap`
  replicates hot scenes across shards with load-aware routing (each
  shard's scene set is fixed when it is spawned), and a
  :class:`~repro.serving.traffic.FailurePlan` (or ``fleet.kill_worker``)
  injects worker deaths whose in-flight requests are requeued to
  surviving replicas without losing a response;
* :class:`~repro.serving.gateway.RenderGateway` is the asyncio front end
  over either service: in-flight request coalescing, bounded admission
  queues with configurable overload policies (block / shed-oldest /
  reject), and priority lanes with deadline-aware dropping.

:mod:`repro.serving.traffic` generates the seeded request streams (uniform
/ zipf / hot-spot scene popularity) that drive benchmarks and the CLI, and
derives gateway lane assignments from the same popularity model
(:func:`~repro.serving.traffic.popularity_priority`).

:mod:`repro.serving.storage` supplies the *residency* tiers underneath the
store API: :class:`~repro.serving.storage.shared.SharedSceneStore` hosts
one catalog in named shared memory that every worker process maps
zero-copy, and :class:`~repro.serving.storage.paged.PagedSceneStore` pages
scenes lazily from chunked on-disk files under a byte-budgeted LRU.
:func:`~repro.serving.storage.host_store` re-hosts any store on a tier by
name (``"memory"`` / ``"shared"`` / ``"paged"``).

Typical usage::

    from repro.serving import (
        RenderService, SceneStore, ShardedRenderService, generate_requests,
    )

    store = SceneStore([scene_a, scene_b, scene_c])
    trace = generate_requests(store, 200, pattern="zipf", seed=7)

    report = RenderService(store).serve(trace)          # one worker
    with ShardedRenderService(store, num_workers=4) as fleet:
        fleet_report = fleet.serve(trace)               # four workers
"""

from repro.serving.cache import CacheStats, LRUByteCache
from repro.serving.gateway import (
    OVERLOAD_POLICIES,
    GatewayReport,
    GatewayResponse,
    RenderGateway,
)
from repro.serving.placement import (
    NoLiveOwnerError,
    PlacementEvent,
    PlacementMap,
)
from repro.serving.service import (
    RenderRequest,
    RenderResponse,
    RenderService,
    ServiceReport,
)
from repro.serving.sharded import (
    FleetReport,
    ShardReport,
    ShardedRenderService,
    merge_cache_stats,
)
from repro.serving.storage import (
    STORAGE_TIERS,
    PagedSceneStore,
    SharedSceneStore,
    StorageLease,
    host_store,
    write_paged,
)
from repro.serving.store import SceneStore
from repro.serving.traffic import (
    TRAFFIC_PATTERNS,
    FailurePlan,
    generate_requests,
    popularity_priority,
    scene_popularity,
    synthetic_request_trace,
)

__all__ = [
    "CacheStats",
    "FailurePlan",
    "FleetReport",
    "GatewayReport",
    "GatewayResponse",
    "LRUByteCache",
    "NoLiveOwnerError",
    "OVERLOAD_POLICIES",
    "PagedSceneStore",
    "PlacementEvent",
    "PlacementMap",
    "RenderGateway",
    "RenderRequest",
    "RenderResponse",
    "RenderService",
    "STORAGE_TIERS",
    "SceneStore",
    "ServiceReport",
    "ShardReport",
    "ShardedRenderService",
    "SharedSceneStore",
    "StorageLease",
    "TRAFFIC_PATTERNS",
    "generate_requests",
    "host_store",
    "merge_cache_stats",
    "popularity_priority",
    "scene_popularity",
    "synthetic_request_trace",
    "write_paged",
]
