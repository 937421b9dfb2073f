"""Render-request serving layer over a :class:`~repro.serving.store.SceneStore`.

A :class:`RenderService` accepts a stream of ``(scene_id, camera, level)``
requests against the scenes of a store and serves them faster than a naive
per-request :func:`repro.gaussians.pipeline.render` loop by exploiting the
structure of real traffic:

* **Same-scene batching** — requests for one scene are grouped into a single
  :func:`~repro.gaussians.pipeline.render_batch` call, so the scene-level
  (camera-independent) half of preprocessing is paid once per group.
* **Covariance memoization** — the world-space covariances of each scene are
  kept in a byte-budgeted LRU cache across calls, so even a lone request for
  a recently served scene skips the quaternion/covariance arithmetic.
* **Frame memoization** — heavy multi-user traffic concentrates on popular
  viewpoints; fully rendered frames are kept in a second byte-budgeted LRU
  cache keyed by (scene, level, camera, render settings) and repeated
  requests are answered without touching the pipeline at all.  Rendering
  is deterministic in FP64, so a cached frame is *exactly* the image a
  fresh render would produce.

* **Budget-aware LOD** — served over a
  :class:`~repro.compression.store.CompressedSceneStore`, a ``lod_policy``
  picks a detail level per request (from the camera's screen-space scene
  footprint or an explicit Gaussian budget); cache keys carry the level,
  so levels never cross-contaminate and the lossless tier stays
  bit-identical to an uncompressed serve.

Every response records its latency (time from ``serve()`` accepting the
stream to the request's completion), and the report aggregates throughput
and cache statistics.

Usage::

    from repro.serving import RenderService, SceneStore, generate_requests

    store = SceneStore([scene_a, scene_b, scene_c])
    service = RenderService(store)
    report = service.serve(generate_requests(store, 60, pattern="zipf"))
    report.requests_per_second      # throughput of the whole stream
    report.latency_percentile(95)   # tail latency
    report.frame_cache.hit_rate     # memoization effectiveness

To scale beyond one process, :class:`~repro.serving.sharded.ShardedRenderService`
runs one ``RenderService`` per worker, sharded by scene.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.pipeline import RenderResult, render_batch
from repro.serving.cache import CacheStats, LRUByteCache
from repro.serving.store import SceneStore

#: Default byte budget of the per-scene covariance cache (a 100k-Gaussian
#: scene's (N, 3, 3) float64 covariances are ~7 MiB).
DEFAULT_COVARIANCE_CACHE_BYTES = 64 * 1024 * 1024

#: Default byte budget of the rendered-frame cache.
DEFAULT_FRAME_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class RenderRequest:
    """One render request of the stream.

    Attributes
    ----------
    scene_id:
        Index (or name) of the scene in the service's store.
    camera:
        Viewpoint to render.
    level:
        Optional explicit detail level (an explicit quality budget).  When
        ``None`` the service's LOD policy decides (full detail if there is
        no policy); an out-of-range explicit level is an error.
    """

    scene_id: object
    camera: Camera
    level: Optional[int] = None

    def key(self, scene_index: int, level: Optional[int]) -> tuple:
        """Hashable identity of the request, built from every dataclass field.

        ``scene_id`` and ``level`` enter as the caller's resolved values
        (``scene_index`` always at position 0); every other field enters
        as its ``key()`` when it has one (the camera) and as itself
        otherwise.  A field added to the class, or to a subclass, lands in
        every key built from this method with no further edit.
        """
        return (scene_index, level, *[
            value.key() if hasattr(value, "key") else value
            for value in map(self.__getattribute__, _keyed_fields(type(self)))
        ])


@cache
def _keyed_fields(cls: type) -> Tuple[str, ...]:
    """Fields of a request class that :meth:`RenderRequest.key` reads as-is."""
    return tuple(
        f.name for f in fields(cls) if f.name not in ("scene_id", "level")
    )


@dataclass
class RenderResponse:
    """Completed request: the frame plus serving metadata."""

    request: RenderRequest
    scene_index: int
    result: RenderResult
    from_cache: bool
    latency_s: float = 0.0
    frame_key: tuple = field(default=(), repr=False)
    level: int = 0

    @property
    def image(self) -> np.ndarray:
        """The rendered ``(H, W, 3)`` frame."""
        return self.result.image


class ResponseStreamStats:
    """Shared accounting over a served response stream.

    Mixed into :class:`ServiceReport` and the fleet-level
    :class:`~repro.serving.sharded.FleetReport`, both of which carry
    ``responses`` (in request order) and ``wall_seconds``, so the two
    reports can never diverge on what throughput or a percentile means.
    """

    responses: List[RenderResponse]
    wall_seconds: float

    @property
    def num_requests(self) -> int:
        """Requests served (responses are in request order)."""
        return len(self.responses)

    @property
    def num_cache_hits(self) -> int:
        """Requests answered from a frame cache."""
        return sum(1 for r in self.responses if r.from_cache)

    @property
    def num_rendered(self) -> int:
        """Requests that required a fresh render."""
        return self.num_requests - self.num_cache_hits

    @property
    def requests_by_level(self) -> dict:
        """Requests served per detail level (``{level: count}``).

        ``{0: num_requests}`` for a serve without LOD; multiple keys when a
        LOD policy (or explicit request levels) split the stream.
        """
        counts: dict = {}
        for response in self.responses:
            counts[response.level] = counts.get(response.level, 0) + 1
        return counts

    @property
    def requests_per_second(self) -> float:
        """Throughput over the whole serve call."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.num_requests / self.wall_seconds

    @property
    def mean_latency_s(self) -> float:
        """Mean request latency (queueing plus service time)."""
        if not self.responses:
            return 0.0
        return sum(r.latency_s for r in self.responses) / len(self.responses)

    @property
    def max_latency_s(self) -> float:
        """Worst request latency of the stream."""
        if not self.responses:
            return 0.0
        return max(r.latency_s for r in self.responses)

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (e.g. ``95``) over all requests."""
        if not self.responses:
            return 0.0
        return float(
            np.percentile([r.latency_s for r in self.responses], percentile)
        )


@dataclass
class ServiceReport(ResponseStreamStats):
    """Aggregate outcome of serving one request stream."""

    responses: List[RenderResponse]
    wall_seconds: float
    num_batches: int
    covariance_cache: CacheStats
    frame_cache: CacheStats


def _result_nbytes(result: RenderResult) -> int:
    """Approximate retained bytes of a cached render result."""
    projected = result.projected
    arrays = (
        result.image, projected.means, projected.cov_inverses,
        projected.depths, projected.colors, projected.opacities,
        projected.radii,
    )
    total = sum(a.nbytes for a in arrays)
    # Tile lists hold int64 indices, one per sort key.
    total += 8 * result.binning.num_keys
    return total


class RenderService:
    """Serves render-request streams against a :class:`SceneStore`.

    Parameters
    ----------
    store:
        The scene store to serve from.
    background, sh_degree, collect_stats:
        Render settings applied to every request (uniform settings are what
        make same-scene batching and frame memoization sound).
    covariance_cache_bytes:
        Byte budget of the per-scene covariance LRU cache, keyed by
        ``(scene, level)`` (``0`` disables it, ``None`` unbounded).
    frame_cache_bytes:
        Byte budget of the rendered-frame LRU cache (``0`` disables frame
        memoization, ``None`` unbounded).
    lod_policy:
        Optional budget-aware detail-level selection for requests that do
        not pin a level themselves: ``None``/``"full"`` always serves full
        detail, ``"footprint"`` picks the finest level justified by the
        camera's screen-space scene footprint, or pass any object with a
        ``select_level(store, scene_index, camera)`` method (see
        :mod:`repro.compression.lod`).  Levels beyond 0 require a store
        with LOD tiers (:class:`~repro.compression.store.CompressedSceneStore`).
    """

    def __init__(
        self,
        store: SceneStore,
        background=(0.0, 0.0, 0.0),
        sh_degree: Optional[int] = None,
        collect_stats: bool = True,
        covariance_cache_bytes: Optional[int] = DEFAULT_COVARIANCE_CACHE_BYTES,
        frame_cache_bytes: Optional[int] = DEFAULT_FRAME_CACHE_BYTES,
        lod_policy=None,
    ):
        self.store = store
        self.background = tuple(float(v) for v in background)
        self.sh_degree = sh_degree
        self.collect_stats = collect_stats
        self.covariance_cache = LRUByteCache(covariance_cache_bytes)
        self.frame_cache = LRUByteCache(frame_cache_bytes)
        # Imported lazily so the serving layer has no hard dependency on
        # the compression package (which itself builds on serving.store).
        from repro.compression.lod import resolve_lod_policy

        self.lod_policy = resolve_lod_policy(lod_policy)

    # ------------------------------------------------------------------ #
    # Caching helpers
    # ------------------------------------------------------------------ #
    def scene_covariances(
        self, scene_index: int, level: int = 0, cloud=None
    ) -> Optional[np.ndarray]:
        """Covariances of one scene's detail level, memoized across calls.

        ``cloud`` lets a caller that already holds the decoded level (e.g.
        :meth:`serve`) avoid a second fetch: against a compressed store
        ``get_cloud`` is a full O(N) decode, not a zero-copy view, and on a
        cache hit no cloud is needed at all.
        """
        if self.store.level_sizes(scene_index)[level] == 0:
            return None
        covariances = self.covariance_cache.get((scene_index, level))
        if covariances is None:
            if cloud is None:
                cloud = self.store.get_cloud(scene_index, level)
            covariances = cloud.covariances()
            self.covariance_cache.put(
                (scene_index, level), covariances, covariances.nbytes
            )
        return covariances

    def _request_level(self, request: RenderRequest, scene_index: int) -> int:
        """Detail level a request is served at (explicit, policy, or 0)."""
        if request.level is not None:
            level = int(request.level)
            if not 0 <= level < self.store.num_levels(scene_index):
                raise ValueError(
                    f"request pins level {level} but scene {scene_index} "
                    f"has {self.store.num_levels(scene_index)} levels"
                )
            return level
        if self.lod_policy is None:
            return 0
        level = int(
            self.lod_policy.select_level(self.store, scene_index, request.camera)
        )
        return min(max(level, 0), self.store.num_levels(scene_index) - 1)

    def _frame_key(
        self, request: RenderRequest, scene_index: int, level: int
    ) -> tuple:
        """Cache key identifying a rendered frame.

        The request's own key at its resolved level (frames of different
        levels are different images) plus the service's render settings.
        """
        return request.key(scene_index, level) + (self.sh_degree, self.background)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, requests: Iterable[RenderRequest]) -> ServiceReport:
        """Serve a request stream and return the aggregate report.

        Requests are grouped by (scene, detail level) so each
        group pays the scene-level preprocessing once; responses come back
        in request order, each bit-identical to a standalone
        :func:`repro.gaussians.pipeline.render` of its request at its level.
        """
        start = time.perf_counter()
        requests = list(requests)
        responses: List[Optional[RenderResponse]] = [None] * len(requests)

        # Group request indices by (scene, level), preserving first-seen
        # group order so the stream is served roughly FIFO.
        groups: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
        for position, request in enumerate(requests):
            # A camera-less request would otherwise render the scene's
            # default view under a key that names no view.
            if not isinstance(request.camera, Camera):
                raise TypeError(
                    f"request camera must be a Camera, not "
                    f"{type(request.camera).__name__}"
                )
            scene_index = self.store.resolve_index(request.scene_id)
            level = self._request_level(request, scene_index)
            groups.setdefault((scene_index, level), []).append(position)

        num_batches = 0
        for (scene_index, level), members in groups.items():
            # Answer repeated viewpoints from the frame cache; collect the
            # distinct frames that actually need rendering.  Duplicates of a
            # frame already pending in this call are deduplicated without
            # consulting the LRU, so its hit/miss counters track only
            # cross-call reuse.
            pending: "OrderedDict[tuple, List[int]]" = OrderedDict()
            for position in members:
                request = requests[position]
                key = self._frame_key(request, scene_index, level)
                if key in pending:
                    pending[key].append(position)
                    continue
                cached = self.frame_cache.get(key)
                if cached is not None:
                    responses[position] = RenderResponse(
                        request=request, scene_index=scene_index,
                        result=cached, from_cache=True, frame_key=key,
                        level=level,
                    )
                else:
                    pending[key] = [position]

            if pending:
                scene = self.store.get_scene(scene_index, level)
                cameras = [
                    requests[positions[0]].camera
                    for positions in pending.values()
                ]
                batch = render_batch(
                    scene,
                    cameras=cameras,
                    background=self.background,
                    sh_degree=self.sh_degree,
                    collect_stats=self.collect_stats,
                    covariances=self.scene_covariances(
                        scene_index, level, cloud=scene.cloud
                    ),
                )
                num_batches += 1
                for (key, positions), result in zip(
                    pending.items(), batch.results
                ):
                    self.frame_cache.put(key, result, _result_nbytes(result))
                    for rank, position in enumerate(positions):
                        responses[position] = RenderResponse(
                            request=requests[position],
                            scene_index=scene_index,
                            result=result,
                            # The first request of a viewpoint triggered the
                            # render; later duplicates in the same group were
                            # answered by memoization.
                            from_cache=rank > 0,
                            frame_key=key,
                            level=level,
                        )

            group_done = time.perf_counter() - start
            for position in members:
                responses[position].latency_s = group_done

        wall_seconds = time.perf_counter() - start
        return ServiceReport(
            responses=[r for r in responses if r is not None],
            wall_seconds=wall_seconds,
            num_batches=num_batches,
            covariance_cache=self.covariance_cache.stats(),
            frame_cache=self.frame_cache.stats(),
        )

    def submit(self, request: RenderRequest) -> RenderResponse:
        """Serve a single request (sharing the service's caches)."""
        return self.serve([request]).responses[0]

    def cache_stats(self) -> Tuple[CacheStats, CacheStats]:
        """Current ``(covariance, frame)`` cache counters.

        The shared cache-introspection surface of the serving layer:
        :class:`~repro.serving.sharded.ShardedRenderService` exposes the
        same method with fleet-merged counters, so callers (e.g. the async
        gateway) need not care which tier they front.
        """
        return self.covariance_cache.stats(), self.frame_cache.stats()

    def reset_caches(self) -> None:
        """Drop both caches (fresh budgets, zeroed counters).

        Lets benchmarks measure cold-trace behaviour from a warm service,
        and gives deployments a knob to release memory between tenants.
        """
        self.covariance_cache = LRUByteCache(self.covariance_cache.max_bytes)
        self.frame_cache = LRUByteCache(self.frame_cache.max_bytes)
