"""Sharded multi-worker render serving: N processes behind one dispatcher.

A :class:`ShardedRenderService` scales the single-process
:class:`~repro.serving.service.RenderService` across worker processes the
way the DarkSide-20k DAQ scales event building across time-slice processors:
a central dispatcher partitions the request stream, independent workers each
own a slice of the data, and a merge step reassembles an in-order result
stream.

Placement starts from **scene affinity**: scene ``i`` of the store is
primarily owned by shard ``i % num_workers``, so each worker's covariance
and frame caches stay hot for the scenes it serves.  On top of that a
:class:`~repro.serving.placement.PlacementMap` adds

* **replication** — scenes flagged *hot* (``hot_scenes``/``replication``)
  become resident on several shards, and the dispatcher routes each request
  to the least-loaded live owner, so one viral scene no longer saturates a
  single worker.  A shard's scene set is fixed when it is spawned;
* **failure handling** — :meth:`ShardedRenderService.kill_worker` (or a
  seeded :class:`~repro.serving.traffic.FailurePlan`) terminates a worker
  mid-stream; the dispatcher requeues its in-flight requests to surviving
  replicas, or respawns the shard when a scene would otherwise lose its
  last owner.  No response is ever lost or duplicated, and the
  :class:`FleetReport` counters reconcile by construction
  (``dispatched == num_requests + requeued``).

Because any replica renders deterministically from a verbatim copy of the
scene payload, fleet frames are **bit-identical** to a single-worker serve
of the same stream regardless of placement, replication or kill schedule.

Workers are long-lived ``multiprocessing`` processes, each holding its own
sub-:class:`~repro.serving.store.SceneStore` and ``RenderService``; the
dispatcher talks to them over pipes with typed messages (:class:`Serve`,
:class:`ResetCaches`, :class:`Stats`, :class:`Close`), each answered by one
handler.
``use_processes=False`` (or ``num_workers=1``) swaps the pipe for an
in-process loopback endpoint that runs the same handler, so both modes
share one RPC path; it is also how per-shard *busy time* is measured
cleanly on machines with few cores (see
:attr:`FleetReport.critical_path_seconds`).

Usage::

    from repro.serving import FailurePlan, ShardedRenderService, generate_requests

    trace = generate_requests(store, 200, pattern="hotspot")
    with ShardedRenderService(store, num_workers=4, replication=2,
                              hot_scenes=[2]) as fleet:
        report = fleet.serve(trace, failure_plan=FailurePlan.at((50, 1)))
    report.requeued                   # in-flight requests re-routed
    report.placement                  # kill/respawn timeline
    report.latency_percentile(95)     # tail latency across all shards
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.serving.cache import CacheStats
from repro.serving.placement import PlacementEvent, PlacementMap
from repro.serving.service import (
    DEFAULT_COVARIANCE_CACHE_BYTES,
    DEFAULT_FRAME_CACHE_BYTES,
    RenderRequest,
    RenderResponse,
    RenderService,
    ResponseStreamStats,
    ServiceReport,
)
from repro.serving.store import SceneStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.serving.traffic import FailurePlan

#: Requests dispatched per round when a failure plan is active (smaller
#: rounds bound the in-flight loss per kill); plain serves use one
#: whole-stream round.
DEFAULT_DISPATCH_WINDOW = 8

#: Cache counters reported for a dead shard (its real counters died with it).
_DEAD_CACHE_STATS = CacheStats(
    hits=0, misses=0, evictions=0, entries=0, current_bytes=0, max_bytes=0
)


class _WorkerDied(RuntimeError):
    """A worker's pipe broke mid-conversation (crash or kill)."""


def merge_cache_stats(stats: Sequence[CacheStats]) -> CacheStats:
    """Aggregate per-shard cache counters into one fleet-level snapshot.

    Counters add; the byte budget adds too (each shard owns a full budget),
    unless any shard is unbounded, in which case the fleet is unbounded.
    """
    max_bytes: Optional[int] = 0
    for entry in stats:
        if entry.max_bytes is None:
            max_bytes = None
            break
        max_bytes += entry.max_bytes
    return CacheStats(
        hits=sum(s.hits for s in stats),
        misses=sum(s.misses for s in stats),
        evictions=sum(s.evictions for s in stats),
        entries=sum(s.entries for s in stats),
        current_bytes=sum(s.current_bytes for s in stats),
        max_bytes=max_bytes if stats else None,
        rejections=sum(s.rejections for s in stats),
    )


@dataclass(frozen=True)
class ShardReport:
    """One shard's contribution to a served stream.

    Attributes
    ----------
    shard_id:
        Position of the shard in the fleet.
    scene_indices:
        Global store indices of the scenes this shard owns (replicated
        scenes appear on every owner).
    num_requests, num_cache_hits, num_batches:
        Request accounting of this shard for the served stream.
    busy_seconds:
        Wall time the shard's own ``RenderService.serve`` took across all
        dispatch rounds (0 for a shard that received no requests).
    covariance_cache, frame_cache:
        The shard's cache counters after the serve (zeros for a shard that
        died — its counters died with it).
    alive:
        Whether the shard's worker was still live when the serve finished.
    """

    shard_id: int
    scene_indices: Tuple[int, ...]
    num_requests: int
    num_cache_hits: int
    num_batches: int
    busy_seconds: float
    covariance_cache: CacheStats
    frame_cache: CacheStats
    alive: bool = True

    @property
    def requests_per_second(self) -> float:
        """Throughput of this shard alone over the served stream."""
        if self.busy_seconds <= 0:
            return float("inf") if self.num_requests else 0.0
        return self.num_requests / self.busy_seconds


@dataclass
class FleetReport(ResponseStreamStats):
    """Aggregate outcome of serving one request stream across all shards.

    Mirrors :class:`~repro.serving.service.ServiceReport` (``responses`` are
    in request order with *global* scene indices and the same frame keys a
    single-worker serve would produce; the stream accounting — throughput,
    latency percentiles, cache-hit counts — comes from the shared
    :class:`~repro.serving.service.ResponseStreamStats`, with latencies
    measured within each owning shard's serve) and adds fleet-level views:
    per-shard utilization, the critical path, merged cache statistics, and
    the fault/placement accounting of the serve.

    The failure counters reconcile by construction::

        report.dispatched == report.num_requests + report.requeued

    every dispatched request was either collected (exactly one response)
    or requeued after its worker died, never both and never neither.
    """

    responses: List[RenderResponse]
    wall_seconds: float
    num_workers: int
    shards: List[ShardReport]
    #: Dispatches performed, counting each requeued request again.
    dispatched: int = 0
    #: In-flight requests re-routed after their worker died.
    requeued: int = 0
    #: Workers respawned to restore scene coverage during the serve.
    respawned: int = 0
    #: Shards that died during the serve (plan kills and detected crashes).
    killed: Tuple[int, ...] = ()
    #: Shards dead when the serve finished (dead and not respawned).
    dead_shards: Tuple[int, ...] = ()
    #: Placement/liveness events recorded during the serve, in order.
    placement: Tuple[PlacementEvent, ...] = ()
    #: ``{scene: owners}`` snapshot after the serve.
    placement_map: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_batches(self) -> int:
        """Render batches issued across all shards."""
        return sum(s.num_batches for s in self.shards)

    @property
    def critical_path_seconds(self) -> float:
        """Busy time of the slowest shard.

        With one core per worker this is the fleet's ideal wall time: shards
        share no state, so a deployment is as slow as its busiest shard.
        Comparing it against a single worker's wall time gives the sharding
        speedup *independent of how many cores the measuring host has*.
        """
        if not self.shards:
            return 0.0
        return max(s.busy_seconds for s in self.shards)

    @property
    def modeled_requests_per_second(self) -> float:
        """Fleet throughput with one core per worker (critical-path bound)."""
        critical = self.critical_path_seconds
        if critical <= 0:
            return float("inf")
        return self.num_requests / critical

    @property
    def utilization(self) -> List[float]:
        """Per-shard busy fraction of the critical path (1.0 = bottleneck)."""
        critical = self.critical_path_seconds
        if critical <= 0:
            return [0.0 for _ in self.shards]
        return [s.busy_seconds / critical for s in self.shards]

    @property
    def covariance_cache(self) -> CacheStats:
        """Fleet-wide covariance cache counters."""
        return merge_cache_stats([s.covariance_cache for s in self.shards])

    @property
    def frame_cache(self) -> CacheStats:
        """Fleet-wide frame cache counters."""
        return merge_cache_stats([s.frame_cache for s in self.shards])


# ---------------------------------------------------------------------- #
# Worker messages: what the dispatcher can ask a shard, one class each
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Serve:
    """Render shard-local requests; replies with the shard's ServiceReport."""

    #: Requests whose ``scene_id`` is the index in the worker's sub-store.
    requests: Tuple[RenderRequest, ...]

    def run(self, service: RenderService) -> ServiceReport:
        """Serve the requests through the shard's service."""
        return service.serve(list(self.requests))


@dataclass(frozen=True)
class ResetCaches:
    """Drop both of the shard's caches."""

    def run(self, service: RenderService) -> None:
        """Empty the covariance and frame caches."""
        service.reset_caches()


@dataclass(frozen=True)
class Stats:
    """Read the shard's ``(covariance, frame)`` cache counters."""

    def run(self, service: RenderService) -> Tuple[CacheStats, CacheStats]:
        """The current counters of both caches."""
        return service.covariance_cache.stats(), service.frame_cache.stats()


@dataclass(frozen=True)
class Close:
    """End the worker loop; never answered."""

    def run(self, service: RenderService) -> None:
        """Nothing to do: the worker loop exits before handling it."""


def _handle(service: RenderService, message) -> Tuple[str, object]:
    """Run one message against a shard's service and build the reply.

    Returns ``("ok", result)``, or ``("error", traceback_text)`` for any
    exception — including an object that is not a message — so a bad
    request cannot wedge the fleet.
    """
    try:
        return "ok", message.run(service)
    except Exception:
        return "error", traceback.format_exc()


def _shard_worker_main(connection, store: SceneStore, service_kwargs: dict) -> None:
    """Worker-process loop: own one shard's scenes, answer messages.

    Receives one message at a time, exits on :class:`Close` (or a closed
    pipe), and sends back the :func:`_handle` reply for anything else.
    """
    service = RenderService(store, **service_kwargs)
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        if isinstance(message, Close):
            break
        connection.send(_handle(service, message))
    connection.close()


class _Loopback:
    """In-process shard endpoint with the pipe-end subset the fleet uses.

    ``send`` only queues; ``recv`` runs the oldest queued message through
    :func:`_handle`, so an in-process shard renders at collect time and a
    kill between dispatch and collect drops the same in-flight work as a
    killed process.
    """

    def __init__(self, service: RenderService):
        self.service = service
        self._queue: deque = deque()

    def send(self, message) -> None:
        """Queue a message for the next :meth:`recv`."""
        self._queue.append(message)

    def recv(self) -> Tuple[str, object]:
        """Handle the oldest queued message and return its reply."""
        return _handle(self.service, self._queue.popleft())

    def poll(self, timeout: float = 0.0) -> bool:
        """Always ``False``: replies are computed by :meth:`recv`, never buffered."""
        return False

    def close(self) -> None:
        """Discard any unhandled messages."""
        self._queue.clear()


class ShardedRenderService:
    """Partition render traffic across N scene-affine workers.

    Parameters
    ----------
    store:
        The scene store to serve.  The fleet snapshots the store's scenes at
        construction; scenes added afterwards are not visible to workers.
    num_workers:
        Number of shards.  Scene ``i``'s *primary* owner is shard
        ``i % num_workers``; workers beyond the scene count simply idle.
    replication:
        Owners per hot scene (clamped to ``num_workers``).  ``1`` (default)
        is plain scene affinity; higher values make every scene in
        ``hot_scenes`` resident on ``replication`` shards, with requests
        routed to the least-loaded live owner.
    hot_scenes:
        Scenes to replicate: an iterable of scene ids/names, or a priority
        callable from :func:`~repro.serving.traffic.popularity_priority`
        (its ``hot_scenes`` attribute is used).  Ignored when
        ``replication`` is 1.
    dispatch_window:
        Requests dispatched per round.  ``None`` (default) serves plain
        streams in one whole-stream round (the fastest path) and switches
        to :data:`DEFAULT_DISPATCH_WINDOW` when a failure plan is active.
    background, sh_degree, collect_stats:
        Per-shard :class:`~repro.serving.service.RenderService` settings.
    covariance_cache_bytes, frame_cache_bytes:
        Per-shard cache budgets (each worker owns a full budget).
    lod_policy:
        Per-shard detail-level policy (see
        :class:`~repro.serving.service.RenderService`); levels beyond 0
        need a store with LOD tiers, whose sub-stores carry the quantized
        payloads verbatim (``SceneStore.build_substore``), so fleet frames
        stay bit-identical to a single-worker serve.
    use_processes:
        ``True`` (default) runs each shard in its own ``multiprocessing``
        process; ``False`` keeps the shard services in-process behind a
        loopback endpoint, which shares the exact message, routing, merge
        and failure code path while serving shards sequentially (useful for
        tests, single-core hosts and clean busy-time measurement).
        ``num_workers=1`` always stays in-process.

    The service is a context manager; :meth:`close` shuts the workers down.
    ``serve`` is not reentrant — one stream at a time per fleet.
    """

    def __init__(
        self,
        store: SceneStore,
        num_workers: int = 2,
        replication: int = 1,
        hot_scenes=None,
        dispatch_window: Optional[int] = None,
        background=(0.0, 0.0, 0.0),
        sh_degree: Optional[int] = None,
        collect_stats: bool = True,
        covariance_cache_bytes: Optional[int] = DEFAULT_COVARIANCE_CACHE_BYTES,
        frame_cache_bytes: Optional[int] = DEFAULT_FRAME_CACHE_BYTES,
        lod_policy=None,
        use_processes: bool = True,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        if dispatch_window is not None and dispatch_window < 1:
            raise ValueError("dispatch_window must be at least 1 (or None)")
        self.store = store
        self.num_workers = int(num_workers)
        self.background = tuple(float(v) for v in background)
        self.replication = min(int(replication), self.num_workers)
        self.dispatch_window = (
            int(dispatch_window) if dispatch_window is not None else None
        )
        self._service_kwargs = dict(
            background=self.background,
            sh_degree=sh_degree,
            collect_stats=collect_stats,
            covariance_cache_bytes=covariance_cache_bytes,
            frame_cache_bytes=frame_cache_bytes,
            lod_policy=lod_policy,
        )

        # hot_scenes accepts scene ids/names or a popularity_priority
        # callable (which carries the chosen set as an attribute).
        if hot_scenes is None:
            hot: Tuple[int, ...] = ()
        else:
            chosen = getattr(hot_scenes, "hot_scenes", hot_scenes)
            hot = tuple(sorted(store.resolve_index(s) for s in chosen))
        self.placement = PlacementMap(
            len(store),
            self.num_workers,
            replication=self.replication,
            hot_scenes=hot,
        )

        self._closed = False
        # The transport: worker processes over pipes, or None for loopback.
        self._context = (
            multiprocessing.get_context()
            if use_processes and self.num_workers > 1
            else None
        )
        self._connections: List[Optional[object]] = [None] * self.num_workers
        self._processes: List[Optional[object]] = [None] * self.num_workers
        # Per shard: global scene index -> index in the worker's sub-store.
        self._local_index: List[Dict[int, int]] = [
            {} for _ in range(self.num_workers)
        ]
        self._alive: List[bool] = [True] * self.num_workers
        # Lifetime dispatch counter; stamps placement events so histories
        # read as a timeline of the request stream.
        self._dispatched_total = 0
        for shard in range(self.num_workers):
            self._spawn_shard(shard)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_shard(self, shard: int) -> None:
        """(Re)create one shard's worker with its current placement scenes.

        ``build_substore`` preserves the store's tier, so a compressed
        store's shards carry the quantized payloads and LOD pyramids
        verbatim — the root of the fleet's bit-identity guarantee.
        """
        indices = list(self.placement.scenes_of(shard))
        sub_store = self.store.build_substore(indices)
        self._local_index[shard] = {
            scene: local for local, scene in enumerate(indices)
        }
        if self._context is None:
            self._connections[shard] = _Loopback(
                RenderService(sub_store, **self._service_kwargs)
            )
        else:
            parent_end, child_end = self._context.Pipe()
            process = self._context.Process(
                target=_shard_worker_main,
                args=(child_end, sub_store, self._service_kwargs),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._connections[shard] = parent_end
            self._processes[shard] = process
        self._alive[shard] = True

    def kill_worker(self, shard: int) -> None:
        """Terminate one worker, as a fault injection.

        The shard's process is killed immediately (its in-flight work and
        cache contents are lost); the placement map is *not* changed —
        death is a liveness filter, so a later respawn resumes exactly the
        scene set the shard owned.  The next :meth:`serve` round requeues
        any of its in-flight requests to surviving replicas and respawns
        the shard if a scene would otherwise have no live owner.
        """
        self._check_open()
        shard = int(shard)
        if not 0 <= shard < self.num_workers:
            raise IndexError(
                f"shard {shard} out of range for {self.num_workers} workers"
            )
        if not self._alive[shard]:
            raise ValueError(f"worker {shard} is already dead")
        process = self._processes[shard]
        if process is not None and process.is_alive():
            process.terminate()
        self._mark_dead(shard)

    def _mark_dead(self, shard: int) -> None:
        """Record a worker's death and drop its endpoints (idempotent).

        Closing the endpoint discards any completed-but-uncollected reply
        (in-process: the unhandled message), so the in-flight requests of
        a killed shard are *always* requeued — which is what makes the
        ``requeued`` counter a deterministic function of the stream and the
        kill schedule.
        """
        if not self._alive[shard]:
            return
        self._alive[shard] = False
        self.placement.record(
            "kill", position=self._dispatched_total, scene=None, shard=shard
        )
        connection = self._connections[shard]
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
        self._connections[shard] = None
        process = self._processes[shard]
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes[shard] = None

    def _respawn(self, shard: int) -> None:
        """Bring a dead shard back with its placement scene set (cold caches)."""
        self._spawn_shard(shard)
        self.placement.record(
            "respawn", position=self._dispatched_total, scene=None, shard=shard
        )

    def _ensure_coverage(self) -> None:
        """Respawn primaries until every scene has a live owner again."""
        dead = self._dead_set()
        for scene in range(self.placement.num_scenes):
            if not self.placement.live_owners(scene, dead):
                self._respawn(self.placement.primary(scene))
                dead = self._dead_set()

    def _dead_set(self) -> FrozenSet[int]:
        """Shards currently dead (the placement map's liveness filter)."""
        return frozenset(
            shard for shard, alive in enumerate(self._alive) if not alive
        )

    @property
    def alive_workers(self) -> Tuple[int, ...]:
        """Ids of the workers currently live."""
        return tuple(
            shard for shard, alive in enumerate(self._alive) if alive
        )

    # ------------------------------------------------------------------ #
    # Worker RPC
    # ------------------------------------------------------------------ #
    def _call(self, shard: int, message):
        """Send one message to a shard worker and return its reply payload."""
        try:
            self._connections[shard].send(message)
        except (BrokenPipeError, OSError):
            raise _WorkerDied(f"shard {shard} worker exited unexpectedly")
        return self._receive(shard)

    def _receive(self, shard: int):
        """Receive one reply from a shard worker, raising on failure."""
        try:
            status, payload = self._connections[shard].recv()
        except (EOFError, OSError):
            raise _WorkerDied(f"shard {shard} worker exited unexpectedly")
        if status != "ok":
            raise RuntimeError(f"shard {shard} worker failed:\n{payload}")
        return payload

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the sharded service has been closed")

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        requests: Iterable[RenderRequest],
        failure_plan: Optional["FailurePlan"] = None,
        dispatch_window: Optional[int] = None,
    ) -> FleetReport:
        """Serve a request stream across the fleet.

        The stream is dispatched in rounds: each round routes a window of
        requests to the least-loaded live owner of each scene (dispatcher-
        side assigned-request counts — a deterministic function of the
        stream, so replays route identically), the owning shards serve
        concurrently (in process mode), and the responses are merged back
        into request-id order.  Each response is bit-identical to what a
        single-worker :class:`~repro.serving.service.RenderService` — or a
        standalone :func:`repro.gaussians.pipeline.render` — would produce
        for that request, whatever the placement or kill schedule.

        ``failure_plan`` injects worker deaths mid-stream: each plan entry
        fires once its dispatch position is reached, the killed shard's
        in-flight requests are requeued to surviving replicas, and a shard
        whose death leaves any scene with no live owner is respawned (cold
        caches, same scene set).  ``dispatch_window`` overrides the
        fleet's round size for this serve.
        """
        self._check_open()
        start = time.perf_counter()
        requests = list(requests)
        history_start = len(self.placement.history)

        # Resolve up front so a bad request raises before any dispatch,
        # leaving no pipe desynced.
        resolved = [self.store.resolve_index(r.scene_id) for r in requests]
        if failure_plan is not None:
            for _, worker in failure_plan.kills:
                if worker >= self.num_workers:
                    raise ValueError(
                        f"failure plan kills worker {worker}, but the fleet "
                        f"has only {self.num_workers} workers"
                    )

        window = (
            dispatch_window if dispatch_window is not None
            else self.dispatch_window
        )
        chaos = bool(failure_plan and len(failure_plan))
        if window is None:
            window = DEFAULT_DISPATCH_WINDOW if chaos else max(len(requests), 1)
        window = max(int(window), 1)

        responses: List[Optional[RenderResponse]] = [None] * len(requests)
        completed = [0] * self.num_workers
        cache_hits = [0] * self.num_workers
        batch_counts = [0] * self.num_workers
        busy = [0.0] * self.num_workers
        last_stats: List[Optional[Tuple[CacheStats, CacheStats]]] = (
            [None] * self.num_workers
        )
        # Deterministic load signal: requests assigned per shard this serve.
        assigned_load: Dict[int, int] = {
            shard: 0 for shard in range(self.num_workers)
        }
        dispatched = 0
        requeued = 0
        fired = 0
        # A request is requeued at most once per kill, and each worker dies
        # at most once per plan — anything past this bound is a cycle.
        requeue_guard = 3 * max(len(requests), 1) + 2 * self.num_workers

        pending = deque(range(len(requests)))
        self._ensure_coverage()  # kills may have landed between serves

        while pending:
            round_positions = [
                pending.popleft() for _ in range(min(window, len(pending)))
            ]
            dead = self._dead_set()
            assignment: Dict[int, List[int]] = {}
            for position in round_positions:
                scene = resolved[position]
                shard = self.placement.route(
                    scene, load=assigned_load, dead=dead
                )
                assignment.setdefault(shard, []).append(position)
                assigned_load[shard] += 1

            # Dispatch to every assigned shard first, then collect in the
            # same order; in-process shards render at collect time, so a
            # kill landing between dispatch and collect loses the same
            # in-flight work in both modes.
            for shard in sorted(assignment):
                message = Serve(tuple(
                    replace(
                        requests[position],
                        scene_id=self._local_index[shard][resolved[position]],
                    )
                    for position in assignment[shard]
                ))
                try:
                    self._connections[shard].send(message)
                except (BrokenPipeError, OSError):
                    self._mark_dead(shard)  # crash detected at dispatch
            dispatched += len(round_positions)
            self._dispatched_total += len(round_positions)

            # Fire the kills the plan schedules at this point in the stream.
            if failure_plan is not None:
                for _, worker in failure_plan.due(dispatched, fired):
                    fired += 1
                    if self._alive[worker]:
                        self.kill_worker(worker)

            # Collect every dispatched shard even if one fails: leaving a
            # reply unread would desync that pipe.  In-flight work of any
            # shard that died this round is requeued.
            first_error: Optional[RuntimeError] = None
            requeue_positions: List[int] = []
            for shard in sorted(assignment):
                positions = assignment[shard]
                if not self._alive[shard]:
                    requeue_positions.extend(positions)
                    continue
                try:
                    report: ServiceReport = self._receive(shard)
                except _WorkerDied:
                    self._mark_dead(shard)
                    requeue_positions.extend(positions)
                    continue
                except RuntimeError as error:
                    if first_error is None:
                        first_error = error
                    continue
                # Merge, restoring global identities so the fleet report
                # reads exactly like a single-worker one.
                for position, response in zip(positions, report.responses):
                    scene_index = resolved[position]
                    response.request = requests[position]
                    response.scene_index = scene_index
                    response.frame_key = (
                        (scene_index,) + tuple(response.frame_key[1:])
                    )
                    responses[position] = response
                completed[shard] += report.num_requests
                cache_hits[shard] += report.num_cache_hits
                batch_counts[shard] += report.num_batches
                busy[shard] += report.wall_seconds
                last_stats[shard] = (
                    report.covariance_cache, report.frame_cache
                )
            if first_error is not None:
                raise first_error

            if requeue_positions:
                requeued += len(requeue_positions)
                if requeued > requeue_guard:
                    raise RuntimeError(
                        "requeue limit exceeded; the fleet cannot stabilise"
                    )
                # Requeue to the front, in position order, so replays are
                # deterministic and merged output stays request-ordered.
                for position in sorted(requeue_positions, reverse=True):
                    pending.appendleft(position)

            # Restore coverage before the next routing pass.
            self._ensure_coverage()

        shard_reports: List[ShardReport] = []
        for shard in range(self.num_workers):
            if last_stats[shard] is None and self._alive[shard]:
                last_stats[shard] = self._call_idle(shard, Stats())
            covariance_stats, frame_stats = last_stats[shard] or (
                _DEAD_CACHE_STATS, _DEAD_CACHE_STATS
            )
            shard_reports.append(
                ShardReport(
                    shard_id=shard,
                    scene_indices=self.placement.scenes_of(shard),
                    num_requests=completed[shard],
                    num_cache_hits=cache_hits[shard],
                    num_batches=batch_counts[shard],
                    busy_seconds=busy[shard],
                    covariance_cache=covariance_stats,
                    frame_cache=frame_stats,
                    alive=self._alive[shard],
                )
            )

        events = tuple(self.placement.history[history_start:])

        return FleetReport(
            responses=[r for r in responses if r is not None],
            wall_seconds=time.perf_counter() - start,
            num_workers=self.num_workers,
            shards=shard_reports,
            dispatched=dispatched,
            requeued=requeued,
            respawned=sum(1 for e in events if e.kind == "respawn"),
            killed=tuple(e.shard for e in events if e.kind == "kill"),
            dead_shards=tuple(sorted(self._dead_set())),
            placement=events,
            placement_map=self.placement.snapshot(),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _call_idle(self, shard: int, message):
        """Call a live shard outside a dispatch round; ``None`` if it died.

        A worker that crashed while idle (say, an OOM kill) is only noticed
        here: it is marked dead instead of raising, and the next
        :meth:`serve` respawns it through :meth:`_ensure_coverage`.
        """
        try:
            return self._call(shard, message)
        except _WorkerDied:
            self._mark_dead(shard)
            return None

    def submit(self, request: RenderRequest) -> RenderResponse:
        """Serve a single request through a live owner of its scene."""
        return self.serve([request]).responses[0]

    def cache_stats(self) -> Tuple[CacheStats, CacheStats]:
        """Fleet-merged ``(covariance, frame)`` cache counters (live shards).

        Mirrors :meth:`RenderService.cache_stats
        <repro.serving.service.RenderService.cache_stats>` so gateway-style
        callers can front either tier interchangeably.
        """
        self._check_open()
        replies = [
            self._call_idle(shard, Stats())
            for shard in range(self.num_workers)
            if self._alive[shard]
        ]
        per_shard = [stats for stats in replies if stats is not None]
        return (
            merge_cache_stats([stats[0] for stats in per_shard]),
            merge_cache_stats([stats[1] for stats in per_shard]),
        )

    def reset_caches(self) -> None:
        """Drop every live shard's caches (cold-trace benchmarking)."""
        self._check_open()
        for shard in range(self.num_workers):
            if self._alive[shard]:
                self._call_idle(shard, ResetCaches())

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the workers down (idempotent).

        Safe to call with replies still in flight — e.g. when ``serve``
        raised between dispatch and collect: pending replies are drained
        first so a worker blocked sending a large frame can exit, and a
        worker that still does not exit is terminated.  Dead shards are
        skipped.
        """
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            if connection is None:
                continue
            try:
                while connection.poll(0):
                    connection.recv()
            except (EOFError, OSError):
                pass
            try:
                connection.send(Close())
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            if connection is not None:
                connection.close()

    def __enter__(self) -> "ShardedRenderService":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
