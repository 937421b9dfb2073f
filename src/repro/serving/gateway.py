"""Asynchronous render gateway: coalescing, bounded queues, priority lanes.

The synchronous serving stack (:class:`~repro.serving.service.RenderService`
and the sharded fleet) is an *offline* loop: ``serve(requests)`` receives the
whole stream up front and replays it.  Real deployments are *online* — many
users submit concurrently, duplicate requests overlap in flight, and bursts
can outrun the renderer.  :class:`RenderGateway` is the asyncio front end
that models (and manages) exactly that, without touching the render path:

* **In-flight coalescing** — concurrent requests for the same
  ``(scene, level, camera)`` attach to one *flight*: a single
  render (and a single frame-cache fill) answers all of them.  This is what
  the frame cache cannot do on its own: a cache entry only exists once the
  first render *completes*, while coalescing collapses duplicates that are
  simultaneously in flight.
* **Bounded admission with backpressure** — arrivals enter a bounded queue;
  when it is full the configured overload policy decides: ``"block"`` makes
  the submitter wait for space (classic backpressure), ``"shed-oldest"``
  drops the oldest queued request of the lowest-priority lane to admit the
  new one, ``"reject"`` refuses the new arrival outright.
* **Priority lanes with deadline-aware dropping** — each request rides a
  lane (0 = highest); the dispatcher always drains the highest-priority
  non-empty lane first, and a request that reaches the front of the queue
  past its deadline is dropped instead of rendered.
  :func:`repro.serving.traffic.popularity_priority` derives a lane
  assignment from the traffic model (hotspot scenes ride the high lane).

Every completed frame is **bit-identical** to the synchronous path: the
gateway only batches and deduplicates; rendering still happens through the
wrapped service, whose equivalence contracts hold transitively.

Usage::

    from repro.serving import RenderGateway, RenderService, generate_requests

    gateway = RenderGateway(RenderService(store), queue_depth=32,
                            overload_policy="shed-oldest")
    report = gateway.serve(generate_requests(store, 200, pattern="hotspot"))
    report.coalesce_rate              # fraction of requests that shared a flight
    report.num_shed                   # load-shedding visible, not silent
    report.queue_depth_percentile(95) # queueing behaviour under the burst
    report.latency_percentile(95)     # end-to-end tail latency

Async callers can drive the gateway directly::

    async with RenderGateway(service) as gateway:
        response = await gateway.submit(request, priority=0, deadline_s=0.5)
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.serving.cache import CacheStats
from repro.serving.service import RenderRequest, RenderResponse, RenderService
from repro.serving.sharded import ShardedRenderService

#: Admission-queue overload policies.
OVERLOAD_POLICIES = ("block", "shed-oldest", "reject")

#: Default bound of the admission queue (leaders only; coalesced duplicates
#: ride their flight and never occupy a slot).
DEFAULT_QUEUE_DEPTH = 64

#: Default number of queued requests drained into one ``service.serve`` call.
DEFAULT_MAX_BATCH = 16

#: Most recent queue-depth samples kept for the report's percentiles.
QUEUE_DEPTH_SAMPLE_WINDOW = 1 << 16

#: Lane index of the high-priority lane (lower = served first).
HIGH_PRIORITY = 0

#: Lane index of the default (normal) lane in a two-lane gateway.
NORMAL_PRIORITY = 1

#: Terminal statuses of a gateway request.
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "expired"


@dataclass
class GatewayResponse:
    """Terminal outcome of one request submitted through the gateway.

    Attributes
    ----------
    request:
        The original :class:`~repro.serving.service.RenderRequest`.
    request_id:
        Monotonic submission index; ``serve`` reports responses sorted by
        it, so coalescing can never reorder a replayed stream.
    priority:
        Lane the request rode (0 = highest priority).
    status:
        ``"ok"`` (rendered or cache-answered), ``"shed"`` (dropped by the
        shed-oldest policy), ``"rejected"`` (refused at admission), or
        ``"expired"`` (reached the dispatcher past its deadline).
    response:
        The underlying :class:`~repro.serving.service.RenderResponse` for
        ``"ok"`` outcomes, ``None`` for dropped requests.
    latency_s:
        End-to-end seconds from submission to the terminal outcome
        (queueing + coalescing wait + render).
    coalesced:
        ``True`` when this request attached to another request's in-flight
        render instead of enqueueing its own.
    """

    # The request and the full render result are excluded from the repr:
    # they embed whole frames, and an accidental repr of a response list
    # (debugger, log line, asyncio's own task repr) would otherwise spend
    # seconds pretty-printing arrays.
    request: RenderRequest = field(repr=False)
    request_id: int = 0
    priority: int = 0
    status: str = STATUS_OK
    response: Optional[RenderResponse] = field(default=None, repr=False)
    latency_s: float = 0.0
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        """Whether the request completed with a frame."""
        return self.status == STATUS_OK

    @property
    def image(self) -> np.ndarray:
        """The rendered frame (completed requests only)."""
        return self.response.image

    @property
    def result(self):
        """The underlying render result (completed requests only)."""
        return self.response.result

    @property
    def frame_key(self) -> tuple:
        """Frame-cache key of the served frame (completed requests only)."""
        return self.response.frame_key

    @property
    def level(self) -> int:
        """Detail level the request was served at (completed requests only)."""
        return self.response.level

    @property
    def from_cache(self) -> bool:
        """Whether the flight was answered by the service's frame cache."""
        return self.response is not None and self.response.from_cache


@dataclass
class GatewayReport:
    """Aggregate outcome of serving one request stream through the gateway.

    ``responses`` hold *every* submitted request in ``request_id`` order —
    completed and dropped alike — so the drop counters below reconcile
    exactly with the request stream by construction:
    ``num_completed + num_shed + num_rejected + num_expired ==
    num_requests``.

    Attributes
    ----------
    responses:
        One :class:`GatewayResponse` per submitted request, in request order.
    wall_seconds:
        Wall time of the whole serve call.
    num_batches:
        ``service.serve`` calls the dispatcher issued.
    queue_depth_samples:
        Admission-queue depth observed at each enqueue (see
        :meth:`queue_depth_percentile`).
    queue_depth, overload_policy:
        The gateway configuration the stream was served under.
    covariance_cache, frame_cache:
        Cache counters of the wrapped service after the serve.
    """

    responses: List[GatewayResponse]
    wall_seconds: float
    num_batches: int
    queue_depth_samples: List[int]
    queue_depth: int
    overload_policy: str
    covariance_cache: CacheStats
    frame_cache: CacheStats

    # ------------------------------------------------------------------ #
    # Stream accounting
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        """Requests submitted (completed plus dropped)."""
        return len(self.responses)

    @property
    def num_completed(self) -> int:
        """Requests that received a frame."""
        return sum(1 for r in self.responses if r.ok)

    @property
    def num_coalesced(self) -> int:
        """Requests that shared another request's in-flight render."""
        return sum(1 for r in self.responses if r.coalesced)

    @property
    def num_shed(self) -> int:
        """Requests dropped by the shed-oldest overload policy."""
        return sum(1 for r in self.responses if r.status == STATUS_SHED)

    @property
    def num_rejected(self) -> int:
        """Requests refused at admission by the reject overload policy."""
        return sum(1 for r in self.responses if r.status == STATUS_REJECTED)

    @property
    def num_expired(self) -> int:
        """Requests dropped at dispatch because their deadline had passed."""
        return sum(1 for r in self.responses if r.status == STATUS_EXPIRED)

    @property
    def num_dropped(self) -> int:
        """Requests that did not receive a frame (shed + rejected + expired)."""
        return self.num_shed + self.num_rejected + self.num_expired

    @property
    def num_cache_hits(self) -> int:
        """Completed requests whose flight was answered by the frame cache."""
        return sum(1 for r in self.responses if r.ok and r.from_cache)

    @property
    def coalesce_rate(self) -> float:
        """Fraction of submitted requests that coalesced onto a flight."""
        if not self.responses:
            return 0.0
        return self.num_coalesced / len(self.responses)

    @property
    def requests_by_level(self) -> Dict[int, int]:
        """Completed requests per detail level (``{level: count}``)."""
        counts: Dict[int, int] = {}
        for response in self.responses:
            if response.ok:
                counts[response.level] = counts.get(response.level, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Throughput and latency
    # ------------------------------------------------------------------ #
    @property
    def requests_per_second(self) -> float:
        """Completed-request throughput over the whole serve call."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.num_completed / self.wall_seconds

    def _completed_latencies(self) -> List[float]:
        """End-to-end latencies of the completed requests."""
        return [r.latency_s for r in self.responses if r.ok]

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency of completed requests."""
        latencies = self._completed_latencies()
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    @property
    def max_latency_s(self) -> float:
        """Worst end-to-end latency of completed requests."""
        latencies = self._completed_latencies()
        if not latencies:
            return 0.0
        return max(latencies)

    def latency_percentile(self, percentile: float) -> float:
        """End-to-end latency percentile over completed requests."""
        latencies = self._completed_latencies()
        if not latencies:
            return 0.0
        return float(np.percentile(latencies, percentile))

    def queue_depth_percentile(self, percentile: float) -> float:
        """Queue-depth percentile over the admission-time samples."""
        if not self.queue_depth_samples:
            return 0.0
        return float(np.percentile(self.queue_depth_samples, percentile))


class _QueueEntry:
    """One admitted flight leader waiting in a priority lane."""

    __slots__ = ("request", "key", "priority", "deadline", "future", "submitted")

    def __init__(self, request, key, priority, deadline, future, submitted):
        self.request = request
        self.key = key
        self.priority = priority
        self.deadline = deadline
        self.future = future
        self.submitted = submitted


class RenderGateway:
    """Asyncio front end over a render service: admission, coalescing, lanes.

    Parameters
    ----------
    service:
        The synchronous service the gateway fronts — a
        :class:`~repro.serving.service.RenderService` or a
        :class:`~repro.serving.sharded.ShardedRenderService`.  The gateway
        issues at most one ``service.serve`` call at a time, so the wrapped
        service needs no thread safety of its own.
    queue_depth:
        Bound of the admission queue (flight leaders only; coalesced
        duplicates never occupy a slot).
    overload_policy:
        What a full queue does to a new arrival: ``"block"`` (wait for
        space), ``"shed-oldest"`` (drop the oldest queued request of the
        lowest-priority occupied lane — unless everything queued outranks
        the arrival, in which case the arrival itself is shed rather than
        inverting the lanes), or ``"reject"`` (refuse the arrival).
    max_batch:
        Queued requests drained into a single ``service.serve`` call; the
        batch inherits all of the service's same-scene grouping and
        within-call frame deduplication.
    num_lanes:
        Number of priority lanes (lane 0 is drained first).
    priority_of:
        Optional default lane assignment, ``request -> lane``; see
        :func:`repro.serving.traffic.popularity_priority`.  Requests without
        an assignment ride the lowest-priority lane.
    """

    def __init__(
        self,
        service: Union[RenderService, ShardedRenderService],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        overload_policy: str = "block",
        max_batch: int = DEFAULT_MAX_BATCH,
        num_lanes: int = 2,
        priority_of: Optional[Callable[[RenderRequest], int]] = None,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload policy {overload_policy!r}; "
                f"choose from {OVERLOAD_POLICIES}"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if num_lanes < 1:
            raise ValueError("num_lanes must be at least 1")
        self.service = service
        self.queue_depth = int(queue_depth)
        self.overload_policy = overload_policy
        self.max_batch = int(max_batch)
        self.num_lanes = int(num_lanes)
        self.priority_of = priority_of

        # Lifetime counters (per-serve reports snapshot deltas).
        self._num_batches = 0
        self._next_request_id = 0
        # Admission-time depth samples of the current serving session; a
        # bounded deque so a long-lived `async with` gateway cannot grow
        # without bound (the report keeps the most recent window).
        self._queue_depth_samples: "deque[int]" = deque(
            maxlen=QUEUE_DEPTH_SAMPLE_WINDOW
        )

        # Loop-bound state, created by _start() for each serving loop.
        self._lanes: List[deque] = []
        self._in_flight: Dict[tuple, asyncio.Future] = {}
        self._admission_waiters: "deque[asyncio.Future]" = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._closing = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def _start(self) -> None:
        """Bind queues to the running loop and spawn the dispatcher."""
        if self._dispatcher is not None:
            raise RuntimeError("the gateway is already serving")
        self._lanes = [deque() for _ in range(self.num_lanes)]
        self._in_flight = {}
        self._admission_waiters = deque()
        self._queue_depth_samples.clear()
        self._wakeup = asyncio.Event()
        self._closing = False
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def _stop(self) -> None:
        """Drain the queue, stop the dispatcher, unbind from the loop."""
        if self._dispatcher is None:
            return
        self._closing = True
        self._wakeup.set()
        try:
            await self._dispatcher
        finally:
            self._dispatcher = None
            self._wakeup = None

    async def __aenter__(self) -> "RenderGateway":
        await self._start()
        return self

    async def __aexit__(self, exc_type, exc_value, exc_traceback) -> None:
        await self._stop()

    def close(self) -> None:
        """Close the wrapped service (a sharded fleet's workers)."""
        close = getattr(self.service, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "RenderGateway":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Coalescing and admission
    # ------------------------------------------------------------------ #
    def _coalesce_key(self, request: RenderRequest) -> tuple:
        """Identity of a flight: the request's key (:meth:`RenderRequest.key`).

        Two requests with equal keys are the *same work*; the explicit
        ``request.level`` (``None`` when a LOD policy decides) is part of
        the key, and deterministic policies map equal (scene, camera) pairs
        to equal levels, so coalesced duplicates always share their
        leader's exact frame.
        """
        return request.key(
            self.service.store.resolve_index(request.scene_id), request.level
        )

    def _depth(self) -> int:
        """Current admission-queue depth across all lanes."""
        return sum(len(lane) for lane in self._lanes)

    def _lowest_priority_occupied_lane(self) -> int:
        """Index of the lowest-priority lane that has queued entries."""
        for lane_index in range(self.num_lanes - 1, -1, -1):
            if self._lanes[lane_index]:
                return lane_index
        raise RuntimeError("no lane is occupied")  # unreachable when full

    def _shed_one(self) -> None:
        """Drop the oldest queued entry of the lowest-priority lane."""
        victim = self._lanes[self._lowest_priority_occupied_lane()].popleft()
        del self._in_flight[victim.key]
        victim.future.set_result((STATUS_SHED, None))

    def _release_admission_slots(self) -> None:
        """Wake blocked submitters, one per free queue slot."""
        free = self.queue_depth - self._depth()
        while free > 0 and self._admission_waiters:
            waiter = self._admission_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                free -= 1

    async def _admit(self, entry: _QueueEntry) -> str:
        """Apply the overload policy; enqueue on success.

        Returns the admission outcome: :data:`STATUS_OK` (enqueued),
        :data:`STATUS_REJECTED` (refused by the reject policy) or
        :data:`STATUS_SHED` (the shed-oldest policy found only *higher*
        priority work queued — shedding that to admit a lower-priority
        arrival would invert the lanes, so the arrival itself is shed).
        """
        while self._depth() >= self.queue_depth:
            if self.overload_policy == "reject":
                return STATUS_REJECTED
            if self.overload_policy == "shed-oldest":
                if self._lowest_priority_occupied_lane() < entry.priority:
                    return STATUS_SHED
                self._shed_one()
                continue
            waiter = asyncio.get_running_loop().create_future()
            self._admission_waiters.append(waiter)
            await waiter
        self._lanes[entry.priority].append(entry)
        self._queue_depth_samples.append(self._depth())
        self._wakeup.set()
        return STATUS_OK

    def _resolve_priority(self, request: RenderRequest, priority) -> int:
        """Lane of a request: explicit, via ``priority_of``, or lowest."""
        if priority is None:
            if self.priority_of is not None:
                priority = self.priority_of(request)
            else:
                priority = self.num_lanes - 1
        return min(max(int(priority), 0), self.num_lanes - 1)

    async def submit(
        self,
        request: RenderRequest,
        priority: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> GatewayResponse:
        """Submit one request and await its terminal outcome.

        Requires a running gateway (``async with`` or via
        :meth:`serve_async`).  ``priority`` overrides the lane assignment
        for this request; ``deadline_s`` is a relative deadline — if the
        request is still queued when it comes up for dispatch after the
        deadline, it is dropped as ``"expired"``.  A request that coalesces
        onto an in-flight leader shares the leader's fate (including
        shedding and expiry); its own deadline is not separately enforced.
        """
        if self._dispatcher is None:
            raise RuntimeError(
                "the gateway is not running; use serve()/serve_async() "
                "or 'async with gateway:'"
            )
        submitted = time.perf_counter()
        request_id = self._next_request_id
        self._next_request_id += 1
        lane = self._resolve_priority(request, priority)
        key = self._coalesce_key(request)

        flight = self._in_flight.get(key)
        if flight is not None:
            status, response = await asyncio.shield(flight)
            return GatewayResponse(
                request=request, request_id=request_id, priority=lane,
                status=status, response=response,
                latency_s=time.perf_counter() - submitted, coalesced=True,
            )

        future = asyncio.get_running_loop().create_future()
        deadline = None if deadline_s is None else submitted + deadline_s
        entry = _QueueEntry(request, key, lane, deadline, future, submitted)
        # Register the flight before (possibly) blocking on admission, so
        # duplicates arriving meanwhile coalesce instead of double-rendering.
        self._in_flight[key] = future
        admission = await self._admit(entry)
        if admission != STATUS_OK:
            del self._in_flight[key]
            future.set_result((admission, None))
            status, response = future.result()
        else:
            status, response = await asyncio.shield(future)
        return GatewayResponse(
            request=request, request_id=request_id, priority=lane,
            status=status, response=response,
            latency_s=time.perf_counter() - submitted, coalesced=False,
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _pop_next(self) -> Optional[_QueueEntry]:
        """Next entry to dispatch: highest-priority non-empty lane, FIFO."""
        for lane in self._lanes:
            if lane:
                return lane.popleft()
        return None

    async def _dispatch_loop(self) -> None:
        """Drain lanes into batched ``service.serve`` calls until closed."""
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._depth():
                batch: List[_QueueEntry] = []
                now = time.perf_counter()
                while self._depth() and len(batch) < self.max_batch:
                    entry = self._pop_next()
                    if entry.deadline is not None and now > entry.deadline:
                        del self._in_flight[entry.key]
                        entry.future.set_result((STATUS_EXPIRED, None))
                        continue
                    batch.append(entry)
                self._release_admission_slots()
                if not batch:
                    continue
                requests = [entry.request for entry in batch]
                try:
                    report = await loop.run_in_executor(
                        None, self.service.serve, requests
                    )
                except Exception as error:  # surface to every waiter
                    for entry in batch:
                        del self._in_flight[entry.key]
                        entry.future.set_exception(error)
                    continue
                self._num_batches += 1
                for entry, response in zip(batch, report.responses):
                    del self._in_flight[entry.key]
                    entry.future.set_result((STATUS_OK, response))
            if self._closing:
                return

    # ------------------------------------------------------------------ #
    # Stream serving
    # ------------------------------------------------------------------ #
    async def serve_async(
        self,
        requests: Iterable[RenderRequest],
        priorities: Union[None, Sequence[int], Callable] = None,
        deadlines: Union[None, float, Sequence[Optional[float]]] = None,
        arrival_interval_s: float = 0.0,
    ) -> GatewayReport:
        """Serve a request stream through the gateway (async flavour).

        See :meth:`serve` for the parameters and the report contract.
        """
        requests = list(requests)
        if callable(priorities):
            lane_of = [priorities(request) for request in requests]
        elif priorities is not None:
            lane_of = list(priorities)
            if len(lane_of) != len(requests):
                raise ValueError("priorities must align with requests")
        else:
            lane_of = [None] * len(requests)
        if deadlines is None or isinstance(deadlines, (int, float)):
            deadline_of: List[Optional[float]] = [deadlines] * len(requests)
        else:
            deadline_of = list(deadlines)
            if len(deadline_of) != len(requests):
                raise ValueError("deadlines must align with requests")

        batches_before = self._num_batches
        start = time.perf_counter()
        await self._start()
        try:

            async def submit_one(position: int) -> GatewayResponse:
                if arrival_interval_s > 0:
                    await asyncio.sleep(position * arrival_interval_s)
                return await self.submit(
                    requests[position],
                    priority=lane_of[position],
                    deadline_s=deadline_of[position],
                )

            responses = list(
                await asyncio.gather(
                    *(submit_one(position) for position in range(len(requests)))
                )
            )
        finally:
            await self._stop()
        responses.sort(key=lambda response: response.request_id)
        covariance_stats, frame_stats = self.service.cache_stats()
        return GatewayReport(
            responses=responses,
            wall_seconds=time.perf_counter() - start,
            num_batches=self._num_batches - batches_before,
            # _start() cleared the samples, so the whole (bounded) window
            # belongs to this serve call.
            queue_depth_samples=list(self._queue_depth_samples),
            queue_depth=self.queue_depth,
            overload_policy=self.overload_policy,
            covariance_cache=covariance_stats,
            frame_cache=frame_stats,
        )

    def serve(
        self,
        requests: Iterable[RenderRequest],
        priorities: Union[None, Sequence[int], Callable] = None,
        deadlines: Union[None, float, Sequence[Optional[float]]] = None,
        arrival_interval_s: float = 0.0,
    ) -> GatewayReport:
        """Serve a request stream through the async machinery (sync driver).

        All requests are submitted as concurrent tasks (a burst) unless
        ``arrival_interval_s`` spaces the arrivals out; ``priorities`` is an
        optional per-request lane assignment (sequence or callable) and
        ``deadlines`` an optional relative deadline (scalar applied to all,
        or a per-request sequence).  The report's ``responses`` are in
        request order regardless of how coalescing and priority lanes
        reordered the work, and every drop is accounted:
        ``num_completed + num_shed + num_rejected + num_expired ==
        num_requests``.
        """
        return asyncio.run(
            self.serve_async(
                requests,
                priorities=priorities,
                deadlines=deadlines,
                arrival_interval_s=arrival_interval_s,
            )
        )

