"""The three benchmark workloads: set-up, warm-up, timed phase and checks.

Each workload function takes ``(seed, seconds, trace, outdir)`` and returns
an :class:`Outcome`.  The untraced timed phase gives the end-to-end
metrics.  A traced run (``trace=True``) then replays the same timed stream
once more with the layer wrappers of :mod:`spans` installed, and derives
the per-layer metrics and the tracing overhead from the pair.  Output
checks raise :class:`CheckFailed`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import pickle
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import loadgen
from hostspeed import HostSpeed
from spans import ServiceProxy, SpanRecorder, instrument, layer_times_ms

from repro.core import GauRastSystem
from repro.gaussians.pipeline import render
from repro.hardware.config import SCALED_CONFIG
from repro.hardware.multi import ScaledGauRast
from repro.profiling.workload import WorkloadStatistics
from repro.serving import (
    CacheStats,
    GatewayReport,
    RenderGateway,
    RenderRequest,
    RenderService,
    SceneStore,
    ShardedRenderService,
    host_store,
    merge_cache_stats,
    popularity_priority,
)

#: Set-ups per run: at least ``SETUP_MIN_REPEATS``, and more until
#: ``SETUP_BUDGET_S`` seconds were spent; ``setup_s`` is their median.
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 4.0
SETUP_MAX_REPEATS = 12

#: Fixed tail percentile of each workload, chosen so a run of the default
#: length has at least ten samples beyond it.  ``hot-gateway`` stops at p90:
#: its p99 moved 3x between runs of one commit on a shared 2-core host.
TAIL_PERCENTILE = {"unique-views": 75.0, "hot-gateway": 90.0, "hw-replay": 60.0}

#: ``unique-views`` frame-cache budget: a few large frames, so the cache is
#: full after the first seconds and peak memory does not grow with the
#: number of requests a run completes.
UNIQUE_FRAME_CACHE_BYTES = 16 * 1024 * 1024

#: ``hot-gateway`` offered rate (req/s): half the rate at which p99 starts
#: to grow on a 2-core host running 2x slower than nominal (see README.md).
HOT_RATE = 150.0

#: ``hot-gateway`` latency limit: the per-request gateway deadline.
HOT_DEADLINE_S = 0.25

#: ``hot-gateway`` gateway warm-up, in seconds of open-loop traffic.
HOT_WARMUP_SECONDS = 0.5

#: Recorded ``hw-replay`` cycle counts of every pool frame.
HW_EXPECTED = Path(__file__).with_name("hw_expected.json")


class CheckFailed(Exception):
    """An output check failed; the run reports it instead of numbers."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class Phase:
    """Requests sent, succeeded and failed in one phase of a run.

    ``latencies`` and ``norm_wall`` are at nominal host speed (see
    :mod:`hostspeed`); ``wall`` is the raw wall time spent on requests and
    ``slowdowns`` the host slowdowns measured during the phase.
    """

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    norm_wall: float = 0.0
    slowdowns: List[float] = field(default_factory=list)
    #: Open loop only: how late each request was sent, in seconds.
    lag: List[float] = field(default_factory=list)

    def record(self, ok: bool, latency: float) -> None:
        self.sent += 1
        if ok:
            self.succeeded += 1
            self.latencies.append(latency)
        else:
            self.failed += 1


@dataclass
class Outcome:
    """Everything a workload reports: metrics plus its phase accounting."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    phases: Dict[str, Phase]


def peak_rss_mb(children=()) -> float:
    """Peak resident memory of this process plus ``children``, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for process in children:
        try:
            with open(f"/proc/{process.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def timed_setups(build: Callable[[], tuple], close: Callable[[tuple], None],
                 speed: HostSpeed):
    """Build repeatedly (see ``SETUP_*``); return (median seconds, last build).

    Each duration is divided by the mean of the host slowdowns measured
    just before and just after that build.
    """
    durations: List[float] = []
    built = None
    while len(durations) < SETUP_MIN_REPEATS or (
        sum(durations) < SETUP_BUDGET_S and len(durations) < SETUP_MAX_REPEATS
    ):
        if built is not None:
            close(built)
        slowdown = speed.measure()
        start = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - start
        durations.append(2.0 * elapsed / (slowdown + speed.measure()))
    return statistics.median(durations), built


_ESTIMATOR = ScaledGauRast(SCALED_CONFIG)


def modeled_cycles(result) -> float:
    """Closed-form GauRast frame cycles of a functional render result."""
    return _ESTIMATOR.estimate(WorkloadStatistics.from_render(result)).frame_cycles


def end_to_end(phase: Phase, workload: str, setup_s: float, rss_mb: float,
               frame_cycles: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of a timed phase."""
    return {
        "setup_s": setup_s,
        "throughput_rps": phase.succeeded / phase.norm_wall,
        "latency_p50_ms": 1e3 * loadgen.percentile(phase.latencies, 50.0),
        "latency_tail_ms": 1e3 * loadgen.windowed_tail(
            phase.latencies, TAIL_PERCENTILE[workload]
        ),
        "ok_rate": phase.succeeded / max(phase.sent, 1),
        "peak_rss_mb": rss_mb,
        "modeled_fps": SCALED_CONFIG.clock_hz / float(np.mean(frame_cycles)),
    }


def layer_metrics(workload: str, recorder: SpanRecorder,
                  phases: Dict[str, Phase]) -> Dict[str, float]:
    """Per-layer metrics every workload reports (0 where a layer is idle)."""
    timed, traced = phases["timed"], phases["traced"]
    metrics = layer_times_ms(recorder, traced.sent)
    self_times = recorder.self_times()
    counts = recorder.counts
    sort_s = self_times.get("sorting.bin_and_sort", 0.0) + self_times.get(
        "sorting.duplicate_keys", 0.0
    )
    raster_s = self_times.get("rasterize.tiles", 0.0)
    simulate_s = self_times.get("hardware.simulate_frame", 0.0)

    def rate(count: str, seconds: float) -> float:
        return counts.get(count, 0) / seconds if seconds else 0.0

    tail = TAIL_PERCENTILE[workload]
    metrics.update({
        "sorting.keys": counts.get("sorting.keys", 0),
        "sorting.keys_per_s": rate("sorting.keys", sort_s),
        "rasterize.fragments": counts.get("rasterize.fragments", 0),
        "rasterize.fragments_per_s": rate("rasterize.fragments", raster_s),
        "rasterize.share": raster_s / traced.wall,
        "hardware.frames": counts.get("hardware.frames", 0),
        "hardware.frame_cycles_total": 0,
        "hardware.fragments_per_host_s": rate("hardware.fragments", simulate_s),
        "hardware.share": simulate_s / traced.wall,
        "loadgen.lag_p99_ms": 1e3 * loadgen.percentile(timed.lag, 99.0),
        "loadgen.error_rate": 1.0 - timed.succeeded / max(timed.sent, 1),
        "loadgen.tail_percentile": tail,
        "loadgen.tail_samples": len(timed.latencies)
        - int(np.ceil(len(timed.latencies) * tail / 100.0)),
        "trace.overhead_p50_ms": 1e3 * (
            loadgen.percentile(traced.latencies, 50.0)
            - loadgen.percentile(timed.latencies, 50.0)
        ),
        "host.slowdown": statistics.median(traced.slowdowns),
    })
    for name, phase in phases.items():
        metrics[f"loadgen.{name}.sent"] = phase.sent
        metrics[f"loadgen.{name}.succeeded"] = phase.succeeded
        metrics[f"loadgen.{name}.failed"] = phase.failed

    # Self times telescope to the root spans; a gap means spans overlapped
    # or lost their parent.
    covered = recorder.root_cover_seconds()
    self_sum = sum(self_times.values())
    check(
        abs(self_sum - covered) <= 0.1 * covered,
        f"span self times sum to {self_sum:.3f} s but cover {covered:.3f} s",
    )
    metrics["trace.self_sum_ms"] = 1e3 * self_sum
    metrics["trace.coverage"] = covered / traced.wall
    return metrics


def cache_delta(before, after) -> Dict[str, float]:
    """Hit rates and evictions between two ``(covariance, frame)`` snapshots."""

    def rate(old, new):
        hits = new.hits - old.hits
        lookups = hits + new.misses - old.misses
        return hits / lookups if lookups else 0.0

    return {
        "service.covariance_hit_rate": rate(before[0], after[0]),
        "service.frame_hit_rate": rate(before[1], after[1]),
        "service.evictions": sum(
            new.evictions - old.evictions for old, new in zip(before, after)
        ),
    }


#: Serving-tier metrics of the workloads that do not run the tier.
IDLE_TIER = {
    "sharded.serve_ms": 0.0,
    "sharded.critical_path_ms": 0.0,
    "sharded.rpc_overhead_ms": 0.0,
    "sharded.reply_bytes_per_request": 0.0,
    "sharded.requeued": 0,
    "sharded.utilization_min": 0.0,
    "gateway.wait_ms": 0.0,
    "gateway.self_ms": 0.0,
    "gateway.batch_size_mean": 0.0,
    "gateway.coalesce_rate": 0.0,
    "gateway.queue_depth_p95": 0.0,
    "gateway.expired": 0,
}


def closed_loop(phase: Phase, request_of, call, keep_going, after=None,
                recorder: Optional[SpanRecorder] = None,
                speed: Optional[HostSpeed] = None) -> None:
    """One client: send request ``i`` once request ``i - 1`` has completed.

    Runs while ``keep_going(i, elapsed_seconds)``; ``after(i, response)``
    runs outside the latency window.  A call that raises is counted as
    failed, not fatal.  With ``speed``, the host is probed before each
    request and the request's latency and wall time are divided by the
    slowdown.
    """
    start = time.perf_counter()
    position = 0
    while keep_going(position, time.perf_counter() - start):
        slowdown = 1.0 if speed is None else speed.probe()
        phase.slowdowns.append(slowdown)
        request = request_of(position)
        sent = time.perf_counter()
        try:
            if recorder is None:
                response = call(request)
            else:
                with recorder.span("client.request", request_id=position):
                    response = call(request)
            ok = True
        except Exception as error:
            print(f"request {position} failed: {error!r}", flush=True)
            response, ok = None, False
        phase.record(ok, (time.perf_counter() - sent) / slowdown)
        if ok and after is not None:
            after(position, response)
        elapsed = time.perf_counter() - sent
        phase.wall += elapsed
        phase.norm_wall += elapsed / slowdown
        position += 1


def for_seconds(seconds: float):
    """``keep_going`` predicate of a time-bounded phase."""
    return lambda position, elapsed: elapsed < seconds


def for_count(count: int):
    """``keep_going`` predicate of a phase of ``count`` requests."""
    return lambda position, elapsed: position < count


def write_spans(recorder: SpanRecorder, workload: str, seed: int, outdir: Path) -> None:
    """Persist the traced phase's spans under ``outdir``."""
    outdir.mkdir(exist_ok=True)
    recorder.write(outdir / f"spans-{workload}-{seed}.json")


# ---------------------------------------------------------------------- #
# unique-views
# ---------------------------------------------------------------------- #
def unique_views(seed: int, seconds: float, trace: bool, outdir: Path) -> Outcome:
    """Distinct viewpoints through ``RenderService.submit``, one client."""

    def build():
        store = SceneStore([
            loadgen.build_scene(n, w, h, s, name=f"unique-{i}")
            for i, (n, w, h, s) in enumerate(loadgen.UNIQUE_SCENES)
        ])
        service = RenderService(store, frame_cache_bytes=UNIQUE_FRAME_CACHE_BYTES)
        warmup = Phase()
        closed_loop(warmup, lambda i: loadgen.unique_view_request(seed, 0, i), service.submit,
                    for_count(len(loadgen.UNIQUE_SIZE_PATTERN)))
        return store, service, warmup

    speed = HostSpeed("numpy")
    setup_s, (store, service, warmup) = timed_setups(build, lambda built: None, speed)
    phases = {"warmup": warmup, "timed": Phase()}
    request_of = lambda i: loadgen.unique_view_request(seed, 1, i)  # noqa: E731

    # A seeded sample of served frames, one per pattern slot, is checked
    # against standalone renders after the timed window.
    pattern = len(loadgen.UNIQUE_SIZE_PATTERN)
    rng = np.random.default_rng([seed, 9])
    sample = {int(rng.integers(0, 3)) * pattern + slot for slot in range(pattern)}
    kept: Dict[int, np.ndarray] = {}
    digests: Dict[int, bytes] = {}
    cycles: List[float] = []

    def after(position, response):
        cycles.append(modeled_cycles(response.result))
        if position in sample:
            kept[position] = response.image
        if trace:
            digests[position] = hashlib.blake2b(response.image.tobytes()).digest()

    closed_loop(phases["timed"], request_of, service.submit, for_seconds(seconds), after,
                speed=speed)
    rss = peak_rss_mb()

    check(len(kept) == len(sample), "a sampled request failed or was never sent")
    for position, image in sorted(kept.items()):
        request = request_of(position)
        expected = render(store.get_scene(request.scene_id), request.camera).image
        check(np.array_equal(image, expected),
              f"served frame {position} differs from a standalone render")

    outcome = Outcome(
        end_to_end(phases["timed"], "unique-views", setup_s, rss, cycles), {}, phases
    )
    if not trace:
        return outcome

    service.reset_caches()
    recorder = SpanRecorder()
    proxy = ServiceProxy(service, recorder, "service")
    traced = phases["traced"] = Phase()
    mismatched = []

    def compare(position, response):
        digest = hashlib.blake2b(response.image.tobytes()).digest()
        if position in digests and digests[position] != digest:
            mismatched.append(position)

    before = service.cache_stats()
    with instrument(recorder, stores=[store]):
        closed_loop(traced, request_of, proxy.submit, for_seconds(seconds), compare,
                    recorder=recorder, speed=speed)
    check(not mismatched, f"traced frames {mismatched} differ from untraced ones")
    write_spans(recorder, "unique-views", seed, outdir)

    layers = layer_metrics("unique-views", recorder, phases)
    layers.update(IDLE_TIER)
    layers.update(cache_delta(before, service.cache_stats()))
    layers["service.busy_ms"] = 1e3 * recorder.total_times("service.submit") / traced.sent
    outcome.per_layer = layers
    return outcome


# ---------------------------------------------------------------------- #
# hot-gateway
# ---------------------------------------------------------------------- #
@dataclass
class OpenLoopRun:
    """Outcomes of an open-loop phase and each request's send/done times.

    ``responses`` are the gateway's responses with the frame dropped once
    ``matches`` recorded whether it equals the warm-up frame of its key, so
    a phase holds no more frames than the program itself does.
    """

    responses: list
    matches: List[bool]
    sent_at: List[float]
    done_at: List[float]


async def _open_loop(gateway: RenderGateway, triples, due, expected, phase: Phase,
                     run: OpenLoopRun) -> None:
    """Send each request at its scheduled time; latency counts from then."""

    async def one(position: int, request, due_at: float):
        run.sent_at[position] = time.perf_counter()
        response = await gateway.submit(request, deadline_s=HOT_DEADLINE_S)
        run.done_at[position] = time.perf_counter()
        phase.record(response.ok, run.done_at[position] - due_at)
        scene, camera, _ = triples[position]
        run.matches[position] = response.ok and np.array_equal(
            response.image, expected[scene, camera]
        )
        response.response = None
        run.responses[position] = response

    async with gateway:
        tasks = []
        start = time.perf_counter()
        for position, (_, _, request) in enumerate(triples):
            due_at = start + due[position]
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lag.append(time.perf_counter() - due_at)
            tasks.append(asyncio.ensure_future(one(position, request, due_at)))
        await asyncio.gather(*tasks)
    phase.wall = time.perf_counter() - start


def open_loop(gateway, triples, due, expected, phase: Phase,
              speed: Optional[HostSpeed] = None) -> OpenLoopRun:
    """Run one open-loop phase on a fresh event loop.

    With ``speed``, the host is measured before and after the phase (never
    during it, which would stall the event loop) and latencies are divided
    by the mean slowdown.  Throughput is the offered rate either way.
    """
    count = len(triples)
    run = OpenLoopRun([None] * count, [False] * count, [0.0] * count, [0.0] * count)
    before = 1.0 if speed is None else speed.measure()
    asyncio.run(_open_loop(gateway, triples, due, expected, phase, run))
    slowdown = 1.0 if speed is None else (before + speed.measure()) / 2.0
    phase.slowdowns.append(slowdown)
    phase.latencies = [latency / slowdown for latency in phase.latencies]
    phase.norm_wall = phase.wall
    return run


def gateway_report(gateway, responses, phase: Phase, batches: int) -> GatewayReport:
    """The gateway's own accounting over one phase's responses."""
    covariance_stats, frame_stats = gateway.service.cache_stats()
    return GatewayReport(
        responses=sorted(responses, key=lambda r: r.request_id),
        wall_seconds=phase.wall,
        num_batches=batches,
        queue_depth_samples=list(getattr(gateway, "_queue_depth_samples", ())),
        queue_depth=gateway.queue_depth,
        overload_policy=gateway.overload_policy,
        covariance_cache=covariance_stats,
        frame_cache=frame_stats,
    )


def check_hot_phase(name: str, triples, run: OpenLoopRun, report: GatewayReport) -> None:
    """Outcomes reconcile, and every response is ``ok`` and equals warm-up."""
    check(
        report.num_completed + report.num_shed + report.num_rejected
        + report.num_expired == report.num_requests == len(triples),
        f"{name}: gateway outcomes do not reconcile with requests sent",
    )
    for (scene, camera, _), response, match in zip(triples, run.responses, run.matches):
        check(response.ok, f"{name}: request for scene {scene} camera {camera} "
                           f"ended {response.status}")
        check(match, f"{name}: frame of scene {scene} camera {camera} differs from warm-up")


def hot_gateway(seed: int, seconds: float, trace: bool, outdir: Path) -> Outcome:
    """Open-loop hotspot traffic through the gateway, all frame-cache hits."""

    def build():
        scenes = [
            loadgen.build_scene(*loadgen.HOT_SCENE_SHAPE, 200 + i,
                                num_cameras=loadgen.HOT_CAMERAS, name=f"hot-{i}")
            for i in range(loadgen.HOT_NUM_SCENES)
        ]
        lease = host_store(SceneStore(scenes), "shared")
        store = lease.store
        priority = popularity_priority(store, "hotspot", seed=seed)
        fleet = ShardedRenderService(store, num_workers=2, replication=2,
                                     hot_scenes=priority)
        try:
            (hot,) = priority.hot_scenes
            cameras = [store.get_cameras(i) for i in range(len(store))]
            frames = [(s, c) for s in range(len(store)) for c in range(len(cameras[s]))]
            report = fleet.serve(
                RenderRequest(scene_id=s, camera=cameras[s][c]) for s, c in frames
            )
            expected = {key: r.image for key, r in zip(frames, report.responses)}
            frame_cycles = [modeled_cycles(r.result) for r in report.responses]
            # Routing sends the two requests of a pair to the two replicas,
            # so both hold every frame of the hot scene.
            for camera in cameras[hot]:
                request = RenderRequest(scene_id=hot, camera=camera)
                fleet.serve([request, request])
            gateway = RenderGateway(fleet, priority_of=priority)
            warmup = Phase()
            count = int(HOT_RATE * HOT_WARMUP_SECONDS)
            triples = loadgen.hotspot_requests(seed, 0, count, hot, cameras)
            run = open_loop(gateway, triples, loadgen.arrival_schedule(seed, 0, count, HOT_RATE),
                            expected, warmup)
            check_hot_phase("warm-up", triples, run,
                            gateway_report(gateway, run.responses, warmup, 0))
        except BaseException:
            fleet.close()
            lease.close()
            raise
        return lease, fleet, gateway, hot, cameras, expected, frame_cycles, warmup

    def close(built):
        built[1].close()
        built[0].close()

    speed = HostSpeed("python")
    setup_s, built = timed_setups(build, close, speed)
    try:
        return _hot_phases(seed, seconds, trace, outdir, setup_s, speed, *built)
    finally:
        close(built)


class FleetStats:
    """Running totals over the ``FleetReport`` of every traced serve call.

    Reply bytes are the pickled size of each response, the payload a
    worker sends back; sizes are memoised per frame key.
    """

    def __init__(self, num_workers: int):
        self.calls = 0
        self.responses = 0
        self.requeued = 0
        self.critical_s = 0.0
        self.reply_bytes = 0
        self.busy = np.zeros(num_workers)
        self._sizes: Dict[tuple, int] = {}

    def _reply_size(self, response) -> int:
        size = self._sizes.get(response.frame_key)
        if size is None:
            size = self._sizes[response.frame_key] = len(
                pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
            )
        return size

    def add(self, report) -> None:
        self.calls += 1
        self.responses += report.num_requests
        self.requeued += report.requeued
        self.critical_s += report.critical_path_seconds
        self.reply_bytes += sum(self._reply_size(r) for r in report.responses)
        self.busy += [shard.busy_seconds for shard in report.shards]


def _hot_phases(seed, seconds, trace, outdir, setup_s, speed, lease, fleet, gateway, hot,
                cameras, expected, frame_cycles, warmup) -> Outcome:
    """Timed (and traced) phases of ``hot-gateway`` on a warmed fleet."""
    phases = {"warmup": warmup, "timed": Phase()}
    count = int(HOT_RATE * seconds)
    triples = loadgen.hotspot_requests(seed, 1, count, hot, cameras)
    due = loadgen.arrival_schedule(seed, 1, count, HOT_RATE)

    before = fleet.cache_stats()
    run = open_loop(gateway, triples, due, expected, phases["timed"], speed)
    after = fleet.cache_stats()
    rss = peak_rss_mb(multiprocessing.active_children())
    check_hot_phase("timed", triples, run,
                    gateway_report(gateway, run.responses, phases["timed"], 0))
    check(after[1].misses == before[1].misses,
          "the timed phase rendered frames: warm-up left the frame cache cold")
    outcome = Outcome(
        end_to_end(phases["timed"], "hot-gateway", setup_s, rss, frame_cycles), {}, phases
    )
    if not trace:
        return outcome

    recorder = SpanRecorder()
    fleet_stats = FleetStats(fleet.num_workers)
    proxy = ServiceProxy(fleet, recorder, "sharded", on_report=fleet_stats.add)
    traced = phases["traced"] = Phase()
    gateway.service = proxy
    try:
        with instrument(recorder, stores=[lease.store]):
            run = open_loop(gateway, triples, due, expected, traced, speed)
    finally:
        gateway.service = fleet
    after_traced = fleet.cache_stats()
    report = gateway_report(gateway, run.responses, traced, fleet_stats.calls)
    check_hot_phase("traced", triples, run, report)
    write_spans(recorder, "hot-gateway", seed, outdir)

    layers = layer_metrics("hot-gateway", recorder, phases)
    layers.update(cache_delta(after, after_traced))
    sent = traced.sent
    serve_s = recorder.total_times("sharded.serve")

    # Wait: submit to the start of the serve call carrying the request.
    # Self: serve return to the client resuming.  Coalesced requests ride
    # another request's call and are left out.
    waits, selfs = [], []
    for (_, _, request), response, sent_at, done_at in zip(
        triples, run.responses, run.sent_at, run.done_at
    ):
        window = proxy.windows.get(id(request))
        if window is not None and not response.coalesced:
            waits.append(window[0] - sent_at)
            selfs.append(done_at - window[1])

    layers.update({
        "service.busy_ms": 1e3 * float(fleet_stats.busy.sum()) / sent,
        "sharded.serve_ms": 1e3 * serve_s / sent,
        "sharded.critical_path_ms": 1e3 * fleet_stats.critical_s / sent,
        "sharded.rpc_overhead_ms": 1e3 * (serve_s - fleet_stats.critical_s) / sent,
        "sharded.reply_bytes_per_request": fleet_stats.reply_bytes / fleet_stats.responses,
        "sharded.requeued": fleet_stats.requeued,
        "sharded.utilization_min": float(fleet_stats.busy.min() / fleet_stats.busy.max()),
        "gateway.wait_ms": 1e3 * float(np.mean(waits)),
        "gateway.self_ms": 1e3 * float(np.mean(selfs)),
        "gateway.batch_size_mean": fleet_stats.responses / fleet_stats.calls,
        "gateway.coalesce_rate": report.coalesce_rate,
        "gateway.queue_depth_p95": report.queue_depth_percentile(95),
        "gateway.expired": report.num_expired,
    })
    outcome.per_layer = layers
    return outcome


# ---------------------------------------------------------------------- #
# hw-replay
# ---------------------------------------------------------------------- #
def hw_store() -> SceneStore:
    """The fixed scenes the ``hw-replay`` frame pool is drawn from."""
    return SceneStore([
        loadgen.build_scene(n, w, h, s, num_cameras=loadgen.HW_CAMERAS, name=f"hw-{i}")
        for i, (n, w, h, s) in enumerate(loadgen.HW_SCENES)
    ])


def hw_pool(store: SceneStore) -> List[RenderRequest]:
    """One request per pool frame: every camera of every ``hw-replay`` scene."""
    return [
        RenderRequest(scene_id=scene, camera=camera)
        for scene in range(len(store))
        for camera in store.get_cameras(scene)
    ]


def record_hw_expected() -> dict:
    """Simulate every pool frame once; the record ``hw-replay`` checks against."""
    store = hw_store()
    system = GauRastSystem()
    cycles = [
        system.evaluate_trace(store, [request]).frame_reports[0].frame_cycles
        for request in hw_pool(store)
    ]
    return {
        "frame_cycles": cycles,
        "frame_cycles_total": sum(cycles),
        "modeled_fps": SCALED_CONFIG.clock_hz / float(np.mean(cycles)),
    }


def hw_replay(seed: int, seconds: float, trace: bool, outdir: Path) -> Outcome:
    """``GauRastSystem.evaluate_trace`` on short traces, one client."""
    expected = json.loads(HW_EXPECTED.read_text(encoding="utf-8"))
    frame_cycles = expected["frame_cycles"]
    pool_size = len(frame_cycles)

    def build():
        store = hw_store()
        pool = hw_pool(store)
        check(len(pool) == pool_size, "the hw-replay pool differs from the record")
        system = GauRastSystem()
        warmup = Phase()
        closed_loop(warmup, lambda i: [pool[0]] * 2,
                    lambda requests: system.evaluate_trace(
                        store, requests, service=RenderService(store, collect_stats=False)),
                    for_count(1))
        return store, pool, system, warmup

    speed = HostSpeed("python")
    setup_s, (store, pool, system, warmup) = timed_setups(build, lambda built: None, speed)
    phases = {"warmup": warmup, "timed": Phase()}

    def request_of(position):
        round_index, offset = divmod(position, pool_size)
        frame, length = loadgen.hw_round(seed, round_index, pool_size)[offset]
        return frame, [pool[frame]] * length

    def run_phase(phase: Phase, recorder: Optional[SpanRecorder]) -> Dict[int, int]:
        simulated: Dict[int, int] = {}

        def call(item):
            frame, requests = item
            service = RenderService(store, collect_stats=False)
            if recorder is not None:
                service = ServiceProxy(service, recorder, "service")
                services.append(service)
            return system.evaluate_trace(store, requests, service=service)

        def after(position, evaluation):
            frame, requests = request_of(position)
            check(len(evaluation.frame_reports) == 1
                  and len(evaluation.request_cycles) == len(requests),
                  f"call {position}: the replay did not dedupe its repeated frame")
            cycles = evaluation.frame_reports[0].frame_cycles
            check(cycles == frame_cycles[frame],
                  f"pool frame {frame}: {cycles} cycles, recorded {frame_cycles[frame]}")
            simulated[frame] = cycles

        # Whole rounds, so every run simulates each pool frame equally often.
        closed_loop(phase, request_of, call,
                    lambda position, elapsed: elapsed < seconds or position % pool_size,
                    after, recorder, speed)
        return simulated

    services: List[ServiceProxy] = []
    simulated = run_phase(phases["timed"], None)
    rss = peak_rss_mb()
    check(sum(simulated.values()) == expected["frame_cycles_total"],
          "the pool's cycle total differs from the record")
    outcome = Outcome(
        end_to_end(phases["timed"], "hw-replay", setup_s, rss, frame_cycles), {}, phases
    )
    check(outcome.end_to_end["modeled_fps"] == expected["modeled_fps"],
          "modeled_fps differs from the record")
    if not trace:
        return outcome

    recorder = SpanRecorder()
    traced = phases["traced"] = Phase()
    with instrument(recorder, stores=[store]):
        traced_simulated = run_phase(traced, recorder)
    check(traced_simulated == simulated, "traced cycle counts differ from untraced ones")
    write_spans(recorder, "hw-replay", seed, outdir)

    layers = layer_metrics("hw-replay", recorder, phases)
    layers.update(IDLE_TIER)
    # Every call serves through a fresh service, so its caches' counters
    # are that call's own.
    empty = (CacheStats(0, 0, 0, 0, 0, None),) * 2
    totals = [merge_cache_stats(stats) for stats in zip(
        *(service.cache_stats() for service in services)
    )]
    layers.update(cache_delta(empty, totals))
    layers.update({
        "service.busy_ms": 1e3 * recorder.total_times("service.serve") / traced.sent,
        "hardware.frame_cycles_total": sum(traced_simulated.values()),
    })
    outcome.per_layer = layers
    return outcome


WORKLOADS = {
    "unique-views": unique_views,
    "hot-gateway": hot_gateway,
    "hw-replay": hw_replay,
}


if __name__ == "__main__":
    # Re-record the hw-replay cycle counts (only after a change that is
    # meant to alter the modelled hardware): PYTHONPATH=src python3 perfbench/workloads.py
    HW_EXPECTED.write_text(json.dumps(record_hw_expected(), indent=1) + "\n", encoding="utf-8")
