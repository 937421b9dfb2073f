"""Perf smoke benchmark for the async render gateway.

The scenario the gateway exists for: a *burst* of concurrent requests,
duplicate-heavy because traffic is hotspot-skewed, arriving before any of
them has finished rendering.  The serial replay loop (the pre-gateway
dispatcher pattern: one ``service.submit`` per request, in order) renders
every request in that in-flight window — a frame-cache entry only exists
once the first render *completes*, so simultaneous duplicates cannot reuse
it.  The gateway's in-flight coalescing collapses those duplicates onto a
single render regardless of cache state.

To measure exactly that effect, both sides run with the cross-call frame
cache disabled (``frame_cache_bytes=0``) — the offline serial loop would
otherwise be answered by completed cache fills that a concurrent burst, by
definition, does not have yet.  Everything else about the two services is
identical, so the measured delta is purely coalescing plus batching:

1. serial replay: ``service.submit(request)`` per request, cold covariances;
2. the gateway serving the same burst — acceptance bar >= 1.5x req/s
   (measured ~4-5x: 80 requests collapse onto the distinct frames).

The speedup is free of accuracy trade-offs (frames pinned bit-identical to
the serial loop here and in ``tests/test_serving_gateway.py``), and the
``GatewayReport`` counters must reconcile exactly with the request stream:
every submitted request is completed or accounted as shed/rejected/expired,
and the coalesce count equals the stream's duplicate count.
"""

import os

import numpy as np
import pytest

from repro.serving import (
    RenderGateway,
    RenderService,
    SceneStore,
    generate_requests,
)
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene

#: Requests in the duplicate-heavy burst.
NUM_REQUESTS = 80

#: Mean per-round seconds keyed by mode, shared across this module's
#: benchmarks so later ones can report speedups over earlier ones.
_MEAN_SECONDS = {}


def _gateway_service(store):
    """The service config both sides measure under (no cross-call cache)."""
    return RenderService(store, frame_cache_bytes=0)


@pytest.fixture(scope="module")
def gateway_workload():
    """A 3-scene store plus an 80-request hotspot burst (few distinct frames)."""
    store = SceneStore(
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=300, width=80, height=60, seed=seed),
            name=f"bench-scene-{seed}",
            num_cameras=4,
        )
        for seed in range(3)
    )
    trace = generate_requests(
        store, NUM_REQUESTS, pattern="hotspot", seed=1, hotspot_fraction=0.8
    )
    return store, trace


def _distinct_flights(store, trace):
    """Distinct (scene, camera) frames in the trace."""
    return len({
        (store.resolve_index(request.scene_id),
         request.camera.world_to_camera.tobytes())
        for request in trace
    })


def test_bench_gateway_serial_replay(benchmark, record_info, gateway_workload):
    """Baseline: the serial per-request dispatcher loop on the same burst."""
    store, trace = gateway_workload

    def serial():
        service = _gateway_service(store)
        return [service.submit(request) for request in trace]

    responses = benchmark.pedantic(serial, rounds=3, iterations=1)
    assert len(responses) == NUM_REQUESTS
    if benchmark.stats is not None:  # None under --benchmark-disable
        mean = benchmark.stats.stats.mean
        _MEAN_SECONDS["serial"] = mean
        record_info(benchmark, requests_per_second=NUM_REQUESTS / mean)


def test_bench_gateway_coalesced_burst(benchmark, record_info, gateway_workload):
    """The gateway on the same burst: >= 1.5x req/s over serial replay."""
    store, trace = gateway_workload
    distinct = _distinct_flights(store, trace)
    assert distinct < NUM_REQUESTS / 2, "the bench trace must be duplicate-heavy"

    # A fresh gateway per round: every round renders its distinct frames
    # cold, exactly like the serial baseline.
    def burst():
        gateway = RenderGateway(
            _gateway_service(store), queue_depth=NUM_REQUESTS
        )
        return gateway.serve(trace)

    report = benchmark.pedantic(burst, rounds=3, iterations=1)

    # Counters reconcile exactly with the request stream: nothing dropped
    # under the block policy, and every duplicate coalesced onto a flight.
    assert report.num_requests == NUM_REQUESTS
    assert report.num_completed == NUM_REQUESTS
    assert report.num_shed == report.num_rejected == report.num_expired == 0
    assert report.num_coalesced == NUM_REQUESTS - distinct
    assert report.coalesce_rate == pytest.approx(
        (NUM_REQUESTS - distinct) / NUM_REQUESTS
    )

    # Responses in request order, frames bit-identical to the serial loop.
    serial_service = _gateway_service(store)
    for position, response in enumerate(report.responses):
        assert response.request_id == position
        assert response.request is trace[position]
    for probe in (0, NUM_REQUESTS // 2, NUM_REQUESTS - 1):
        golden = serial_service.submit(trace[probe])
        assert np.array_equal(report.responses[probe].image, golden.image)

    if benchmark.stats is not None:
        mean = benchmark.stats.stats.mean
        _MEAN_SECONDS["gateway"] = mean
        record_info(
            benchmark,
            requests_per_second=NUM_REQUESTS / mean,
            distinct_flights=distinct,
            coalesce_rate=report.coalesce_rate,
            num_batches=report.num_batches,
            queue_depth_p95=report.queue_depth_percentile(95),
        )
        if "serial" in _MEAN_SECONDS:
            speedup = _MEAN_SECONDS["serial"] / _MEAN_SECONDS["gateway"]
            record_info(benchmark, speedup_vs_serial_replay=speedup)
            # Measured ~4.5x on a quiet machine (80 requests over ~12
            # distinct flights); the 1.5x bar leaves margin for noise.
            # Shared CI runners opt out via REPRO_RELAX_PERF_ASSERTS.
            if not os.environ.get("REPRO_RELAX_PERF_ASSERTS"):
                assert speedup >= 1.5


def test_bench_gateway_shedding_under_overload(record_info, gateway_workload, benchmark):
    """Shed-oldest under a tiny queue: drops are exact, never silent."""
    store, trace = gateway_workload
    gateway = RenderGateway(
        _gateway_service(store), queue_depth=4, overload_policy="shed-oldest"
    )
    report = benchmark.pedantic(
        lambda: gateway.serve(trace), rounds=1, iterations=1
    )
    assert (
        report.num_completed + report.num_shed + report.num_rejected
        + report.num_expired == NUM_REQUESTS
    )
    assert report.num_shed > 0
    # Every completed frame is still bit-identical to the serial loop.
    service = _gateway_service(store)
    completed = [r for r in report.responses if r.ok]
    probe = completed[len(completed) // 2]
    assert np.array_equal(probe.image, service.submit(probe.request).image)
    if benchmark.stats is not None:
        record_info(
            benchmark,
            completed=report.num_completed,
            shed=report.num_shed,
            queue_depth_p95=report.queue_depth_percentile(95),
        )
