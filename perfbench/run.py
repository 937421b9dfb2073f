"""Repository benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload unique-views --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed phase;
``--trace 1`` runs that phase, replays it with every layer wrapped, and
prints the per-layer metrics.  Output checks run in the same command: a
failed check prints ``"correct": false`` with no metrics and exits 1.
The last line of standard output is always the JSON result.  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Directory (inside the checkout) the traced run writes its spans to.
SPANS_DIR = ROOT / ".perfbench"

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "modeled_fps": "frames/s",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "projection.covariances_ms": "ms",
    "projection.preprocess_ms": "ms",
    "sorting.duplicate_keys_ms": "ms",
    "sorting.bin_sort_ms": "ms",
    "sorting.keys": "count",
    "sorting.keys_per_s": "1/s",
    "rasterize.tiles_ms": "ms",
    "rasterize.fragments": "count",
    "rasterize.fragments_per_s": "1/s",
    "rasterize.share": "ratio",
    "hardware.simulate_ms": "ms",
    "hardware.frames": "count",
    "hardware.frame_cycles_total": "cycles",
    "hardware.fragments_per_host_s": "1/s",
    "hardware.share": "ratio",
    "service.frame_hit_rate": "ratio",
    "service.covariance_hit_rate": "ratio",
    "service.evictions": "count",
    "service.busy_ms": "ms",
    "storage.get_scene_ms": "ms",
    "sharded.serve_ms": "ms",
    "sharded.critical_path_ms": "ms",
    "sharded.rpc_overhead_ms": "ms",
    "sharded.reply_bytes_per_request": "bytes",
    "sharded.requeued": "count",
    "sharded.utilization_min": "ratio",
    "gateway.wait_ms": "ms",
    "gateway.self_ms": "ms",
    "gateway.batch_size_mean": "count",
    "gateway.coalesce_rate": "ratio",
    "gateway.queue_depth_p95": "count",
    "gateway.expired": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.error_rate": "ratio",
    "loadgen.tail_percentile": "%",
    "loadgen.tail_samples": "count",
    "loadgen.warmup.sent": "count",
    "loadgen.warmup.succeeded": "count",
    "loadgen.warmup.failed": "count",
    "loadgen.timed.sent": "count",
    "loadgen.timed.succeeded": "count",
    "loadgen.timed.failed": "count",
    "loadgen.traced.sent": "count",
    "loadgen.traced.succeeded": "count",
    "loadgen.traced.failed": "count",
    "trace.overhead_p50_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.coverage": "ratio",
    "host.slowdown": "ratio",
}

WORKLOAD_NAMES = ("unique-views", "hot-gateway", "hw-replay")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker, if this run started one."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), SPANS_DIR
        )
    except workloads.CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1
    finally:
        stop_resource_tracker()

    for name, phase in outcome.phases.items():
        print(f"phase {name}: sent {phase.sent} succeeded {phase.succeeded} "
              f"failed {phase.failed} wall {phase.wall:.3f} s")
    for name, value in outcome.end_to_end.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(values) ^ set(units))}")
    measured = [p for name, p in outcome.phases.items() if name != "warmup"]
    print(result_line(
        True,
        sum(p.sent for p in measured),
        sum(p.failed for p in measured),
        {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
