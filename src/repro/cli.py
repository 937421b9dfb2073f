"""Command-line interface of the GauRast reproduction.

Eight subcommands cover the library's main flows::

    python -m repro evaluate [--algorithm original|optimized] [--scene NAME]
        Paper-scale baseline-vs-GauRast comparison (Table III / Figs. 10-11).

    python -m repro render [--gaussians N] [--width W] [--height H]
                           [--output image.ppm] [--save-scene scene.npz]
        Synthesise a scene, render it with the cycle-level hardware model,
        validate against the software renderer and optionally write outputs.

    python -m repro store [--scenes N] [--output store.npz] [--info PATH]
                          [--from PATH] [--shared] [--paged]
                          [--memory-budget BYTES]
        Build a multi-scene SceneStore archive of synthetic scenes, or
        inspect an existing archive (any format version, including the
        version-4 paged directory).  --paged writes --output as a paged
        directory instead of one .npz; --shared re-hosts the catalog in a
        shared-memory segment and reports it; the inspect output reports
        allocated capacity next to payload bytes.

    python -m repro compress [--store PATH] [--codec fp64|fp16|int8]
                             [--levels K] [--keep R] [--output out.npz]
                             [--info PATH] [--quality]
        Quantize a scene store into a CompressedSceneStore tier (.npz
        format v3) with K nested LOD levels, report per-level sizes and
        compression ratios, and optionally measure per-level PSNR.

    python -m repro serve [--requests N] [--store PATH] [--workers N]
                          [--traffic uniform|zipf|hotspot] [--seed N]
                          [--replicate-hot K] [--kill-at POS:WORKER[,..]]
                          [--lod] [--codec C] [--naive] [--hardware]
                          [--async] [--queue-depth N]
                          [--overload-policy block|shed-oldest|reject]
                          [--storage memory|shared|paged]
                          [--memory-budget BYTES]
        Serve a synthetic render-request trace through the RenderService
        (or, with --workers > 1, the sharded multi-process fleet) and report
        throughput, latency and cache statistics.  --seed makes the traffic
        deterministic, so a trace can be replayed exactly.  --lod serves
        from a compressed store with footprint-driven detail levels.
        --async fronts the service with the RenderGateway (in-flight
        coalescing, bounded admission queue, priority lanes) and reports
        coalesce/shed/reject counters plus queue-depth percentiles.
        --replicate-hot K makes the traffic model's hot scenes resident on
        K shards with load-aware routing, and --kill-at injects seeded
        worker deaths mid-stream (requeued, never lost) with a fault-
        accounting printout.  --storage serves from a residency tier:
        'shared' hosts one zero-copy catalog for every worker, 'paged'
        pages scenes from disk under a --memory-budget byte budget.

    python -m repro experiments [NAME ...]
        Run the experiment harness (all experiments by default).

    python -m repro validate [--fp16]
        Hardware-vs-software output validation sweep (Section V-A).

    python -m repro lint [PATH ...] [--format text|json|github]
                         [--rules ID,...] [--exclude NAME] [--list-rules]
        Run the AST-based invariant linter (repro.analysis) over the tree:
        async-blocking and async-state.  The flags are those of
        python -m repro.analysis, whose parser this subcommand adopts.
        Seeded replay, repr hygiene, resource lifetimes and cache keys
        are checked at run time by the test session or built by
        construction, not linted.
        Exits 0 when clean, 1 on findings, 2 on analyzer-internal errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.analysis.runner import build_parser as build_lint_parser
from repro.analysis.runner import run_arguments as run_lint_arguments
from repro.compression import (
    CODECS,
    CompressedSceneStore,
    DEFAULT_CODEC,
    DEFAULT_KEEP_RATIO,
    DEFAULT_LOD_LEVELS,
    load_store,
)
from repro.core.gaurast import GauRastSystem
from repro.datasets.nerf360 import SCENE_NAMES
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import fmt, format_table
from repro.gaussians.io import save_image_ppm, save_scene
from repro.gaussians.metrics import compare_images
from repro.gaussians.pipeline import render as functional_render
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.hardware.config import GauRastConfig, PROTOTYPE_CONFIG
from repro.hardware.fp import Precision
from repro.hardware.validation import validate_against_software
from repro.serving import (
    OVERLOAD_POLICIES,
    STORAGE_TIERS,
    TRAFFIC_PATTERNS,
    FailurePlan,
    PagedSceneStore,
    RenderGateway,
    RenderService,
    SceneStore,
    ShardedRenderService,
    generate_requests,
    host_store,
    popularity_priority,
    write_paged,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GauRast reproduction: models, experiments and rendering.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = subparsers.add_parser(
        "evaluate", help="paper-scale baseline vs GauRast comparison"
    )
    evaluate.add_argument(
        "--algorithm", choices=("original", "optimized"), default="original"
    )
    evaluate.add_argument(
        "--scene", choices=SCENE_NAMES, default=None,
        help="evaluate a single scene (default: all seven)",
    )

    render = subparsers.add_parser(
        "render", help="render a synthetic scene with the hardware model"
    )
    render.add_argument("--gaussians", type=int, default=800)
    render.add_argument("--width", type=int, default=160)
    render.add_argument("--height", type=int, default=120)
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--instances", type=int, default=4)
    render.add_argument("--output", default=None, help="write the image as PPM")
    render.add_argument("--save-scene", default=None, help="write the scene as .npz")

    store = subparsers.add_parser(
        "store", help="build or inspect a multi-scene SceneStore archive"
    )
    store.add_argument("--scenes", type=int, default=3,
                       help="number of synthetic scenes to build")
    store.add_argument("--gaussians", type=int, default=600,
                       help="Gaussians per scene")
    store.add_argument("--width", type=int, default=120)
    store.add_argument("--height", type=int, default=90)
    store.add_argument("--cameras", type=int, default=4,
                       help="viewpoints per scene")
    store.add_argument("--seed", type=int, default=0)
    store.add_argument("--output", default=None,
                       help="write the store as a .npz archive")
    store.add_argument("--info", default=None, metavar="PATH",
                       help="inspect an existing archive instead of building")
    store.add_argument("--from", dest="source", default=None, metavar="PATH",
                       help="load scenes from an existing archive (any format "
                            "version) instead of synthesising")
    store.add_argument("--shared", action="store_true",
                       help="re-host the catalog in a shared-memory segment "
                            "and report it (released on exit)")
    store.add_argument("--paged", action="store_true",
                       help="write --output as a version-4 paged directory "
                            "(the out-of-core tier) instead of one .npz")
    store.add_argument("--memory-budget", type=int, default=None,
                       metavar="BYTES",
                       help="resident-set byte budget when opening a paged "
                            "store")

    compress = subparsers.add_parser(
        "compress", help="quantize a scene store into a compressed LOD tier"
    )
    compress.add_argument("--store", default=None, metavar="PATH",
                          help="compress an existing archive "
                               "(default: synthesise scenes)")
    compress.add_argument("--scenes", type=int, default=3)
    compress.add_argument("--gaussians", type=int, default=600)
    compress.add_argument("--width", type=int, default=120)
    compress.add_argument("--height", type=int, default=90)
    compress.add_argument("--cameras", type=int, default=4)
    compress.add_argument("--seed", type=int, default=0)
    compress.add_argument("--codec", choices=CODECS, default=DEFAULT_CODEC,
                          help="quantization codec (fp64 = lossless tier)")
    compress.add_argument("--levels", type=int, default=DEFAULT_LOD_LEVELS,
                          help="LOD pyramid depth (level 0 = full detail)")
    compress.add_argument("--keep", type=float, default=DEFAULT_KEEP_RATIO,
                          help="fraction of Gaussians each level keeps "
                               "from the previous one")
    compress.add_argument("--output", default=None,
                          help="write the compressed tier (.npz format v3)")
    compress.add_argument("--info", default=None, metavar="PATH",
                          help="inspect an existing compressed archive "
                               "instead of building")
    compress.add_argument("--quality", action="store_true",
                          help="render each level against the original "
                               "and report PSNR/SSIM")

    serve = subparsers.add_parser(
        "serve", help="serve a render-request trace against a scene store"
    )
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="load scenes from an archive (default: synthesise)")
    serve.add_argument("--scenes", type=int, default=3)
    serve.add_argument("--gaussians", type=int, default=600)
    serve.add_argument("--width", type=int, default=120)
    serve.add_argument("--height", type=int, default=90)
    serve.add_argument("--cameras", type=int, default=4)
    serve.add_argument("--requests", type=int, default=60,
                       help="length of the synthetic request trace")
    serve.add_argument("--seed", type=int, default=0,
                       help="traffic seed; the same seed replays the exact "
                            "same request stream")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard the stream across N worker processes "
                            "with scene affinity (default: 1, in-process)")
    serve.add_argument("--replicate-hot", type=int, default=1, metavar="K",
                       help="make each hot scene (from the seeded traffic "
                            "popularity model) resident on K shards with "
                            "load-aware routing (needs --workers > 1)")
    serve.add_argument("--kill-at", default=None, metavar="POS:WORKER[,..]",
                       help="chaos injection: kill WORKER once POS requests "
                            "have been dispatched, e.g. 30:1,45:0 "
                            "(needs --workers > 1); in-flight requests are "
                            "requeued, no response is lost")
    serve.add_argument(
        "--traffic", choices=TRAFFIC_PATTERNS, default="uniform",
        help="scene-popularity skew of the synthetic trace",
    )
    serve.add_argument("--zipf-exponent", type=float, default=1.1,
                       help="popularity exponent of --traffic zipf")
    serve.add_argument("--hotspot-fraction", type=float, default=0.8,
                       help="share of requests hitting the hot scene "
                            "under --traffic hotspot")
    serve.add_argument("--lod", action="store_true",
                       help="serve from a compressed store with "
                            "footprint-driven detail levels")
    serve.add_argument("--codec", choices=CODECS, default=DEFAULT_CODEC,
                       dest="lod_codec", metavar="CODEC",
                       help="quantization codec used when --lod compresses "
                            "the store here")
    serve.add_argument("--lod-levels", type=int, default=DEFAULT_LOD_LEVELS,
                       help="LOD pyramid depth under --lod")
    serve.add_argument("--lod-keep", type=float, default=DEFAULT_KEEP_RATIO,
                       help="per-level keep fraction under --lod")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="serve through the asyncio RenderGateway: "
                            "in-flight request coalescing, a bounded "
                            "admission queue, and priority lanes")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission-queue bound of the async gateway")
    serve.add_argument("--overload-policy", choices=OVERLOAD_POLICIES,
                       default="block",
                       help="what a full gateway queue does to new "
                            "arrivals (block, shed-oldest, or reject)")
    serve.add_argument("--storage", choices=STORAGE_TIERS, default="memory",
                       help="residency tier to serve from: 'shared' hosts "
                            "one zero-copy catalog for all workers, 'paged' "
                            "pages scenes from disk under a byte budget")
    serve.add_argument("--memory-budget", type=int, default=None,
                       metavar="BYTES",
                       help="resident-set byte budget of the paged tier")
    serve.add_argument("--naive", action="store_true",
                       help="also time the naive per-request render loop")
    serve.add_argument("--hardware", action="store_true",
                       help="replay the trace on the cycle-level hardware model")

    experiments = subparsers.add_parser(
        "experiments", help="run the table/figure experiment harness"
    )
    experiments.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"experiments to run (default: all). Known: {', '.join(ALL_EXPERIMENTS)}",
    )

    validate = subparsers.add_parser(
        "validate", help="hardware-vs-software output validation"
    )
    validate.add_argument("--fp16", action="store_true",
                          help="validate the FP16 datapath instead of FP32")
    validate.add_argument("--scenes", type=int, default=2,
                          help="number of random Gaussian scenes")

    lint_parser = build_lint_parser()
    subparsers.add_parser(
        "lint", parents=[lint_parser], add_help=False,
        help="run the AST-based invariant linter (repro.analysis)",
        description=lint_parser.description,
    )
    return parser


def _command_evaluate(args: argparse.Namespace) -> int:
    system = GauRastSystem()
    if args.scene:
        evaluations = [system.evaluate_scene(args.scene, args.algorithm)]
    else:
        evaluations = system.evaluate_all(args.algorithm)

    headers = [
        "Scene", "Baseline raster (ms)", "GauRast raster (ms)", "Speedup",
        "Energy eff.", "Baseline FPS", "GauRast FPS",
    ]
    rows = []
    for evaluation in evaluations:
        raster = evaluation.rasterization
        end_to_end = evaluation.end_to_end
        rows.append(
            (
                evaluation.scene_name,
                fmt(raster.baseline_time_s * 1e3, 1),
                fmt(raster.gaurast_time_s * 1e3, 1),
                fmt(raster.speedup, 1) + "x",
                fmt(raster.energy_improvement, 1) + "x",
                fmt(end_to_end.baseline_fps, 1),
                fmt(end_to_end.gaurast_fps, 1),
            )
        )
    print(f"algorithm: {args.algorithm}")
    print(format_table(headers, rows))
    if len(evaluations) > 1:
        mean_speedup = sum(e.rasterization.speedup for e in evaluations) / len(evaluations)
        mean_fps = sum(e.end_to_end.gaurast_fps for e in evaluations) / len(evaluations)
        print(f"mean rasterization speedup {mean_speedup:.1f}x, "
              f"mean FPS with GauRast {mean_fps:.1f}")
    return 0


def _command_render(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        num_gaussians=args.gaussians, width=args.width, height=args.height,
        seed=args.seed,
    )
    scene = make_synthetic_scene(config, name="cli-scene")
    start = time.perf_counter()
    software = functional_render(scene)
    software_seconds = time.perf_counter() - start

    system = GauRastSystem(config=GauRastConfig(num_instances=args.instances))
    image, report = system.render(scene)
    comparison = compare_images(software.image, image)
    print(f"rendered {scene.num_gaussians} Gaussians at {args.width}x{args.height} "
          f"in {report.frame_cycles} cycles on {args.instances} instances")
    print(f"functional render: {software_seconds * 1e3:.1f} ms")
    print(f"validation vs software renderer: max |err| = "
          f"{comparison.max_abs_error:.2e}, SSIM = {comparison.ssim:.4f}")

    if args.save_scene:
        path = save_scene(scene, args.save_scene)
        print(f"scene written to {path}")
    if args.output:
        path = save_image_ppm(np.clip(image, 0.0, 1.0), args.output)
        print(f"image written to {path}")
    return 0


def _build_store(args: argparse.Namespace) -> SceneStore:
    """Synthesise a store of small multi-camera scenes from CLI arguments."""
    store = SceneStore()
    for index in range(args.scenes):
        config = SyntheticConfig(
            num_gaussians=args.gaussians, width=args.width, height=args.height,
            seed=args.seed + index,
        )
        store.add_scene(
            make_synthetic_scene(
                config, name=f"scene-{index}", num_cameras=args.cameras
            )
        )
    return store


def _print_store_summary(store: SceneStore) -> None:
    headers = ["#", "Scene", "Gaussians", "Cameras", "SH coeffs", "KiB"]
    rows = []
    for index in range(len(store)):
        scene = store.get_scene(index)
        rows.append(
            (
                str(index),
                scene.name,
                str(scene.num_gaussians),
                str(len(scene.cameras)),
                str(scene.cloud.sh_coeffs.shape[1]),
                fmt(store.scene_nbytes(index) / 1024.0, 1),
            )
        )
    print(format_table(headers, rows))
    print(f"total: {len(store)} scenes, {store.num_gaussians} Gaussians, "
          f"{store.num_cameras} cameras, {store.nbytes / 1024.0:.1f} KiB payload")
    print(f"memory: {store.capacity_bytes / 1024.0:.1f} KiB allocated for "
          f"{store.nbytes / 1024.0:.1f} KiB payload")
    if isinstance(store, PagedSceneStore):
        budget = store.memory_budget
        budget_text = "unbounded" if budget is None else f"{budget / 1024.0:.1f} KiB"
        print(f"paged tier: {store.resident_bytes / 1024.0:.1f} KiB resident "
              f"(budget {budget_text}) from {store.path}")


def _command_store(args: argparse.Namespace) -> int:
    if args.info:
        store = load_store(args.info)
        print(f"archive: {args.info}")
    elif args.source:
        store = load_store(args.source)
        print(f"source: {args.source}")
    else:
        store = _build_store(args)
    if args.memory_budget is not None and isinstance(store, PagedSceneStore):
        store = PagedSceneStore(store.path, memory_budget=args.memory_budget)
    _print_store_summary(store)
    if args.shared:
        try:
            with host_store(store, "shared") as lease:
                hosted = lease.store
                print(f"shared segment: {hosted.segment_name} "
                      f"({hosted.segment_bytes} bytes, unlinked on exit)")
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.output:
        if args.paged:
            path = write_paged(store, args.output)
            print(f"paged store written to {path}")
        else:
            path = store.save(args.output)
            print(f"store written to {path}")
    return 0


def _print_compressed_summary(store: CompressedSceneStore) -> None:
    """Print the per-scene, per-level breakdown of a compressed tier."""
    headers = ["#", "Scene", "Codec", "Levels (Gaussians)", "KiB", "Ratio"]
    rows = []
    for index in range(len(store)):
        sizes = " > ".join(str(s) for s in store.level_sizes(index))
        raw = store.scene_raw_nbytes(index)
        compressed = store.scene_nbytes(index)
        rows.append(
            (
                str(index),
                store.names[index],
                store.codec,
                sizes,
                fmt(compressed / 1024.0, 1),
                fmt(raw / max(compressed, 1), 1) + "x",
            )
        )
    print(format_table(headers, rows))
    print(f"total: {len(store)} scenes, {store.num_gaussians} Gaussians, "
          f"{store.nbytes / 1024.0:.1f} KiB payload, "
          f"cloud compression {store.compression_ratio:.1f}x")


def _print_level_quality(store: CompressedSceneStore, original=None) -> None:
    """Render every level of every scene and report quality vs a reference.

    ``original`` is the uncompressed store the tier was built from, so the
    comparison covers the codec's own loss too; without it (inspecting an
    archive whose original is gone) the stored full-detail representation
    is the best available reference, and level 0 is exact by construction.
    """
    headers = ["Level", "Gaussians", "Min PSNR (dB)", "Min SSIM"]
    max_levels = max(store.num_levels(i) for i in range(len(store)))
    references = {}
    for index in range(len(store)):
        cameras = store.get_cameras(index)
        if not cameras:
            continue
        reference_scene = (
            original.get_scene(index) if original is not None
            else store.get_scene(index, 0)
        )
        references[index] = functional_render(
            reference_scene, camera=cameras[0]
        ).image
    rows = []
    for level in range(max_levels):
        psnrs, ssims, counts = [], [], 0
        for index, reference in references.items():
            if level >= store.num_levels(index):
                continue
            test = functional_render(
                store.get_scene(index, level),
                camera=store.get_cameras(index)[0],
            )
            comparison = compare_images(reference, test.image)
            psnrs.append(comparison.psnr_db)
            ssims.append(comparison.ssim)
            counts += store.level_sizes(index)[level]
        if not psnrs:
            continue
        min_psnr = min(psnrs)
        rows.append(
            (
                str(level),
                str(counts),
                "inf" if min_psnr == float("inf") else fmt(min_psnr, 1),
                fmt(min(ssims), 4),
            )
        )
    against = (
        "the original uncompressed scenes" if original is not None
        else "the stored full-detail representation"
    )
    print(f"quality vs {against} (worst over scenes, first camera):")
    print(format_table(headers, rows))


def _command_compress(args: argparse.Namespace) -> int:
    original = None
    if args.info:
        store = CompressedSceneStore.load(args.info)
        print(f"archive: {args.info}")
    else:
        if args.store:
            original = load_store(args.store)
        else:
            original = _build_store(args)
        store = CompressedSceneStore.from_store(
            original, codec=args.codec, levels=args.levels, keep_ratio=args.keep
        )
    _print_compressed_summary(store)
    if args.quality:
        _print_level_quality(store, original=original)
    if args.output:
        path = store.save(args.output)
        print(f"compressed store written to {path}")
    return 0


def _parse_kill_plan(spec: str) -> FailurePlan:
    """Parse ``--kill-at POS:WORKER[,POS:WORKER...]`` into a FailurePlan."""
    kills = []
    for part in spec.split(","):
        position, _, worker = part.partition(":")
        if not worker:
            raise ValueError(
                f"bad --kill-at entry {part!r}; expected POS:WORKER"
            )
        kills.append((int(position), int(worker)))
    return FailurePlan.at(*kills)


def _command_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if args.replicate_hot < 1:
        print("--replicate-hot must be at least 1", file=sys.stderr)
        return 2
    fleet_flags = args.replicate_hot > 1 or args.kill_at is not None
    if fleet_flags and args.workers < 2:
        print("--replicate-hot/--kill-at need --workers > 1",
              file=sys.stderr)
        return 2
    if args.kill_at is not None and args.use_async:
        print("--kill-at drives the fleet dispatcher directly; "
              "it cannot be combined with --async", file=sys.stderr)
        return 2
    failure_plan = None
    if args.kill_at is not None:
        try:
            failure_plan = _parse_kill_plan(args.kill_at)
            for _, worker in failure_plan.kills:
                if worker >= args.workers:
                    raise ValueError(
                        f"--kill-at targets worker {worker}, but there are "
                        f"only {args.workers}"
                    )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.store:
        store = load_store(args.store)
    else:
        store = _build_store(args)
    lod_policy = None
    if args.lod:
        if not isinstance(store, CompressedSceneStore):
            store = CompressedSceneStore.from_store(
                store, codec=args.lod_codec, levels=args.lod_levels,
                keep_ratio=args.lod_keep,
            )
        lod_policy = "footprint"
    lease = None
    if args.storage != "memory":
        try:
            lease = host_store(
                store, args.storage, memory_budget=args.memory_budget
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        store = lease.store
    trace = generate_requests(
        store, args.requests, pattern=args.traffic, seed=args.seed,
        zipf_exponent=args.zipf_exponent,
        hotspot_fraction=args.hotspot_fraction,
    )
    print(f"serving {len(trace)} requests over {len(store)} scenes "
          f"({store.num_cameras} viewpoints, traffic={args.traffic}, "
          f"seed={args.seed}, workers={args.workers}"
          + (f", storage={args.storage}" if args.storage != "memory" else "")
          + (", async gateway" if args.use_async else "") + ")")

    gateway = None
    if args.workers > 1:
        hot_scenes = None
        if args.replicate_hot > 1:
            # Hot set from the same seeded popularity model the trace was
            # drawn from, so replication targets the scenes that are
            # actually hot in this stream.
            hot_scenes = popularity_priority(
                store, pattern=args.traffic, seed=args.seed,
                zipf_exponent=args.zipf_exponent,
                hotspot_fraction=args.hotspot_fraction,
            )
        service = ShardedRenderService(
            store, num_workers=args.workers, lod_policy=lod_policy,
            replication=args.replicate_hot, hot_scenes=hot_scenes,
        )
    else:
        service = RenderService(store, lod_policy=lod_policy)
    try:
        if args.use_async:
            priority_of = None
            if args.traffic != "uniform":
                # Hotspot/zipf traffic rides priority lanes derived from
                # the same seeded popularity model the trace was drawn from.
                priority_of = popularity_priority(
                    store, pattern=args.traffic, seed=args.seed,
                    zipf_exponent=args.zipf_exponent,
                    hotspot_fraction=args.hotspot_fraction,
                )
            gateway = RenderGateway(
                service, queue_depth=args.queue_depth,
                overload_policy=args.overload_policy,
                priority_of=priority_of,
            )
            report = gateway.serve(trace)
            print(f"gateway: {report.num_completed}/{report.num_requests} "
                  f"requests completed, coalesce rate "
                  f"{report.coalesce_rate:.0%}, {report.num_shed} shed, "
                  f"{report.num_rejected} rejected, "
                  f"{report.num_expired} expired "
                  f"(policy {report.overload_policy}, "
                  f"depth {report.queue_depth})")
            print(f"queue depth p50 "
                  f"{report.queue_depth_percentile(50):.0f}, p95 "
                  f"{report.queue_depth_percentile(95):.0f} over "
                  f"{len(report.queue_depth_samples)} admissions")
        elif args.workers > 1:
            report = service.serve(trace, failure_plan=failure_plan)
        else:
            report = service.serve(trace)
        _print_serve_report(args, store, report)

        if args.naive:
            start = time.perf_counter()
            for request in trace:
                functional_render(
                    store.get_scene(request.scene_id), camera=request.camera,
                    collect_stats=True,
                )
            naive_seconds = time.perf_counter() - start
            naive_rps = len(trace) / naive_seconds
            print(f"naive per-request loop: {naive_seconds * 1e3:.1f} ms "
                  f"({naive_rps:.1f} req/s); serving layer is "
                  f"{report.requests_per_second / naive_rps:.1f}x faster")

        if args.hardware:
            system = GauRastSystem()
            if gateway is not None:
                evaluation = system.evaluate_trace(store, trace, gateway=gateway)
            else:
                evaluation = system.evaluate_trace(
                    store, trace, workers=args.workers, lod_policy=lod_policy,
                )
            print(f"hardware model: {evaluation.served_cycles} cycles served "
                  f"vs {evaluation.naive_cycles} naive "
                  f"({evaluation.hardware_speedup:.1f}x fewer cycles, "
                  f"{evaluation.requests_per_second:.0f} req/s at "
                  f"{system.config.clock_hz / 1e6:.0f} MHz)")
            if args.lod and len(evaluation.frames_by_level) > 1:
                for level in sorted(evaluation.frames_by_level):
                    mean_cycles = evaluation.mean_cycles_per_frame_by_level[level]
                    traffic = evaluation.traffic_by_level[level]
                    frames = evaluation.frames_by_level[level]
                    print(f"  level {level}: {frames} distinct frames, "
                          f"{mean_cycles:.0f} cycles/frame, "
                          f"{traffic / 1024.0:.0f} KiB traffic")
    finally:
        if args.workers > 1:
            service.close()
        if lease is not None:
            if isinstance(store, PagedSceneStore):
                stats = store.resident_stats()
                budget = store.memory_budget
                budget_text = (
                    "unbounded" if budget is None
                    else f"{budget / 1024.0:.0f} KiB"
                )
                print(f"paged tier: {store.resident_bytes / 1024.0:.1f} KiB "
                      f"resident (budget {budget_text}), "
                      f"{stats.evictions} evictions")
            lease.close()
    return 0


def _print_serve_report(args: argparse.Namespace, store, report) -> None:
    """Shared throughput/latency/cache printout of the serve subcommand."""
    print(f"served {report.num_requests} requests in "
          f"{report.wall_seconds * 1e3:.1f} ms: "
          f"{report.requests_per_second:.1f} req/s, "
          f"{report.num_batches} batches, "
          f"{report.num_cache_hits} requests answered by memoization")
    print(f"latency: p50 {report.latency_percentile(50) * 1e3:.1f} ms, "
          f"mean {report.mean_latency_s * 1e3:.1f} ms, "
          f"p95 {report.latency_percentile(95) * 1e3:.1f} ms, "
          f"max {report.max_latency_s * 1e3:.1f} ms")
    frame_cache = report.frame_cache
    print(f"frame cache: {frame_cache.entries} entries, "
          f"{frame_cache.current_bytes / 1024.0:.0f} KiB, "
          f"LRU hit rate across serve calls {frame_cache.hit_rate:.0%}")
    if args.lod:
        by_level = report.requests_by_level
        levels = ", ".join(
            f"L{level}: {count}" for level, count in sorted(by_level.items())
        )
        print(f"detail levels served (footprint policy): {levels}; "
              f"store compression {store.compression_ratio:.1f}x "
              f"({store.codec})")
    # Per-shard breakdown exists only for a direct fleet serve (a gateway
    # report aggregates its per-batch fleet reports away).
    if args.workers > 1 and hasattr(report, "shards"):
        for shard in report.shards:
            scenes = ",".join(str(i) for i in shard.scene_indices) or "-"
            print(f"  shard {shard.shard_id}: scenes [{scenes}], "
                  f"{shard.num_requests} requests, "
                  f"{shard.num_batches} batches, "
                  f"busy {shard.busy_seconds * 1e3:.1f} ms, "
                  f"utilization "
                  f"{report.utilization[shard.shard_id]:.0%}"
                  + ("" if shard.alive else " [dead]"))
        print(f"fleet critical path {report.critical_path_seconds * 1e3:.1f} ms "
              f"-> {report.modeled_requests_per_second:.1f} req/s "
              f"with one core per worker")
        if report.killed or report.requeued or report.placement:
            print(f"fault accounting: {report.dispatched} dispatched = "
                  f"{report.num_requests} completed + "
                  f"{report.requeued} requeued; "
                  f"killed {list(report.killed) or '[]'}, "
                  f"{report.respawned} respawned")
            for event in report.placement:
                print(f"  @{event.position}: {event.kind} "
                      f"on shard {event.shard}")


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as run_experiments

    return run_experiments(args.names)


def _command_validate(args: argparse.Namespace) -> int:
    config = PROTOTYPE_CONFIG
    if args.fp16:
        config = config.with_precision(Precision.FP16)
    report = validate_against_software(config, num_gaussian_scenes=args.scenes)
    for case in report.cases:
        comparison = case.comparison
        psnr_text = "inf" if comparison.psnr_db == float("inf") else f"{comparison.psnr_db:.1f}"
        print(f"{case.name:<22s} {case.primitive_type:<9s} "
              f"PSNR {psnr_text:>6s} dB  SSIM {comparison.ssim:.4f}  "
              f"{'pass' if case.passed else 'FAIL'}")
    print(f"overall: {'pass' if report.all_passed else 'FAIL'} "
          f"({config.precision.value})")
    return 0 if report.all_passed or args.fp16 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "evaluate": _command_evaluate,
        "render": _command_render,
        "store": _command_store,
        "compress": _command_compress,
        "serve": _command_serve,
        "experiments": _command_experiments,
        "validate": _command_validate,
        "lint": run_lint_arguments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
