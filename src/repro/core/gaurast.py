"""GauRastSystem: the top-level API tying the whole reproduction together.

A :class:`GauRastSystem` owns a baseline platform model (the Jetson Orin NX
by default), a GauRast hardware configuration, the energy model and the
CUDA-collaborative schedule.  It answers the questions the paper's
evaluation asks:

* ``evaluate_scene(name, algorithm)`` — paper-scale, descriptor-driven
  comparison: baseline vs GauRast rasterization runtime and energy plus
  end-to-end FPS (Table III, Figs. 10 and 11).
* ``evaluate_all(algorithm)`` — the same over all seven NeRF-360 scenes.
* ``render(scene)`` — cycle-level simulation of an actual (scaled-down)
  :class:`~repro.gaussians.scene.GaussianScene` through the full pipeline
  with the hardware model executing Stage 3; returns the image and the
  frame report, and is validated against the functional renderer.
* ``evaluate_trace(store, requests)`` — serve a render-request trace
  through the serving layer (optionally sharded across ``workers``
  processes) and replay every distinct frame on the cycle-level model.

Usage::

    from repro.core import GauRastSystem
    from repro.serving import SceneStore, generate_requests

    system = GauRastSystem()
    print(system.summary("optimized"))          # paper headline numbers

    store = SceneStore([scene_a, scene_b])
    trace = generate_requests(store, 60, pattern="zipf")
    evaluation = system.evaluate_trace(store, trace, workers=4)
    evaluation.hardware_speedup                  # memoization, in cycles
    evaluation.service.requests_per_second       # functional fleet throughput
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.baselines.jetson import JetsonOrinNX
from repro.core.metrics import (
    EndToEndComparison,
    RasterizationComparison,
    SceneEvaluation,
)
from repro.datasets.nerf360 import SceneDescriptor, get_scene, iter_scenes
from repro.gaussians.pipeline import render as functional_render
from repro.gaussians.pipeline import render_batch as functional_render_batch
from repro.gaussians.scene import GaussianScene
from repro.hardware.config import GauRastConfig, SCALED_CONFIG
from repro.hardware.multi import FrameReport, ScaledGauRast
from repro.hardware.power import EnergyModel
from repro.profiling.workload import WorkloadStatistics
from repro.scheduling.collaborative import schedule_frames
from repro.serving.gateway import GatewayReport, RenderGateway
from repro.serving.service import RenderRequest, RenderService, ServiceReport
from repro.serving.sharded import FleetReport, ShardedRenderService
from repro.serving.storage import host_store
from repro.serving.store import SceneStore


@dataclass
class TraceEvaluation:
    """Hardware-model evaluation of a served render-request trace.

    The functional serving layer answers repeated (scene, camera) requests
    from its frame cache; the hardware model mirrors that: each *distinct*
    frame of the trace is simulated once at cycle level, and cache hits cost
    no rasterizer cycles.  ``naive_cycles`` is the counterfactual where every
    request pays its frame's full cost.

    Attributes
    ----------
    service:
        The functional serving report (images, latencies, cache stats) — a
        :class:`~repro.serving.service.ServiceReport` for a single worker, a
        :class:`~repro.serving.sharded.FleetReport` for a sharded serve, or
        a :class:`~repro.serving.gateway.GatewayReport` for a serve through
        the async gateway (in which case shed/rejected/expired requests,
        having produced no frame, are excluded from the hardware replay).
    frame_reports:
        Cycle-level report of each distinct frame, aligned with
        ``service.responses`` via ``request_cycles``.
    request_cycles:
        Per-request hardware cycles of the frame answering it.
    config:
        Hardware configuration the trace was evaluated against.
    frame_levels:
        Detail level of each distinct frame, aligned with
        ``frame_reports`` (all zeros for a serve without LOD).
    """

    service: Union[ServiceReport, FleetReport, GatewayReport]
    frame_reports: List[FrameReport]
    request_cycles: List[int]
    config: GauRastConfig
    frame_levels: List[int] = field(default_factory=list)

    @property
    def served_cycles(self) -> int:
        """Total rasterizer cycles with frame memoization (distinct frames)."""
        return sum(report.frame_cycles for report in self.frame_reports)

    @property
    def naive_cycles(self) -> int:
        """Total rasterizer cycles if every request were rendered afresh."""
        return sum(self.request_cycles)

    @property
    def hardware_speedup(self) -> float:
        """Cycle-count ratio of the naive loop over the serving layer."""
        if self.served_cycles == 0:
            return 1.0
        return self.naive_cycles / self.served_cycles

    @property
    def requests_per_second(self) -> float:
        """Requests the hardware sustains per second at the configured clock.

        Counts the requests that actually received a frame (for a gateway
        serve, drops cost no cycles and earn no throughput).
        """
        if self.served_cycles == 0:
            return float("inf")
        seconds = self.served_cycles / self.config.clock_hz
        return len(self.request_cycles) / seconds

    def _by_level(self, value_of) -> Dict[int, float]:
        """Aggregate a per-frame quantity over the frames of each level."""
        totals: Dict[int, float] = {}
        levels = self.frame_levels or [0] * len(self.frame_reports)
        for level, report in zip(levels, self.frame_reports):
            totals[level] = totals.get(level, 0) + value_of(report)
        return totals

    @property
    def cycles_by_level(self) -> Dict[int, int]:
        """Rasterizer cycles of the distinct frames, per detail level.

        Quantifies what each LOD tier costs in *hardware* terms: coarser
        levels rasterize fewer Gaussians, so their per-frame cycle counts
        drop relative to level 0 (compare against ``frames_by_level`` for
        per-frame deltas).
        """
        return self._by_level(lambda report: report.frame_cycles)

    @property
    def traffic_by_level(self) -> Dict[int, int]:
        """Memory-interface traffic bytes of the distinct frames, per level.

        The bandwidth half of the LOD argument: pruned levels move fewer
        per-Gaussian operand bundles through the memory interface.
        """
        return self._by_level(lambda report: report.traffic_bytes)

    @property
    def frames_by_level(self) -> Dict[int, int]:
        """Distinct frames simulated per detail level."""
        return self._by_level(lambda report: 1)

    @property
    def mean_cycles_per_frame_by_level(self) -> Dict[int, float]:
        """Average rasterizer cycles of one frame at each detail level."""
        frames = self.frames_by_level
        return {
            level: cycles / frames[level]
            for level, cycles in self.cycles_by_level.items()
        }


@dataclass
class GauRastSystem:
    """The GauRast-enhanced SoC model.

    Attributes
    ----------
    config:
        Hardware configuration of the enhanced rasterizer (defaults to the
        scaled 15-instance design used in the paper's SoC evaluation).
    baseline:
        Baseline platform whose CUDA cores run Stages 1-2 (and, for the
        comparison, the unaccelerated Stage 3).
    """

    config: GauRastConfig = field(default_factory=lambda: SCALED_CONFIG)
    baseline: JetsonOrinNX = field(default_factory=JetsonOrinNX)

    def __post_init__(self) -> None:
        self.rasterizer = ScaledGauRast(self.config)
        self.energy_model = EnergyModel(self.config)

    # ------------------------------------------------------------------ #
    # Paper-scale evaluation (descriptor-driven)
    # ------------------------------------------------------------------ #
    def evaluate_workload(self, workload: WorkloadStatistics) -> SceneEvaluation:
        """Evaluate one workload: baseline vs GauRast, runtime and energy."""
        stage_times = self.baseline.stage_times(workload)
        estimate = self.rasterizer.estimate(workload)

        baseline_raster_time = stage_times.rasterize
        gaurast_raster_time = estimate.runtime_seconds
        baseline_energy = self.baseline.rasterization_energy(workload)
        gaurast_energy = self.energy_model.frame_energy_j(estimate)

        rasterization = RasterizationComparison(
            scene_name=workload.scene_name,
            algorithm=workload.algorithm,
            baseline_time_s=baseline_raster_time,
            gaurast_time_s=gaurast_raster_time,
            baseline_energy_j=baseline_energy,
            gaurast_energy_j=gaurast_energy,
        )

        schedule = schedule_frames(stage_times.non_rasterize, gaurast_raster_time)
        end_to_end = EndToEndComparison(
            scene_name=workload.scene_name,
            algorithm=workload.algorithm,
            baseline_frame_time_s=stage_times.total,
            gaurast_frame_interval_s=schedule.steady_state_interval,
            gaurast_frame_latency_s=schedule.frame_latency,
        )
        return SceneEvaluation(
            workload=workload,
            stage_times=stage_times,
            rasterization=rasterization,
            end_to_end=end_to_end,
            estimate=estimate,
        )

    def evaluate_scene(
        self,
        scene: Union[str, SceneDescriptor],
        algorithm: str = "original",
    ) -> SceneEvaluation:
        """Evaluate one NeRF-360 scene by name or descriptor."""
        descriptor = scene if isinstance(scene, SceneDescriptor) else get_scene(scene)
        workload = WorkloadStatistics.from_descriptor(descriptor, algorithm)
        return self.evaluate_workload(workload)

    def evaluate_all(self, algorithm: str = "original") -> List[SceneEvaluation]:
        """Evaluate all seven NeRF-360 scenes with one algorithm."""
        return [
            self.evaluate_scene(descriptor, algorithm) for descriptor in iter_scenes()
        ]

    def summary(self, algorithm: str = "original") -> Dict[str, float]:
        """Average headline metrics over all scenes (the paper's key numbers)."""
        evaluations = self.evaluate_all(algorithm)
        count = len(evaluations)
        return {
            "mean_raster_speedup": sum(
                e.rasterization.speedup for e in evaluations
            )
            / count,
            "mean_energy_improvement": sum(
                e.rasterization.energy_improvement for e in evaluations
            )
            / count,
            "mean_baseline_fps": sum(e.end_to_end.baseline_fps for e in evaluations)
            / count,
            "mean_gaurast_fps": sum(e.end_to_end.gaurast_fps for e in evaluations)
            / count,
            "mean_end_to_end_speedup": sum(
                e.end_to_end.speedup for e in evaluations
            )
            / count,
        }

    # ------------------------------------------------------------------ #
    # Cycle-level rendering of actual scenes
    # ------------------------------------------------------------------ #
    def render(
        self,
        scene: GaussianScene,
        camera=None,
        background=(0.0, 0.0, 0.0),
    ) -> tuple[np.ndarray, FrameReport]:
        """Render a scene with the hardware model executing Stage 3.

        Stages 1-2 run through the functional pipeline (they stay on the
        CUDA cores in the real system); Stage 3 runs on the cycle-level
        multi-instance simulator.
        """
        result = functional_render(
            scene,
            camera=camera,
            background=background,
            collect_stats=False,
        )
        return self.rasterizer.simulate_frame(
            result.projected, result.binning, background=background
        )

    def render_batch(
        self,
        scene: GaussianScene,
        cameras=None,
        background=(0.0, 0.0, 0.0),
    ) -> List[tuple[np.ndarray, FrameReport]]:
        """Render several viewpoints through the hardware model.

        The software stages run through the batched functional pipeline
        (:func:`repro.gaussians.pipeline.render_batch`, sharing scene-level
        preprocessing), then each frame's tile lists are replayed on the
        cycle-level simulator.
        """
        batch = functional_render_batch(
            scene,
            cameras=cameras,
            background=background,
            collect_stats=False,
        )
        return [
            self.rasterizer.simulate_frame(
                result.projected, result.binning, background=background
            )
            for result in batch.results
        ]

    # ------------------------------------------------------------------ #
    # Request-trace serving through the hardware model
    # ------------------------------------------------------------------ #
    def evaluate_trace(
        self,
        store: SceneStore,
        requests: List[RenderRequest],
        background=(0.0, 0.0, 0.0),
        service: Optional[Union[RenderService, ShardedRenderService]] = None,
        workers: Optional[int] = None,
        lod_policy=None,
        gateway: Optional[RenderGateway] = None,
        replication: int = 1,
        hot_scenes=None,
        failure_plan=None,
        storage: Optional[str] = None,
        memory_budget: Optional[int] = None,
    ) -> TraceEvaluation:
        """Serve a request trace and replay it on the hardware model.

        The trace is first served functionally through a
        :class:`~repro.serving.service.RenderService` (same-scene batching
        plus covariance/frame memoization) — or, with ``workers`` > 1, a
        :class:`~repro.serving.sharded.ShardedRenderService` fleet — then
        every distinct frame's tile lists are replayed on the cycle-level
        multi-instance simulator.  The result quantifies what the serving
        layer buys in *hardware* terms: total rasterizer cycles with and
        without frame memoization, and the request throughput the
        accelerator sustains at its clock.  Sharded and single-worker serves
        produce bit-identical frames, so the hardware replay is unaffected
        by ``workers``; it changes only the functional report attached to
        the evaluation.

        With a LOD-tiered store (and a ``lod_policy`` or explicit request
        levels), each distinct frame is simulated at the level it was
        served, and ``cycles_by_level`` / ``traffic_by_level`` report the
        hardware cost deltas between detail levels.

        When an existing ``service`` is passed (single-worker or sharded),
        its own background governs both the functional serve and the
        hardware replay; the ``background``/``workers``/``lod_policy``
        arguments apply only when the service is created here.  A
        ``gateway`` (mutually exclusive with ``service``) serves the trace
        through the async front end instead — coalescing and
        batching change nothing in the replay because frames stay
        bit-identical, but overload drops (shed/rejected/expired requests)
        produced no frame and are therefore excluded from it.

        ``replication``/``hot_scenes`` configure hot-scene
        replication on a fleet created here (``workers`` > 1), and
        ``failure_plan`` injects seeded worker deaths into the sharded
        serve (see :class:`~repro.serving.traffic.FailurePlan`) — requeued
        requests still produce exactly one response each, and frames stay
        bit-identical, so the hardware replay is again unaffected.

        ``storage`` re-hosts the catalog on a residency tier before
        serving (``"shared"`` / ``"paged"``, see
        :func:`~repro.serving.storage.host_store`); ``memory_budget``
        bounds the paged tier's resident set.  Tiers serve the same bytes,
        so frames — and therefore the whole hardware replay — stay
        bit-identical across ``storage`` choices.  The tier lives only for
        the duration of the call and applies only when the service is
        created here.
        """
        if gateway is not None and service is not None:
            raise ValueError("pass either service= or gateway=, not both")
        lease = None
        if storage not in (None, "memory"):
            if service is not None or gateway is not None:
                raise ValueError(
                    "storage= applies only when evaluate_trace creates the "
                    "service; re-host the store before building one yourself"
                )
            lease = host_store(store, storage, memory_budget=memory_budget)
            store = lease.store
        owned_service = None
        if gateway is not None:
            service = gateway.service
        elif service is None:
            if workers is not None and workers > 1:
                service = owned_service = ShardedRenderService(
                    store, num_workers=workers, background=background,
                    collect_stats=False, lod_policy=lod_policy,
                    replication=replication,
                    hot_scenes=hot_scenes,
                )
            else:
                service = RenderService(
                    store, background=background,
                    collect_stats=False, lod_policy=lod_policy,
                )
        # The replay must composite over the same background the served
        # frames used, or the two image sets would disagree.
        background = service.background
        try:
            if gateway is not None:
                report = gateway.serve(requests)
                served_responses = [r for r in report.responses if r.ok]
            elif failure_plan is not None:
                if not isinstance(service, ShardedRenderService):
                    raise ValueError(
                        "failure_plan needs a sharded service (workers > 1)"
                    )
                report = service.serve(requests, failure_plan=failure_plan)
                served_responses = report.responses
            else:
                report = service.serve(requests)
                served_responses = report.responses
        finally:
            if owned_service is not None:
                owned_service.close()
            if lease is not None:
                lease.close()

        distinct: Dict[tuple, FrameReport] = {}
        frame_levels: Dict[tuple, int] = {}
        request_cycles: List[int] = []
        for response in served_responses:
            frame = distinct.get(response.frame_key)
            if frame is None:
                _, frame = self.rasterizer.simulate_frame(
                    response.result.projected,
                    response.result.binning,
                    background=background,
                )
                distinct[response.frame_key] = frame
                frame_levels[response.frame_key] = response.level
            request_cycles.append(frame.frame_cycles)
        return TraceEvaluation(
            service=report,
            frame_reports=list(distinct.values()),
            request_cycles=request_cycles,
            config=self.config,
            frame_levels=list(frame_levels.values()),
        )
