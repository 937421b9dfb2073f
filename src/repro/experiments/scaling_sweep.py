"""Ablation: sweep of the GauRast instance count.

The paper sizes the scaled design to 15 instances of the 16-PE module so
that it matches the effective area of the SoC's existing triangle-rasterizer
units.  This sweep varies the instance count and reports the resulting
rasterization speedup, end-to-end FPS and added area, showing where the
design point sits on the performance/area curve and where the end-to-end
frame rate saturates (once Stage 3 is no longer the bottleneck, adding
rasterizer instances stops helping — the motivation for the collaborative
schedule's balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baselines.jetson import JetsonOrinNX
from repro.datasets.nerf360 import get_scene
from repro.experiments.common import fmt, format_table
from repro.hardware.area import AreaModel
from repro.hardware.config import SCALED_CONFIG
from repro.hardware.multi import ScaledGauRast
from repro.hardware.power import EnergyModel
from repro.profiling.workload import WorkloadStatistics
from repro.scheduling.collaborative import steady_state_fps

#: Instance counts swept by default (the paper's design point is 15).
DEFAULT_INSTANCE_COUNTS = (1, 2, 4, 8, 15, 30)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of the instance-count sweep."""

    num_instances: int
    total_pes: int
    raster_time_ms: float
    raster_speedup: float
    end_to_end_fps: float
    added_area_mm2: float
    raster_energy_mj: float


@dataclass(frozen=True)
class ScalingSweepResult:
    """Result of the instance-count sweep on one scene."""

    scene: str
    baseline_raster_ms: float
    points: List[ScalingPoint]

    def point_for(self, num_instances: int) -> ScalingPoint:
        """Look up the sweep point with ``num_instances`` instances."""
        for point in self.points:
            if point.num_instances == num_instances:
                return point
        raise KeyError(f"no sweep point with {num_instances} instances")


def run(
    scene: str = "bicycle",
    algorithm: str = "original",
    instance_counts: Sequence[int] = DEFAULT_INSTANCE_COUNTS,
) -> ScalingSweepResult:
    """Sweep the instance count for one scene."""
    descriptor = get_scene(scene)
    workload = WorkloadStatistics.from_descriptor(descriptor, algorithm)
    baseline = JetsonOrinNX()
    stage_times = baseline.stage_times(workload)

    points = []
    for count in instance_counts:
        config = SCALED_CONFIG.with_instances(count)
        estimate = ScaledGauRast(config).estimate(workload)
        energy = EnergyModel(config).frame_energy_j(estimate)
        raster_time = estimate.runtime_seconds
        points.append(
            ScalingPoint(
                num_instances=count,
                total_pes=config.total_pes,
                raster_time_ms=raster_time * 1e3,
                raster_speedup=stage_times.rasterize / raster_time,
                end_to_end_fps=steady_state_fps(stage_times.non_rasterize, raster_time),
                added_area_mm2=AreaModel(config).enhanced_area_mm2(),
                raster_energy_mj=energy * 1e3,
            )
        )
    return ScalingSweepResult(
        scene=scene,
        baseline_raster_ms=stage_times.rasterize * 1e3,
        points=points,
    )


def format_result(result: ScalingSweepResult) -> str:
    """Render the sweep as text."""
    headers = [
        "Instances",
        "PEs",
        "Raster (ms)",
        "Speedup",
        "End-to-end FPS",
        "Added area (mm^2)",
        "Raster energy (mJ)",
    ]
    rows = [
        (
            p.num_instances,
            p.total_pes,
            fmt(p.raster_time_ms, 1),
            fmt(p.raster_speedup, 1),
            fmt(p.end_to_end_fps, 1),
            fmt(p.added_area_mm2, 3),
            fmt(p.raster_energy_mj, 1),
        )
        for p in result.points
    ]
    table = format_table(headers, rows)
    return (
        f"scene: {result.scene} "
        f"(baseline rasterization {result.baseline_raster_ms:.1f} ms)\n{table}"
    )


def main() -> None:
    """Print the instance-count scaling sweep."""
    print("Ablation: GauRast instance-count sweep")
    print(format_result(run()))


if __name__ == "__main__":
    main()
