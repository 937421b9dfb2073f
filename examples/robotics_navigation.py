#!/usr/bin/env python
"""Robotics scenario: can an edge robot render its 3DGS map in real time?

The paper motivates GauRast with 3D-intelligent applications such as
robotics, where an on-board computer must render a reconstructed scene from
the robot's current viewpoint every control cycle.  This example simulates a
small differential-drive robot following a circular path through a synthetic
Gaussian scene:

* the whole trajectory is rendered as one multi-camera batch
  (``render_batch``) so scene-level preprocessing is shared across
  waypoints and each viewpoint's workload statistics are measured in a
  single pass,
* the Jetson Orin NX baseline model and the GauRast model are evaluated on
  that workload, giving per-viewpoint frame times,
* the trajectory summary reports whether each platform sustains the robot's
  30 FPS perception target.

Run with::

    python examples/robotics_navigation.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.jetson import JetsonOrinNX
from repro.experiments.common import fmt, format_table
from repro.gaussians.camera import Camera, look_at
from repro.gaussians.pipeline import render_batch
from repro.gaussians.synthetic import SyntheticConfig, make_gaussian_cloud
from repro.gaussians.scene import GaussianScene
from repro.hardware.config import SCALED_CONFIG
from repro.hardware.multi import ScaledGauRast
from repro.profiling.workload import WorkloadStatistics
from repro.scheduling.collaborative import steady_state_fps

#: Perception refresh target for the robot's planner.
TARGET_FPS = 30.0

#: Number of waypoints along the circular trajectory.
NUM_WAYPOINTS = 6

#: Ratio between the full-size map the robot would carry and the scaled-down
#: synthetic stand-in rendered here (the workload statistics are scaled back
#: up by this factor before the performance models are applied).
WORKLOAD_SCALE = 80.0


def build_map() -> GaussianScene:
    """The robot's reconstructed 3DGS map (synthetic stand-in)."""
    config = SyntheticConfig(
        num_gaussians=1500, width=160, height=120, num_clusters=10, seed=21
    )
    cloud = make_gaussian_cloud(config)
    camera = waypoint_camera(config, 0)
    return GaussianScene(cloud=cloud, cameras=[camera], name="robot-map")


def waypoint_camera(config: SyntheticConfig, index: int) -> Camera:
    """Camera pose of the robot at waypoint ``index`` on a circular path."""
    angle = 2.0 * math.pi * index / NUM_WAYPOINTS
    radius = config.extent * 0.5
    eye = (radius * math.cos(angle), -0.2 * config.extent, radius * math.sin(angle) + 0.2)
    target = (0.0, 0.0, config.extent * 1.5)
    pose = look_at(eye=eye, target=target)
    focal = 0.9 * config.width
    return Camera(width=config.width, height=config.height, fx=focal, fy=focal,
                  world_to_camera=pose)


def scaled_workload(result, name: str) -> WorkloadStatistics:
    """Scale the synthetic viewpoint's workload up to a full-size map."""
    measured = WorkloadStatistics.from_render(result, scene_name=name)
    return WorkloadStatistics(
        scene_name=name,
        algorithm="original",
        width=int(measured.width * math.sqrt(WORKLOAD_SCALE)),
        height=int(measured.height * math.sqrt(WORKLOAD_SCALE)),
        num_gaussians=int(measured.num_gaussians * WORKLOAD_SCALE),
        num_tiles=int(measured.num_tiles * WORKLOAD_SCALE),
        occupied_tiles=int(measured.occupied_tiles * WORKLOAD_SCALE),
        sort_keys=int(measured.sort_keys * WORKLOAD_SCALE),
        evaluated_fraction=measured.evaluated_fraction,
    )


def main() -> None:
    scene = build_map()
    config = SyntheticConfig(num_gaussians=1500, width=160, height=120, seed=21)
    baseline = JetsonOrinNX()
    rasterizer = ScaledGauRast(SCALED_CONFIG)

    waypoints = [waypoint_camera(config, index) for index in range(NUM_WAYPOINTS)]
    batch = render_batch(scene, cameras=waypoints)

    rows = []
    baseline_fps_values = []
    gaurast_fps_values = []
    for index, result in enumerate(batch.results):
        workload = scaled_workload(result, f"waypoint-{index}")

        stage_times = baseline.stage_times(workload)
        baseline_fps = stage_times.fps
        gaurast_raster = rasterizer.estimate_runtime(workload)
        gaurast_fps = steady_state_fps(stage_times.non_rasterize, gaurast_raster)

        baseline_fps_values.append(baseline_fps)
        gaurast_fps_values.append(gaurast_fps)
        rows.append(
            (
                index,
                workload.sort_keys,
                fmt(baseline_fps, 1),
                fmt(gaurast_fps, 1),
                "yes" if gaurast_fps >= TARGET_FPS else "no",
            )
        )

    print(f"Robot perception target: {TARGET_FPS:.0f} FPS\n")
    print(
        format_table(
            ["Waypoint", "Sort keys", "Baseline FPS", "GauRast FPS", "Meets target"],
            rows,
        )
    )
    print(
        f"\nbatched render: {batch.fragments_evaluated} fragments evaluated "
        f"across {len(batch)} waypoints "
        f"({batch.mean_fragments_per_camera:.0f} per viewpoint)"
    )
    mean_baseline = float(np.mean(baseline_fps_values))
    mean_gaurast = float(np.mean(gaurast_fps_values))
    print(
        f"\ntrajectory average: baseline {mean_baseline:.1f} FPS, "
        f"with GauRast {mean_gaurast:.1f} FPS "
        f"({mean_gaurast / mean_baseline:.1f}x)"
    )
    if mean_gaurast >= TARGET_FPS > mean_baseline:
        print("GauRast lifts the platform from below the perception target to above it.")


if __name__ == "__main__":
    main()
