#!/usr/bin/env python
"""Quickstart: render a synthetic 3DGS scene with and without the GauRast model.

The example walks through the library's main entry points:

1. synthesise a small Gaussian scene,
2. render it with the functional (software) 3DGS pipeline,
3. render a multi-camera batch with ``render_batch`` (shared scene-level
   preprocessing, stacked images, aggregated statistics),
4. render the scene again with the cycle-level GauRast hardware model and
   check the images agree (the paper's "RTL matches software" validation),
5. evaluate a paper-scale NeRF-360 scene with the analytical models and print
   the baseline-vs-GauRast comparison.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import GauRastSystem
from repro.gaussians import make_synthetic_scene, render, render_batch
from repro.gaussians.synthetic import SyntheticConfig
from repro.hardware.config import GauRastConfig


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Synthesise a scene small enough for the cycle-level simulator,
    #    with a few extra orbit cameras for the batch demo.
    # ------------------------------------------------------------------ #
    scene = make_synthetic_scene(
        SyntheticConfig(num_gaussians=800, width=160, height=120, seed=1),
        name="quickstart",
        num_cameras=3,
    )
    print(f"scene '{scene.name}': {scene.num_gaussians} Gaussians, "
          f"{scene.default_camera.width}x{scene.default_camera.height} pixels, "
          f"{len(scene.cameras)} cameras")

    # ------------------------------------------------------------------ #
    # 2. Software (golden) render.
    # ------------------------------------------------------------------ #
    software = render(scene)
    print(f"functional render: {software.num_sort_keys} sort keys, "
          f"{software.fragments_evaluated} fragments evaluated, "
          f"rasterization dominates with "
          f"{software.binning.mean_gaussians_per_tile:.1f} Gaussians/tile")

    # ------------------------------------------------------------------ #
    # 3. Batched multi-camera render with shared preprocessing.
    # ------------------------------------------------------------------ #
    batch = render_batch(scene)
    print(f"batched render: {batch.images.shape[0]} cameras -> "
          f"stacked images {batch.images.shape}, "
          f"{batch.fragments_evaluated} fragments in total")

    # ------------------------------------------------------------------ #
    # 4. Hardware (cycle-level) render and validation.
    # ------------------------------------------------------------------ #
    system = GauRastSystem(config=GauRastConfig(num_instances=4))
    hw_image, report = system.render(scene)
    max_error = float(np.max(np.abs(hw_image - software.image)))
    print(f"hardware render: {report.frame_cycles} cycles on "
          f"{system.config.num_instances} instances "
          f"({report.runtime_seconds * 1e6:.1f} us at "
          f"{system.config.clock_hz / 1e9:.1f} GHz), "
          f"max pixel error vs software = {max_error:.2e}")
    if max_error > 1e-4:
        raise SystemExit("hardware model diverged from the software renderer")

    # ------------------------------------------------------------------ #
    # 5. Paper-scale evaluation of one NeRF-360 scene.
    # ------------------------------------------------------------------ #
    paper_system = GauRastSystem()
    evaluation = paper_system.evaluate_scene("bicycle", "original")
    raster = evaluation.rasterization
    end_to_end = evaluation.end_to_end
    print(
        "bicycle (original 3DGS): "
        f"rasterization {raster.baseline_time_s * 1e3:.0f} ms -> "
        f"{raster.gaurast_time_s * 1e3:.1f} ms "
        f"({raster.speedup:.1f}x faster, "
        f"{raster.energy_improvement:.1f}x more energy-efficient); "
        f"end-to-end {end_to_end.baseline_fps:.1f} -> "
        f"{end_to_end.gaurast_fps:.1f} FPS"
    )


if __name__ == "__main__":
    main()
