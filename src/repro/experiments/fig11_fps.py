"""Fig. 11: end-to-end FPS with and without GauRast.

For both pipelines (original 3DGS and Mini-Splatting) and every NeRF-360
scene: the frame rate of the unmodified baseline SoC versus the SoC with
GauRast executing Stage 3 under the CUDA-collaborative schedule.

The figure's headline numbers come from the analytical models; as a sanity
anchor, :func:`measured_functional_fps` additionally renders a scaled-down
synthetic stand-in of one scene from several orbit viewpoints through the
batched functional pipeline and reports the wall-clock frame rate the pure
software renderer sustains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.core.gaurast import GauRastSystem
from repro.core.metrics import SceneEvaluation
from repro.experiments.common import ALGORITHMS, default_system, fmt, format_table
from repro.gaussians.pipeline import BatchRenderResult, render_batch
from repro.gaussians.synthetic import scene_from_descriptor


@dataclass(frozen=True)
class Fig11Result:
    """Per-scene, per-algorithm end-to-end FPS with and without GauRast."""

    evaluations: Dict[str, List[SceneEvaluation]]

    def baseline_fps(self, algorithm: str) -> Dict[str, float]:
        """Baseline FPS per scene."""
        return {
            e.scene_name: e.end_to_end.baseline_fps
            for e in self.evaluations[algorithm]
        }

    def gaurast_fps(self, algorithm: str) -> Dict[str, float]:
        """GauRast FPS per scene."""
        return {
            e.scene_name: e.end_to_end.gaurast_fps
            for e in self.evaluations[algorithm]
        }

    def mean_baseline_fps(self, algorithm: str) -> float:
        """Average baseline FPS."""
        values = list(self.baseline_fps(algorithm).values())
        return sum(values) / len(values)

    def mean_gaurast_fps(self, algorithm: str) -> float:
        """Average FPS with GauRast."""
        values = list(self.gaurast_fps(algorithm).values())
        return sum(values) / len(values)

    def mean_speedup(self, algorithm: str) -> float:
        """Average end-to-end speedup."""
        evaluations = self.evaluations[algorithm]
        return sum(e.end_to_end.speedup for e in evaluations) / len(evaluations)


def run(system: GauRastSystem | None = None) -> Fig11Result:
    """Evaluate end-to-end FPS for both algorithms on every scene."""
    system = system or default_system()
    return Fig11Result(
        evaluations={
            algorithm: system.evaluate_all(algorithm) for algorithm in ALGORITHMS
        }
    )


def measured_functional_fps(
    scene_name: str = "bicycle",
    scale: float = 0.001,
    num_cameras: int = 4,
    seed: int = 0,
) -> tuple[float, BatchRenderResult]:
    """Measured FPS of the software pipeline on a multi-camera stand-in.

    Renders ``num_cameras`` orbit viewpoints of a scaled-down synthetic
    stand-in for ``scene_name`` as one :func:`render_batch` call and returns
    the wall-clock frames per second plus the batch result.
    """
    scene = scene_from_descriptor(
        scene_name, scale=scale, seed=seed, num_cameras=num_cameras
    )
    start = time.perf_counter()
    batch = render_batch(scene)
    elapsed = time.perf_counter() - start
    return len(batch) / elapsed, batch


def format_result(result: Fig11Result) -> str:
    """Render Fig. 11's data series."""
    scenes = [e.scene_name for e in result.evaluations["original"]]
    headers = ["Series"] + scenes + ["mean"]
    rows = []
    for algorithm in ALGORITHMS:
        base = result.baseline_fps(algorithm)
        gaurast = result.gaurast_fps(algorithm)
        rows.append(
            [f"{algorithm}: w/o GauRast (FPS)"]
            + [fmt(base[s], 1) for s in scenes]
            + [fmt(result.mean_baseline_fps(algorithm), 1)]
        )
        rows.append(
            [f"{algorithm}: w/ GauRast (FPS)"]
            + [fmt(gaurast[s], 1) for s in scenes]
            + [fmt(result.mean_gaurast_fps(algorithm), 1)]
        )
    return format_table(headers, rows)


def main() -> None:
    """Print Fig. 11's data series."""
    result = run()
    print("Fig. 11: end-to-end FPS with and without GauRast")
    print(format_result(result))
    for algorithm in ALGORITHMS:
        print(
            f"{algorithm}: mean end-to-end speedup "
            f"{result.mean_speedup(algorithm):.1f}x"
        )
    fps, batch = measured_functional_fps()
    print(
        f"software stand-in (bicycle, {len(batch)} orbit cameras): "
        f"{fps:.1f} FPS measured"
    )


if __name__ == "__main__":
    main()
