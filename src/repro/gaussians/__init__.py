"""Functional model of the 3D Gaussian Splatting rendering pipeline.

This package implements the three-stage 3DGS pipeline described in Section II
of the paper:

1. **Preprocessing** (:mod:`repro.gaussians.projection`): project each 3D
   Gaussian to a 2D Gaussian on the image plane, evaluate its view-dependent
   colour from spherical-harmonics coefficients and compute its depth.
2. **Sorting** (:mod:`repro.gaussians.sorting`): bin the projected Gaussians
   into 16x16 screen tiles and sort each tile's list by depth.
3. **Gaussian rasterization** (:mod:`repro.gaussians.rasterize`): for every
   tile, alpha-composit the sorted Gaussians front to back into the pixels.

The implementation is NumPy, plus one small C kernel for Stage 3's tile
loop (built on first import; see :mod:`repro.gaussians.rasterize`), and
serves two purposes: it is the *golden
model* against which the GauRast processing-element datapath is validated,
and it is the *workload generator* whose per-frame statistics feed the
performance and energy models.
"""

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.gaussian import GaussianCloud, ProjectedGaussians
from repro.gaussians.io import load_scene, save_scene
from repro.gaussians.metrics import compare_images, psnr, ssim
from repro.gaussians.minisplat import prune_to_budget
from repro.gaussians.pipeline import (
    BatchRenderResult,
    RenderResult,
    render,
    render_batch,
)
from repro.gaussians.rasterize import rasterize_tiles
from repro.gaussians.scene import GaussianScene
from repro.gaussians.sorting import TileBinning, bin_and_sort
from repro.gaussians.synthetic import make_synthetic_scene

__all__ = [
    "BatchRenderResult",
    "Camera",
    "GaussianCloud",
    "GaussianScene",
    "ProjectedGaussians",
    "RenderResult",
    "TileBinning",
    "bin_and_sort",
    "compare_images",
    "load_scene",
    "look_at",
    "make_synthetic_scene",
    "prune_to_budget",
    "psnr",
    "rasterize_tiles",
    "render",
    "render_batch",
    "save_scene",
    "ssim",
]
