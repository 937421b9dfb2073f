"""End-to-end functional 3DGS rendering pipeline.

Chains the three stages (preprocess, sort, rasterize) into a single call and
returns both the rendered image and the per-stage workload statistics that
drive the performance models.  This module is the software "golden" pipeline;
``repro.core`` exposes the same flow with the GauRast hardware model plugged
in for Stage 3.

Two entry points are provided:

* :func:`render` — one camera, one frame.  Stage 3 runs the vectorized
  tile engine of :mod:`repro.gaussians.rasterize`, bit-identical in FP64
  to the per-Gaussian oracle loop kept there for tests.
* :func:`render_batch` — many cameras of the same scene in one call.  The
  camera-independent part of preprocessing (the world-space covariances) is
  computed once and shared across all viewpoints, and the result carries
  stacked images plus aggregated workload statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import ProjectedGaussians
from repro.gaussians.projection import PreprocessStats, preprocess
from repro.gaussians.rasterize import RasterStats, rasterize_tiles
from repro.gaussians.scene import GaussianScene
from repro.gaussians.sorting import TileBinning, bin_and_sort
from repro.gaussians.tiles import TileGrid


@dataclass
class RenderResult:
    """Output of a functional 3DGS render.

    Attributes
    ----------
    image:
        ``(height, width, 3)`` RGB image in linear [0, 1+] range.
    projected:
        The 2D Gaussians produced by preprocessing (Stage 1 output).
    binning:
        Tile lists produced by sorting (Stage 2 output).
    preprocess_stats:
        Counters from Stage 1.
    raster_stats:
        Counters from Stage 3.
    """

    image: np.ndarray = field(repr=False)
    projected: ProjectedGaussians
    binning: TileBinning
    preprocess_stats: PreprocessStats
    raster_stats: RasterStats

    @property
    def num_sort_keys(self) -> int:
        """Number of duplicated (tile, Gaussian) keys handled by Stage 2."""
        return self.binning.num_keys

    @property
    def fragments_evaluated(self) -> int:
        """Gaussian-pixel evaluations performed by Stage 3."""
        return self.raster_stats.fragments_evaluated


@dataclass
class BatchRenderResult:
    """Output of a multi-camera batch render.

    Attributes
    ----------
    results:
        Per-camera :class:`RenderResult` objects, in camera order.
    raster_stats:
        Stage-3 counters aggregated over all cameras
        (:meth:`~repro.gaussians.rasterize.RasterStats.merged`).
    """

    results: List[RenderResult]
    raster_stats: RasterStats

    def __len__(self) -> int:
        return len(self.results)

    @cached_property
    def images(self) -> np.ndarray:
        """Stacked ``(num_cameras, height, width, 3)`` images.

        All cameras of a batch must share one resolution to be stackable;
        mixed-resolution batches should read ``results[i].image`` instead.
        The stack is built on first access and cached.
        """
        shapes = {result.image.shape for result in self.results}
        if len(shapes) > 1:
            raise ValueError(
                f"cannot stack images of mixed resolutions {sorted(shapes)}; "
                "read results[i].image individually"
            )
        return np.stack([result.image for result in self.results])

    @property
    def num_sort_keys(self) -> int:
        """Total sort keys handled by Stage 2 across the batch."""
        return sum(result.num_sort_keys for result in self.results)

    @property
    def fragments_evaluated(self) -> int:
        """Total Gaussian-pixel evaluations across the batch."""
        return self.raster_stats.fragments_evaluated

    @property
    def mean_fragments_per_camera(self) -> float:
        """Average Stage-3 evaluations per viewpoint."""
        if not self.results:
            return 0.0
        return self.fragments_evaluated / len(self.results)


def render(
    scene: GaussianScene,
    camera: Optional[Camera] = None,
    background=(0.0, 0.0, 0.0),
    sh_degree: Optional[int] = None,
    collect_stats: bool = True,
    covariances: Optional[np.ndarray] = None,
) -> RenderResult:
    """Render a scene with the functional three-stage 3DGS pipeline.

    Parameters
    ----------
    scene:
        The scene to render.
    camera:
        Viewpoint; defaults to the scene's primary camera.
    background:
        RGB background colour composited under the splats.
    sh_degree:
        Optional spherical-harmonics degree override.
    collect_stats:
        Whether to collect per-fragment workload statistics (slightly
        slower; required by the performance models).
    covariances:
        Optional precomputed world-space covariances of the full cloud,
        shared across cameras by :func:`render_batch`.
    """
    if camera is None:
        camera = scene.default_camera

    projected, pre_stats = preprocess(
        scene.cloud, camera, sh_degree=sh_degree, covariances=covariances
    )
    grid = TileGrid(width=camera.width, height=camera.height)
    binning = bin_and_sort(projected, grid)
    image, raster_stats = rasterize_tiles(
        projected,
        binning,
        background=background,
        collect_stats=collect_stats,
    )
    return RenderResult(
        image=image,
        projected=projected,
        binning=binning,
        preprocess_stats=pre_stats,
        raster_stats=raster_stats,
    )


def render_batch(
    scene: GaussianScene,
    cameras: Optional[Sequence[Camera]] = None,
    background=(0.0, 0.0, 0.0),
    sh_degree: Optional[int] = None,
    collect_stats: bool = True,
    covariances: Optional[np.ndarray] = None,
) -> BatchRenderResult:
    """Render one scene from many viewpoints in a single call.

    The camera-independent half of preprocessing — the world-space
    covariances ``R S S^T R^T`` of every Gaussian — is computed once and
    reused for every viewpoint, so an ``N``-camera batch pays the quaternion
    and covariance arithmetic once instead of ``N`` times.  Each frame is
    identical (bit-for-bit) to a standalone :func:`render` of that camera.

    Parameters
    ----------
    scene:
        The scene to render.
    cameras:
        Viewpoints to render; defaults to all of the scene's cameras.
    background, sh_degree, collect_stats:
        As in :func:`render`, applied to every frame.
    covariances:
        Optional precomputed world-space covariances of the full cloud.
        When omitted they are computed here, once for the whole batch; a
        caller that renders many batches of the same scene (e.g. the
        :class:`~repro.serving.service.RenderService` covariance cache) can
        compute them once per *scene* instead and pass them in.

    Returns
    -------
    A :class:`BatchRenderResult` with per-camera results, stackable images
    and Stage-3 counters aggregated over the whole batch.
    """
    if cameras is None:
        cameras = scene.cameras
    cameras = list(cameras)
    if not cameras:
        raise ValueError("render_batch needs at least one camera")

    if covariances is None and len(scene.cloud):
        covariances = scene.cloud.covariances()
    results = [
        render(
            scene,
            camera=camera,
            background=background,
            sh_degree=sh_degree,
            collect_stats=collect_stats,
            covariances=covariances,
        )
        for camera in cameras
    ]
    return BatchRenderResult(
        results=results,
        raster_stats=RasterStats.merged(result.raster_stats for result in results),
    )
