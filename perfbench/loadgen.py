"""Seeded inputs of the benchmark workloads.

Everything here is a pure function of its arguments: one workload seed
always yields the same request list and arrival schedule, and the program
under test only ever sees the generated ``RenderRequest`` objects and
send times, never the seed.

Scene *content* is fixed (constant generator seeds), so a seed changes
which viewpoints are asked for and when, not how big the scenes are.
That keeps the work per run nearly the same across seeds, which is what
lets ten seeds agree within the metric bounds.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving.service import RenderRequest

#: Low-discrepancy step: azimuth k of a stream is frac(offset + k * GOLDEN),
#: so any prefix of the stream covers the orbit evenly and never repeats.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: ``unique-views`` scenes: the two sizes of the ROADMAP stage table,
#: ``(gaussians, width, height, generator seed)``.
UNIQUE_SCENES = ((1200, 160, 120, 101), (5000, 320, 240, 102))

#: Scene size of each request, repeated: two small frames per large one, so
#: the median falls inside the small mode and the p75 tail inside the
#: large one, whatever the seed.
UNIQUE_SIZE_PATTERN = (0, 0, 1)

#: ``hot-gateway`` catalog: 16 small scenes with 8 cameras each.
HOT_NUM_SCENES = 16
HOT_CAMERAS = 8
HOT_SCENE_SHAPE = (300, 80, 60)
HOT_FRACTION = 0.8

#: ``hw-replay`` frame pool: ``(gaussians, width, height, generator seed)``
#: scenes, each seen from ``HW_CAMERAS`` orbit cameras.
HW_SCENES = ((96, 48, 32, 301), (128, 48, 32, 302), (160, 48, 32, 303))
HW_CAMERAS = 4


def build_scene(num_gaussians: int, width: int, height: int, seed: int,
                num_cameras: int = 1, name: str = "scene"):
    """A synthetic scene with fixed content."""
    config = SyntheticConfig(
        num_gaussians=num_gaussians, width=width, height=height, seed=seed
    )
    return make_synthetic_scene(config, name=name, num_cameras=num_cameras)


def orbit_view(width: int, height: int, azimuth: float, lift: float,
               radius_factor: float, extent: float = 4.0) -> Camera:
    """A camera on the synthetic scenes' orbit, looking at their centre.

    Same geometry as :func:`repro.gaussians.synthetic.orbit_cameras`, with
    the azimuth, height and radius given directly.
    """
    radius = extent * radius_factor
    eye = (
        radius * math.sin(azimuth),
        -extent * 0.15 + lift * extent,
        radius * (1.0 - math.cos(azimuth)) * 0.5,
    )
    focal = 0.9 * width
    return Camera(
        width=width, height=height, fx=focal, fy=focal,
        world_to_camera=look_at(eye=eye, target=(0.0, 0.0, extent * 1.5)),
    )


def unique_view_request(seed: int, phase: int, position: int) -> RenderRequest:
    """Request ``position`` of a ``unique-views`` phase for ``seed``.

    Scene sizes follow :data:`UNIQUE_SIZE_PATTERN`; within each size the
    azimuths form a golden-ratio sequence from a seeded offset, with a
    seeded jitter of height and radius, so every viewpoint is distinct.
    """
    size = UNIQUE_SIZE_PATTERN[position % len(UNIQUE_SIZE_PATTERN)]
    per_cycle = UNIQUE_SIZE_PATTERN.count(size)
    cycle, offset = divmod(position, len(UNIQUE_SIZE_PATTERN))
    rank = cycle * per_cycle + UNIQUE_SIZE_PATTERN[:offset].count(size)
    start = np.random.default_rng([seed, phase, size]).random()
    jitter = np.random.default_rng([seed, phase, size, rank]).uniform(-1.0, 1.0, 2)
    azimuth = 2.0 * math.pi * ((start + rank * GOLDEN) % 1.0)
    _, width, height, _ = UNIQUE_SCENES[size]
    camera = orbit_view(
        width, height, azimuth,
        lift=0.03 * jitter[0], radius_factor=0.4 + 0.05 * jitter[1],
    )
    return RenderRequest(scene_id=size, camera=camera)


def hotspot_requests(seed: int, phase: int, count: int, hot_scene: int,
                     cameras: Sequence[Sequence[Camera]]) -> List[Tuple[int, int, RenderRequest]]:
    """``hot-gateway`` traffic: ``(scene, camera index, request)`` triples.

    ``HOT_FRACTION`` of requests go to ``hot_scene``, the rest uniformly to
    the other scenes; the camera is uniform over the scene's own cameras.
    Every triple holds a new ``RenderRequest`` object.
    """
    rng = np.random.default_rng([seed, phase, 1])
    num_scenes = len(cameras)
    cold = [scene for scene in range(num_scenes) if scene != hot_scene]
    hot = rng.random(count) < HOT_FRACTION
    cold_pick = rng.integers(len(cold), size=count)
    view = rng.integers(len(cameras[0]), size=count)
    triples = []
    for position in range(count):
        scene = hot_scene if hot[position] else cold[cold_pick[position]]
        camera = int(view[position])
        triples.append(
            (scene, camera, RenderRequest(scene_id=scene, camera=cameras[scene][camera]))
        )
    return triples


def arrival_schedule(seed: int, phase: int, count: int, rate: float) -> np.ndarray:
    """Poisson send times (seconds from the phase start) at ``rate`` req/s."""
    rng = np.random.default_rng([seed, phase, 2])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def hw_round(seed: int, round_index: int, pool_size: int) -> List[Tuple[int, int]]:
    """One ``hw-replay`` round: ``(pool frame, trace length)`` per call.

    A round visits every pool frame once, in seeded order; each call's
    trace repeats its frame 2 to 4 times, so the replay's dedupe runs and
    every round simulates exactly the pool.
    """
    rng = np.random.default_rng([seed, round_index, 3])
    order = rng.permutation(pool_size)
    lengths = rng.integers(2, 5, size=pool_size)
    return [(int(frame), int(length)) for frame, length in zip(order, lengths)]


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); 0 for no values."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Fewest samples a window keeps beyond the tail percentile.
TAIL_SAMPLES = 10


def windowed_tail(latencies: Sequence[float], q: float) -> float:
    """Median over consecutive windows of each window's ``q``-th percentile.

    The phase is cut into as many windows (in completion order) as leave at
    least :data:`TAIL_SAMPLES` samples beyond ``q`` in each; one host stall
    then moves one window's tail, not the reported one.  Short phases use a
    single window, i.e. the plain percentile.
    """
    per_window = math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0))
    windows = max(1, len(latencies) // per_window)
    return float(np.median([
        percentile(chunk, q) for chunk in np.array_split(np.asarray(latencies), windows)
    ]))
