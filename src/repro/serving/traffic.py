"""Deterministic synthetic traffic generation for the serving layer.

Real multi-user render traffic is not uniform: a deployment hosting many
scenes sees a few *popular* scenes absorb most requests while the long tail
idles.  This module generates seeded request streams whose scene-popularity
skew is configurable, so benchmarks and capacity planning exercise realistic
load shapes instead of the uniform best case:

* ``"uniform"`` — every scene equally likely (the PR-2 behaviour, and what
  :func:`synthetic_request_trace` still produces for compatibility);
* ``"zipf"`` — scene ``r`` in a seeded popularity ranking receives traffic
  proportional to ``1 / (r + 1) ** zipf_exponent``, the classic web/CDN
  popularity law;
* ``"hotspot"`` — one seeded hot scene receives ``hotspot_fraction`` of all
  requests, the rest share the remainder uniformly (a viral-scene spike).

Streams are fully deterministic functions of ``(store contents, pattern,
seed)``: the same arguments always produce the same request list, which is
what makes traffic *replay* possible (``python -m repro serve --seed N``)
and keeps the sharded-vs-single-worker bit-identity checks meaningful.

Usage::

    from repro.serving import SceneStore, generate_requests

    store = SceneStore([scene_a, scene_b, scene_c])
    trace = generate_requests(store, 200, pattern="zipf", seed=7)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.serving.service import RenderRequest
from repro.serving.store import SceneStore

#: Known scene-popularity patterns.
TRAFFIC_PATTERNS = ("uniform", "zipf", "hotspot")

#: Default Zipf popularity exponent (web-style traffic is typically ~1).
DEFAULT_ZIPF_EXPONENT = 1.1

#: Default fraction of requests absorbed by the hot scene.
DEFAULT_HOTSPOT_FRACTION = 0.8


def scene_popularity(
    num_scenes: int,
    pattern: str = "uniform",
    seed: int = 0,
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
    hotspot_fraction: float = DEFAULT_HOTSPOT_FRACTION,
) -> np.ndarray:
    """Probability each of ``num_scenes`` scenes receives a given request.

    The popularity *ranking* (which scene is hottest) is a seeded random
    permutation, so different seeds shift load to different scenes while the
    distribution's shape stays fixed.  Returns a ``(num_scenes,)`` float
    array summing to 1.
    """
    if num_scenes <= 0:
        raise ValueError("num_scenes must be positive")
    if pattern not in TRAFFIC_PATTERNS:
        raise ValueError(
            f"unknown traffic pattern {pattern!r}; choose from {TRAFFIC_PATTERNS}"
        )
    if pattern == "uniform":
        return np.full(num_scenes, 1.0 / num_scenes)

    # Seeded ranking: rank[i] is the popularity rank of scene i (0 = hottest).
    # A dedicated RNG keeps the ranking independent of how many draws the
    # request loop makes.
    rank = np.random.default_rng(seed).permutation(num_scenes)
    if pattern == "zipf":
        if zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        weights = 1.0 / (rank + 1.0) ** zipf_exponent
        return weights / weights.sum()

    # pattern == "hotspot"
    if not 0.0 < hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in (0, 1]")
    if num_scenes == 1:
        return np.ones(1)
    cold = (1.0 - hotspot_fraction) / (num_scenes - 1)
    weights = np.full(num_scenes, cold)
    weights[rank == 0] = hotspot_fraction
    return weights / weights.sum()


def _eligible_scenes(store: SceneStore) -> List[int]:
    """Store indices of the scenes traffic can target (those with cameras).

    The single definition shared by :func:`generate_requests` and
    :func:`popularity_priority` — both index :func:`scene_popularity` by
    position in this list, which is what keeps the lane assignment
    consistent with the streams the generator draws.
    """
    eligible = [
        index for index in range(len(store)) if store.get_cameras(index)
    ]
    if not eligible:
        raise ValueError("no scene in the store has cameras")
    return eligible


def generate_requests(
    store: SceneStore,
    num_requests: int,
    pattern: str = "uniform",
    seed: int = 0,
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
    hotspot_fraction: float = DEFAULT_HOTSPOT_FRACTION,
) -> List[RenderRequest]:
    """Generate a seeded request stream with configurable popularity skew.

    Scenes are drawn from :func:`scene_popularity` over the store's scenes
    that have cameras; the viewpoint is drawn uniformly from the chosen
    scene's own cameras (popular *scenes*, not popular frames, are what
    shard affinity exploits — frame-level reuse still emerges once
    ``num_requests`` exceeds the distinct viewpoint count).

    The stream is a pure function of the arguments: replaying the same
    ``(pattern, seed)`` pair against the same store reproduces the exact
    request list.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if len(store) == 0:
        raise ValueError("cannot build a trace against an empty store")
    eligible = _eligible_scenes(store)

    popularity = scene_popularity(
        len(eligible),
        pattern=pattern,
        seed=seed,
        zipf_exponent=zipf_exponent,
        hotspot_fraction=hotspot_fraction,
    )
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(num_requests):
        if pattern == "uniform":
            # Kept call-for-call identical to the PR-2 generator so uniform
            # traces (and everything pinned to them) are unchanged.
            scene_index = int(rng.choice(eligible))
        else:
            scene_index = int(rng.choice(eligible, p=popularity))
        cameras = store.get_cameras(scene_index)
        camera = cameras[int(rng.integers(len(cameras)))]
        requests.append(RenderRequest(scene_id=scene_index, camera=camera))
    return requests


def popularity_priority(
    store: SceneStore,
    pattern: str = "hotspot",
    seed: int = 0,
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
    hotspot_fraction: float = DEFAULT_HOTSPOT_FRACTION,
    hot_threshold: float = 2.0,
):
    """Gateway lane assignment derived from the traffic model.

    Builds a ``request -> lane`` callable for
    :class:`~repro.serving.gateway.RenderGateway`: requests for *hot*
    scenes — those whose :func:`scene_popularity` share exceeds
    ``hot_threshold`` times the uniform share — ride the high-priority
    lane 0, everything else rides lane 1.  Under ``"hotspot"`` traffic this
    maps the seeded hot scene (the bulk of the load, and the most
    coalescible work) to the high lane; under ``"uniform"`` no scene
    qualifies and every request rides the normal lane.

    The popularity ranking is the same seeded function the request
    generator uses, so the lane assignment is deterministic and consistent
    with the traffic :func:`generate_requests` produces for the same
    ``(pattern, seed)``.  The returned callable exposes the chosen scene
    indices as its ``hot_scenes`` attribute.
    """
    if hot_threshold <= 0:
        raise ValueError("hot_threshold must be positive")
    eligible = _eligible_scenes(store)
    popularity = scene_popularity(
        len(eligible),
        pattern=pattern,
        seed=seed,
        zipf_exponent=zipf_exponent,
        hotspot_fraction=hotspot_fraction,
    )
    uniform_share = 1.0 / len(eligible)
    hot_scenes = frozenset(
        eligible[rank]
        for rank in range(len(eligible))
        if popularity[rank] > hot_threshold * uniform_share
    )

    def priority_of(request: RenderRequest) -> int:
        """Lane of one request: 0 for hot scenes, 1 otherwise."""
        return 0 if store.resolve_index(request.scene_id) in hot_scenes else 1

    priority_of.hot_scenes = hot_scenes
    return priority_of


@dataclass(frozen=True)
class FailurePlan:
    """Deterministic kill schedule for chaos-testing a sharded fleet.

    A plan is a sorted tuple of ``(position, worker)`` pairs: once the
    dispatcher has dispatched at least ``position`` requests, ``worker`` is
    killed mid-stream (its in-flight requests are requeued to surviving
    replicas, or the shard is respawned — see
    :meth:`~repro.serving.sharded.ShardedRenderService.serve`).  Like the
    request streams of this module, a plan is a pure value: the same plan
    replayed against the same seeded trace produces the same kill points,
    requeue counts and placement history, which is what the golden-replay
    chaos tests pin.

    Usage::

        plan = FailurePlan.at((10, 1))               # kill worker 1 at 10
        plan = FailurePlan.seeded(num_workers=4, num_requests=80,
                                  num_kills=2, seed=7)
    """

    kills: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        """Validate that kill positions are sorted and workers distinct."""
        previous = -1
        seen = set()
        for position, worker in self.kills:
            if position < 0:
                raise ValueError("kill positions must be non-negative")
            if position < previous:
                raise ValueError("kills must be sorted by position")
            if worker < 0:
                raise ValueError("worker ids must be non-negative")
            if worker in seen:
                raise ValueError(
                    f"worker {worker} is killed twice; each worker can "
                    "die at most once per plan"
                )
            seen.add(worker)
            previous = position

    @classmethod
    def at(cls, *kills: Tuple[int, int]) -> "FailurePlan":
        """Build a plan from explicit ``(position, worker)`` pairs."""
        return cls(kills=tuple(sorted((int(p), int(w)) for p, w in kills)))

    @classmethod
    def seeded(
        cls,
        num_workers: int,
        num_requests: int,
        num_kills: int = 1,
        seed: int = 0,
    ) -> "FailurePlan":
        """A seeded schedule killing ``num_kills`` distinct workers mid-stream.

        Victims are a seeded sample of the fleet (at most ``num_workers - 1``
        so one worker always survives without needing a respawn), and kill
        positions are seeded draws from the interior of the stream — never
        position 0, so every run serves at least one request before the
        first failure.  A pure function of its arguments.
        """
        if num_workers < 2:
            raise ValueError("seeded plans need at least 2 workers")
        if num_requests < 2:
            raise ValueError("seeded plans need at least 2 requests")
        num_kills = int(num_kills)
        if not 1 <= num_kills <= num_workers - 1:
            raise ValueError(
                f"num_kills must be in [1, {num_workers - 1}] "
                f"for {num_workers} workers"
            )
        rng = np.random.default_rng(seed)
        workers = rng.permutation(num_workers)[:num_kills]
        positions = rng.integers(1, num_requests, size=num_kills)
        return cls.at(*zip(positions.tolist(), workers.tolist()))

    def __len__(self) -> int:
        return len(self.kills)

    def due(self, position: int, fired: int) -> Tuple[Tuple[int, int], ...]:
        """Kills triggered once ``position`` requests have been dispatched.

        ``fired`` is how many kills the caller has already executed; the
        returned pairs are the next ones whose position has been reached.
        """
        return tuple(
            kill for kill in self.kills[fired:] if kill[0] <= position
        )


def synthetic_request_trace(
    store: SceneStore,
    num_requests: int,
    seed: int = 0,
) -> List[RenderRequest]:
    """Uniform random request trace (PR-2 compatible).

    Thin wrapper over :func:`generate_requests` with ``pattern="uniform"``;
    kept so existing callers and pinned traces keep working.
    """
    return generate_requests(store, num_requests, pattern="uniform", seed=seed)
