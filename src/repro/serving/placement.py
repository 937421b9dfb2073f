"""Scene-to-shard placement: affinity, replication, and failure tracking.

The sharded serving layer originally hard-coded *scene affinity* — scene
``i`` lives on shard ``i % num_workers`` and nowhere else.  That rule keeps
caches disjoint, but it pins every *hot* scene to a single worker: the
zipf/hotspot streams :mod:`repro.serving.traffic` generates then saturate
one shard while the rest idle.  A :class:`PlacementMap` generalises the
rule the way the DarkSide-20k DAQ treats its time-slice processors — data
may be resident on several redundant workers, and the dispatcher picks a
live one per request:

* every scene keeps its affinity shard as the **primary** owner;
* scenes flagged *hot* gain ``replication - 1`` additional **replica**
  owners on the next shards round-robin, so their traffic can be split;
* the owners are fixed when the map is built; every kill and respawn the
  dispatcher reports is recorded as a :class:`PlacementEvent`, which is
  what makes a chaos run's placement history replayable and
  golden-testable.

The map is pure bookkeeping: it never touches worker processes.  Death is
modelled as a *filter* (``dead`` sets passed by the caller), so a kill does
not change the placement — a respawned shard resumes exactly the scene set
it owned, and the invariant checks stay meaningful mid-outage.

Usage::

    from repro.serving.placement import PlacementMap

    placement = PlacementMap(num_scenes=6, num_workers=3,
                             replication=2, hot_scenes={4})
    placement.owners(4)                   # (1, 2): primary + one replica
    placement.route(4, load={1: 3, 2: 0}) # 2, the least-loaded live owner
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Kinds a :class:`PlacementEvent` may carry.
EVENT_KINDS = ("kill", "respawn")


class NoLiveOwnerError(RuntimeError):
    """Raised by :meth:`PlacementMap.route` when every owner of a scene is dead.

    The sharded dispatcher treats this as "respawn required": it never
    surfaces to callers of ``ShardedRenderService.serve``, which restores
    coverage (see ``_ensure_coverage``) before routing.
    """


@dataclass(frozen=True)
class PlacementEvent:
    """One recorded liveness change of a shard.

    Attributes
    ----------
    kind:
        ``"kill"`` or ``"respawn"``.
    position:
        Requests dispatched by the fleet when the event happened, so a
        history reads as a timeline of the request stream.
    shard:
        Shard the event concerns.
    """

    kind: str
    position: int
    shard: int


class PlacementMap:
    """Which shards own which scenes, with replication and a history.

    Parameters
    ----------
    num_scenes:
        Scenes being placed (scene ids are ``0..num_scenes-1``).
    num_workers:
        Shards available (shard ids are ``0..num_workers-1``).
    replication:
        Owners per *hot* scene (clamped to ``num_workers``); cold scenes
        always have exactly one owner, their affinity shard.
    hot_scenes:
        Scene indices to replicate (e.g. from
        :func:`repro.serving.traffic.popularity_priority`'s
        ``hot_scenes``).  Ignored when ``replication`` is 1.
    """

    def __init__(
        self,
        num_scenes: int,
        num_workers: int,
        replication: int = 1,
        hot_scenes: Iterable[int] = (),
    ):
        if num_scenes < 0:
            raise ValueError("num_scenes must be non-negative")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        self.num_scenes = int(num_scenes)
        self.num_workers = int(num_workers)
        self.replication = min(int(replication), self.num_workers)
        hot = set()
        for scene in hot_scenes:
            scene = int(scene)
            if not 0 <= scene < self.num_scenes:
                raise ValueError(
                    f"hot scene {scene} out of range for {self.num_scenes} scenes"
                )
            hot.add(scene)
        self.hot_scenes = frozenset(hot)
        self.history: List[PlacementEvent] = []

        self._owners: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                (scene + offset) % self.num_workers
                for offset in range(
                    self.replication if scene in self.hot_scenes else 1
                )
            )
            for scene in range(self.num_scenes)
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def owners(self, scene: int) -> Tuple[int, ...]:
        """Shards holding ``scene``, primary first."""
        return self._owners[self._check_scene(scene)]

    def primary(self, scene: int) -> int:
        """The scene's affinity shard (``scene % num_workers``)."""
        return self._owners[self._check_scene(scene)][0]

    def scenes_of(self, shard: int) -> Tuple[int, ...]:
        """Scenes resident on ``shard``, in ascending scene order."""
        shard = self._check_shard(shard)
        return tuple(
            scene
            for scene in range(self.num_scenes)
            if shard in self._owners[scene]
        )

    def live_owners(self, scene: int, dead: Set[int] = frozenset()) -> Tuple[int, ...]:
        """Owners of ``scene`` that are not in the ``dead`` set."""
        return tuple(
            shard
            for shard in self._owners[self._check_scene(scene)]
            if shard not in dead
        )

    def snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """The ``{scene: owners}`` mapping."""
        return dict(enumerate(self._owners))

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(
        self,
        scene: int,
        load: Optional[Dict[int, int]] = None,
        dead: Set[int] = frozenset(),
    ) -> int:
        """Least-loaded live owner of ``scene`` (ties break to the lowest id).

        ``load`` maps shard -> outstanding request count; missing shards
        count as idle.  The signal is *dispatcher-side* queue depth, which
        is a deterministic function of the request stream — routing the
        same stream twice picks the same shards, which is what keeps chaos
        replays and their golden counters stable.

        Raises :class:`NoLiveOwnerError` when every owner is dead; the
        dispatcher responds by respawning a shard, never by dropping the
        request.
        """
        candidates = self.live_owners(scene, dead)
        if not candidates:
            raise NoLiveOwnerError(
                f"scene {scene} has no live owner "
                f"(owners {self.owners(scene)} all dead)"
            )
        load = load or {}
        return min(candidates, key=lambda shard: (load.get(shard, 0), shard))

    # ------------------------------------------------------------------ #
    # Failure tracking
    # ------------------------------------------------------------------ #
    def record(self, kind: str, position: int, shard: int) -> None:
        """Append a kill or respawn of ``shard`` to the history."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; choose from {EVENT_KINDS}")
        self.history.append(
            PlacementEvent(kind=kind, position=int(position), shard=int(shard))
        )

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert the structural invariants the property suite pins.

        Every scene has at least one owner, owners are distinct shards in
        range, and the primary owner is the affinity shard.  Raises
        ``AssertionError`` on violation (used by tests and debug builds;
        the serving layer maintains these by construction).
        """
        for scene, owners in enumerate(self._owners):
            assert owners, f"scene {scene} has no owner"
            assert len(set(owners)) == len(owners), (
                f"scene {scene} has duplicate owners {owners}"
            )
            assert all(0 <= shard < self.num_workers for shard in owners), (
                f"scene {scene} has out-of-range owners {owners}"
            )
            assert owners[0] == scene % self.num_workers, (
                f"scene {scene} lost its affinity primary: {owners}"
            )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_scene(self, scene: int) -> int:
        scene = int(scene)
        if not 0 <= scene < self.num_scenes:
            raise IndexError(
                f"scene {scene} out of range for {self.num_scenes} scenes"
            )
        return scene

    def _check_shard(self, shard: int) -> int:
        shard = int(shard)
        if not 0 <= shard < self.num_workers:
            raise IndexError(
                f"shard {shard} out of range for {self.num_workers} workers"
            )
        return shard

    def __repr__(self) -> str:
        replicated = sum(1 for owners in self._owners if len(owners) > 1)
        return (
            f"PlacementMap(num_scenes={self.num_scenes}, "
            f"num_workers={self.num_workers}, replicated={replicated}, "
            f"events={len(self.history)})"
        )
