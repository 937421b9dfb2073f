"""Byte-budgeted LRU cache used by the render-request serving layer.

The cache is deliberately tiny and dependency-free: an ordered dict of
``key -> (value, nbytes)`` with least-recently-used eviction once the byte
budget is exceeded.  :class:`~repro.serving.service.RenderService` keeps two
of these — one for per-scene world-space covariances, one for rendered
frames — so that a long request stream runs with bounded memory no matter
how many scenes or viewpoints it touches.

Usage::

    from repro.serving import LRUByteCache

    cache = LRUByteCache(max_bytes=1 << 20)
    cache.put("frame-0", image, image.nbytes)
    cache.get("frame-0")          # the image, now most recently used
    cache.stats().hit_rate        # activity counters for reports
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache's activity counters.

    ``rejections`` counts ``put`` calls whose value exceeded the whole byte
    budget and was therefore never stored (see :meth:`LRUByteCache.put`).
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: Optional[int]
    rejections: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class LRUByteCache:
    """LRU cache bounded by total payload bytes rather than entry count.

    ``max_bytes=None`` disables the bound; ``max_bytes=0`` disables caching
    entirely (every ``get`` misses, ``put`` is a no-op).
    """

    def __init__(self, max_bytes: Optional[int]):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (or None)")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (marking it most recently used) or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries if needed.

        A value larger than the whole budget is not stored at all — caching
        it would immediately evict everything else for a single entry that
        cannot even fit.  The rejection is counted, and any *stale* value
        already cached under the same key is evicted (leaving it would make
        later ``get`` calls return outdated data), with its bytes returned
        to the budget.  On an unbounded cache (``max_bytes=None``) nothing
        is ever oversized, but a put under an existing key still replaces
        the stale entry.  A disabled cache (``max_bytes=0``) stores
        nothing; its dropped puts are counted as rejections so the
        counters reveal that caching was requested but turned off, instead
        of showing a cache that was simply never written to.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.max_bytes == 0:
            self.rejections += 1
            return
        if self.max_bytes is not None and nbytes > self.max_bytes:
            self.rejections += 1
            if key in self._entries:
                self.current_bytes -= self._entries.pop(key)[1]
                self.evictions += 1
            return
        if key in self._entries:
            self.current_bytes -= self._entries.pop(key)[1]
        self._entries[key] = (value, nbytes)
        self.current_bytes += nbytes
        if self.max_bytes is not None:
            while self.current_bytes > self.max_bytes:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_bytes
                self.evictions += 1

    def stats(self) -> CacheStats:
        """Snapshot the activity counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
            current_bytes=self.current_bytes,
            max_bytes=self.max_bytes,
            rejections=self.rejections,
        )
