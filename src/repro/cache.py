"""A small reusable LRU cache with hit/miss statistics.

Shared by the query-engine hot paths: prepared-plan caches in
:class:`repro.strabon.StrabonStore` and :class:`repro.mdb.Database`, and
the geometry-literal interner in :mod:`repro.strabon.strdf`.  The
benchmarks (``bench_a5_repeated_queries``) read the counters to report
cache effectiveness, so every lookup is accounted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, Optional

from repro import obs

__all__ = ["CacheStats", "LRUCache"]

_MISSING = object()


@dataclass
class CacheStats:
    """A point-in-time snapshot of cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    maxsize: int = 0
    refusals: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.refusals

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle).

        Refusal-sentinel lookups count as lookups but not as hits: a
        cached "don't compile this" verdict saves re-lowering work, but
        reporting it as a hit would inflate how often a *usable* entry
        was served.
        """
        total = self.lookups
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"refusals={self.refusals} "
            f"hit_rate={self.hit_rate:.1%} size={self.size}/{self.maxsize}>"
        )


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Recency is maintained with the insertion order of the backing dict
    (re-inserting on access moves a key to the most-recent end), which
    keeps ``get``/``put`` O(1) without a linked list.

    The cache is thread-safe: the plan caches and the geometry interner
    are shared by every caller of a store or database, on whatever
    threads the caller runs them, so every mutating operation — including the recency reshuffle inside ``get``
    — runs under one re-entrant lock.  ``get_or_compute`` holds the lock
    across the compute so concurrent callers of the same key compute it
    once (re-entrant, so a compute may itself consult the cache).

    Re-entrancy makes a lock alone insufficient: a compute can itself
    mutate the cache — a resumable query pipeline rebuilding mid-compute
    may ``invalidate`` or ``clear`` the very key being computed, and the
    RLock lets that through on the same thread.  Without a guard the
    compute's stale result would be ``put`` *after* the invalidation and
    resurrect the dropped entry.  ``get_or_compute`` therefore snapshots
    an epoch before computing — one global epoch bumped by ``clear``,
    per-key epochs bumped by ``invalidate`` while a compute for the key
    is in flight — and only caches the result when neither moved; the
    freshly computed value is still returned either way.
    """

    __slots__ = (
        "_data", "_lock", "maxsize", "name",
        "hits", "misses", "evictions", "invalidations", "refusals",
        "_epoch", "_key_epochs", "_inflight",
        "__weakref__",
    )

    def __init__(self, maxsize: int = 128, name: Optional[str] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: Dict[Hashable, Any] = {}
        self._lock = threading.RLock()
        # Invalidation epochs guarding in-flight computes (see class
        # docstring).  _key_epochs only holds keys with a live compute
        # (_inflight counts them), so neither dict grows with the keyspace.
        self._epoch = 0
        self._key_epochs: Dict[Hashable, int] = {}
        self._inflight: Dict[Hashable, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.refusals = 0
        # Every cache's live stats are visible in metrics snapshots; the
        # registry holds only a weak reference, so transient caches
        # disappear once their owner does.
        self.name = obs.register_cache(self, name or "cache")

    # -- lookups ------------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            value = self._data.pop(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data[key] = value  # move to most-recent position
            self.hits += 1
            return value

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value, computing it on a miss.

        The computed value is stored only if the key was not invalidated
        (and the cache not cleared) while the compute ran — a compute is
        allowed to mutate this cache, and its result must not outlive an
        invalidation it raced with.
        """
        with self._lock:
            value = self.get(key, _MISSING)
            if value is not _MISSING:
                return value
            epoch = self._epoch
            key_epoch = self._key_epochs.get(key, 0)
            self._inflight[key] = self._inflight.get(key, 0) + 1
            completed = False
            try:
                value = compute()
                completed = True
            finally:
                # Judge staleness before dropping the in-flight marker:
                # pruning _key_epochs first would erase the very bump an
                # interleaved invalidate recorded for us.
                unchanged = (
                    self._epoch == epoch
                    and self._key_epochs.get(key, 0) == key_epoch
                )
                remaining = self._inflight[key] - 1
                if remaining:
                    self._inflight[key] = remaining
                else:
                    del self._inflight[key]
                    self._key_epochs.pop(key, None)
            if completed and unchanged:
                self.put(key, value)
            return value

    def mark_refusal(self) -> None:
        """Reclassify the most recent hit as a refusal-sentinel lookup.

        Callers that cache negative results ("don't compute this")
        under sentinel values call this right after ``get`` returned
        the sentinel: the lookup moves from ``hits`` to ``refusals`` so
        hit rates keep meaning "a usable entry was served".
        """
        with self._lock:
            self.hits -= 1
            self.refusals += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data  # no stats impact: a peek, not a lookup

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    # -- mutation ------------------------------------------------------------

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace an entry, evicting the LRU entry when full."""
        with self._lock:
            if key in self._data:
                del self._data[key]
            elif len(self._data) >= self.maxsize:
                oldest = next(iter(self._data))
                del self._data[oldest]
                self.evictions += 1
            self._data[key] = value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present.

        Also fences any in-flight compute of ``key``: its result will be
        returned to its caller but not cached.
        """
        with self._lock:
            if key in self._inflight:
                self._key_epochs[key] = self._key_epochs.get(key, 0) + 1
            if self._data.pop(key, _MISSING) is _MISSING:
                return False
            self.invalidations += 1
            return True

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry (counted as one invalidation per entry).

        Fences every in-flight compute (global epoch bump), so nothing
        computed before the clear is cached after it.
        """
        with self._lock:
            self._epoch += 1
            self.invalidations += len(self._data)
            self._data.clear()
            if reset_stats:
                self.reset_stats()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = 0
            self.evictions = self.invalidations = self.refusals = 0

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                size=len(self._data),
                maxsize=self.maxsize,
                refusals=self.refusals,
            )

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def __repr__(self) -> str:
        return f"<LRUCache {self.name} {self.stats!r}>"
