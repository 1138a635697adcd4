"""LRUCache eviction order, statistics, invalidation and locking."""

import threading

import pytest

from repro.cache import LRUCache


def test_get_or_compute_caches_value():
    cache = LRUCache(maxsize=4)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_evicts_least_recently_used():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a → b is now oldest
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats.evictions == 1


def test_put_existing_key_updates_without_eviction():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert cache.get("a") == 10
    assert "b" in cache
    assert cache.stats.evictions == 0


def test_invalidate_and_clear():
    cache = LRUCache(maxsize=4)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.invalidate("a") is True
    assert cache.invalidate("a") is False
    assert cache.stats.invalidations == 1
    cache.clear()
    assert len(cache) == 0
    # clear() counts one invalidation per dropped entry ("b" remained)
    assert cache.stats.invalidations == 2
    cache.clear(reset_stats=True)
    assert cache.stats.invalidations == 0


def test_hit_rate():
    cache = LRUCache(maxsize=4)
    assert cache.stats.hit_rate == 0.0
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("missing")
    assert cache.stats.hit_rate == pytest.approx(2 / 3)


def test_none_values_are_cached():
    cache = LRUCache(maxsize=4)
    calls = []

    def compute():
        calls.append(1)
        return None

    assert cache.get_or_compute("k", compute) is None
    assert cache.get_or_compute("k", compute) is None
    assert len(calls) == 1


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


# -- re-entrant invalidation (interleaved iterator resumptions) ----------------
#
# A compute is allowed to mutate the cache it runs inside (the RLock is
# re-entrant): a resumable query pipeline rebuilding mid-compute may
# invalidate the very key being computed.  The stale result must be
# returned to its caller but NOT cached over the invalidation.


def test_invalidate_during_compute_is_not_overwritten():
    cache = LRUCache(maxsize=8)

    def compute():
        # Interleaved resumption invalidates the key mid-compute.
        cache.invalidate("k")
        return "stale"

    assert cache.get_or_compute("k", compute) == "stale"
    assert "k" not in cache  # the invalidation won
    assert cache.get_or_compute("k", lambda: "fresh") == "fresh"
    assert cache.get("k") == "fresh"


def test_clear_during_compute_is_not_resurrected():
    cache = LRUCache(maxsize=8)
    cache.put("other", 1)

    def compute():
        cache.clear()
        return "stale"

    assert cache.get_or_compute("k", compute) == "stale"
    assert "k" not in cache
    assert "other" not in cache
    assert len(cache) == 0


def test_invalidating_a_different_key_does_not_fence_the_compute():
    cache = LRUCache(maxsize=8)
    cache.put("other", 1)

    def compute():
        cache.invalidate("other")
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get("k") == "value"  # unrelated invalidation: cached


def test_nested_compute_of_same_key_after_inner_invalidate():
    cache = LRUCache(maxsize=8)
    order = []

    def outer():
        order.append("outer-start")
        cache.invalidate("k")  # fences the outer compute
        inner = cache.get_or_compute("k", lambda: "inner")
        order.append(f"inner={inner}")
        return "outer"

    assert cache.get_or_compute("k", outer) == "outer"
    # The inner compute ran after the invalidation, so its value is the
    # one that survives; the fenced outer result was returned but not
    # stored over it.
    assert cache.get("k") == "inner"
    assert order == ["outer-start", "inner=inner"]


def test_epoch_bookkeeping_is_pruned():
    cache = LRUCache(maxsize=8)

    def compute():
        cache.invalidate("k")
        return "v"

    cache.get_or_compute("k", compute)
    cache.get_or_compute("other", lambda: 1)
    # No compute in flight → no retained per-key epoch state.
    assert cache._key_epochs == {}
    assert cache._inflight == {}


def test_failed_compute_cleans_up_inflight_tracking():
    cache = LRUCache(maxsize=8)

    def compute():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.get_or_compute("k", compute)
    assert cache._inflight == {}
    assert "k" not in cache
    assert cache.get_or_compute("k", lambda: "ok") == "ok"


def test_mark_refusal_reclassifies_hit():
    # Refusal sentinels are stored like any value, so the lookup lands
    # as a hit first; mark_refusal() moves it to the refusals column so
    # cached compile-refusals never inflate the hit rate.
    cache = LRUCache(maxsize=4)
    sentinel = object()
    cache.put("k", sentinel)
    assert cache.get("k") is sentinel
    assert cache.stats.hits == 1
    cache.mark_refusal()
    assert cache.stats.hits == 0
    assert cache.stats.refusals == 1
    assert cache.stats.lookups == 1
    assert cache.stats.hit_rate == 0.0


def test_reset_stats_zeroes_refusals():
    cache = LRUCache(maxsize=4)
    cache.put("k", 1)
    cache.get("k")
    cache.mark_refusal()
    cache.reset_stats()
    assert cache.stats.refusals == 0
    assert cache.stats.hits == 0


class TestThreadSafeLRUCache:
    def test_concurrent_hammer(self):
        cache = LRUCache(maxsize=32)
        errors = []

        def worker(seed):
            try:
                for i in range(300):
                    key = (seed * 7 + i) % 64
                    value = cache.get_or_compute(key, lambda k=key: k * 2)
                    assert value == key * 2
                    if i % 50 == 0:
                        assert cache.stats.lookups >= 0
                        cache.invalidate(key)
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 32

    def test_get_or_compute_reentrant(self):
        cache = LRUCache(maxsize=8)

        def outer():
            return cache.get_or_compute("inner", lambda: 41) + 1

        assert cache.get_or_compute("outer", outer) == 42
        assert cache.get("inner") == 41
