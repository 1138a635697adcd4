"""Worker-pool scheduler tests: ordering, errors, fallbacks, tiling."""

import threading

import pytest

from repro import parallel
from repro.cache import LRUCache
from repro.parallel import TaskScheduler, get_scheduler, split_bands


class TestSplitBands:
    def test_covers_range_contiguously(self):
        bands = split_bands(100, 4)
        assert bands[0][0] == 0
        assert bands[-1][1] == 100
        for (_, stop), (start, _) in zip(bands, bands[1:]):
            assert stop == start

    def test_uneven_total(self):
        bands = split_bands(10, 3)
        assert [stop - start for start, stop in bands] == [3, 3, 4]

    def test_more_parts_than_items(self):
        bands = split_bands(2, 8)
        assert bands == [(0, 1), (1, 2)]

    def test_single_part(self):
        assert split_bands(7, 1) == [(0, 7)]

    def test_zero_total(self):
        assert split_bands(0, 4) == []

    def test_multiple_alignment(self):
        bands = split_bands(100, 3, multiple=7)
        for start, stop in bands[:-1]:
            assert start % 7 == 0 and stop % 7 == 0
        assert bands[-1][1] == 100  # tail keeps the remainder

    def test_multiple_larger_than_share(self):
        # Each ideal cut rounds to 0: everything lands in one band.
        assert split_bands(10, 4, multiple=10) == [(0, 10)]

    def test_deterministic(self):
        assert split_bands(1013, 8, 3) == split_bands(1013, 8, 3)

    def test_bad_multiple(self):
        with pytest.raises(ValueError):
            split_bands(10, 2, multiple=0)


class TestTaskScheduler:
    def test_map_preserves_input_order(self):
        with TaskScheduler(workers=4) as sched:
            out = sched.map(lambda x: x * x, range(100))
        assert out == [x * x for x in range(100)]

    def test_map_beyond_queue_capacity(self):
        # More tasks than the bounded queue holds: backpressure, no loss.
        with TaskScheduler(workers=2, queue_size=2) as sched:
            out = sched.map(lambda x: x + 1, range(500))
        assert out == list(range(1, 501))

    def test_serial_scheduler_spawns_no_threads(self):
        sched = TaskScheduler(workers=1)
        before = threading.active_count()
        assert sched.map(lambda x: -x, range(10)) == [-x for x in range(10)]
        assert threading.active_count() == before
        assert sched._threads == []

    def test_single_item_runs_inline(self):
        sched = TaskScheduler(workers=4)
        try:
            caller = threading.current_thread().name
            seen = sched.map(
                lambda _: threading.current_thread().name, ["only"]
            )
            assert seen == [caller]
            assert sched._threads == []  # pool never started
        finally:
            sched.close()

    def test_earliest_index_error_raised(self):
        def boom(x):
            if x % 3 == 0:
                raise ValueError(f"bad {x}")
            return x

        with TaskScheduler(workers=4) as sched:
            with pytest.raises(ValueError, match="bad 0"):
                sched.map(boom, range(20))

    def test_error_matches_serial_loop(self):
        def boom(x):
            if x == 7:
                raise KeyError(x)
            return x

        with TaskScheduler(workers=3) as sched:
            with pytest.raises(KeyError):
                sched.map(boom, range(10))
        # The pool survives a failed batch.
        with TaskScheduler(workers=3) as sched:
            assert sched.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]

    def test_nested_map_degrades_to_serial(self):
        with TaskScheduler(workers=2) as sched:

            def outer(x):
                assert sched.in_worker
                inner = sched.map(lambda y: y + x, range(5))
                return sum(inner)

            out = sched.map(outer, range(8))
        assert out == [sum(y + x for y in range(5)) for x in range(8)]

    def test_starmap(self):
        with TaskScheduler(workers=2) as sched:
            out = sched.starmap(lambda a, b: a - b, [(5, 2), (1, 9)])
        assert out == [3, -8]

    def test_close_idempotent_and_final(self):
        sched = TaskScheduler(workers=2)
        sched.map(lambda x: x, range(10))
        sched.close()
        sched.close()
        with pytest.raises(RuntimeError):
            sched.map(lambda x: x, range(10))

    def test_in_worker_false_on_caller(self):
        with TaskScheduler(workers=2) as sched:
            sched.map(lambda x: x, range(4))
            assert not sched.in_worker


class TestResolution:
    def test_env_workers_default(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert parallel.env_workers() == 1

    def test_env_workers_set(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "6")
        assert parallel.env_workers() == 6
        assert parallel.resolve_workers() == 6

    def test_env_workers_invalid_falls_back(self, monkeypatch):
        """A mis-set REPRO_WORKERS degrades to the default, never raises."""
        for bad in ("many", "0", "-2", "1.5"):
            monkeypatch.setenv(parallel.WORKERS_ENV, bad)
            assert parallel.env_workers() == 1
            assert parallel.env_workers(default=3) == 3
            assert parallel.resolve_workers() == 1

    def test_env_workers_invalid_records_warning_metric(self, monkeypatch):
        from repro import obs

        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            monkeypatch.setenv(parallel.WORKERS_ENV, "abc")
            before = obs.counter("parallel.workers.invalid").value
            parallel.env_workers()
            after = obs.counter("parallel.workers.invalid").value
        finally:
            registry.set_enabled(was_enabled)
        assert after == before + 1

    def test_explicit_nonpositive_workers_fall_back(self, monkeypatch):
        """resolve_workers clamps explicit workers <= 0 to the env default."""
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert parallel.resolve_workers(0) == 3
        assert parallel.resolve_workers(-4) == 3
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert parallel.resolve_workers(0) == 1
        # A scheduler built with a bad count still works (serial).
        sched = TaskScheduler(workers=0)
        assert sched.workers == 1
        assert sched.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "8")
        assert parallel.resolve_workers(2) == 2

    def test_get_scheduler_explicit_wins(self):
        mine = TaskScheduler(workers=1)
        assert get_scheduler(mine, workers=4) is mine

    def test_get_scheduler_shared_by_count(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert get_scheduler() is get_scheduler()
        assert get_scheduler().workers == 1

    def test_parallel_map(self):
        out = parallel.parallel_map(lambda x: 2 * x, range(50), workers=3)
        assert out == [2 * x for x in range(50)]


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


class TestProducerHelps:
    """The bounded queue must never deadlock a producer.

    These are regression hammers for the cross-pool circular wait: a
    worker of pool A submitting into pool B's full queue while B's
    workers submit into A's.  With blocking puts this wedged permanently;
    with producer-helps draining every configuration below completes.
    """

    def test_cross_pool_ping_pong_hammer(self):
        # Tiny queues make the full-queue window easy to hit.
        pool_a = TaskScheduler(workers=2, queue_size=2)
        pool_b = TaskScheduler(workers=2, queue_size=2)
        try:
            def in_b(x):
                return x + 1

            def via_b(x):
                return sum(pool_b.map(in_b, range(x % 5 + 4)))

            def via_a(x):
                return sum(pool_a.map(in_b, range(x % 5 + 4)))

            done = []

            def hammer(pool, fn, n):
                done.append(pool.map(fn, range(n)))

            threads = [
                threading.Thread(target=hammer, args=(pool_a, via_b, 40)),
                threading.Thread(target=hammer, args=(pool_b, via_a, 40)),
                threading.Thread(target=hammer, args=(pool_a, via_b, 40)),
                threading.Thread(target=hammer, args=(pool_b, via_a, 40)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(not t.is_alive() for t in threads), (
                "cross-pool map deadlocked"
            )
            expected = [sum(range(x % 5 + 4)) + (x % 5 + 4) for x in range(40)]
            assert done == [expected] * 4
        finally:
            pool_a.close()
            pool_b.close()

    def test_producer_steals_when_queue_saturated(self):
        # One worker, queue of one, many tasks: the producer must help
        # drain its own backlog instead of blocking on put.
        with TaskScheduler(workers=1, queue_size=1) as sched:
            # Occupy the worker so the queue genuinely fills.
            gate = threading.Event()

            def slow_then(x):
                gate.wait(5)
                return x * 2

            results = []

            def produce():
                results.append(sched.map(slow_then, range(30)))

            producer = threading.Thread(target=produce)
            producer.start()
            gate.set()
            producer.join(timeout=60)
            assert not producer.is_alive()
            assert results == [[x * 2 for x in range(30)]]

    def test_steal_preserves_order_and_errors(self):
        with TaskScheduler(workers=2, queue_size=2) as sched:
            with pytest.raises(ValueError, match="task 13"):
                sched.map(
                    lambda x: (_ for _ in ()).throw(ValueError(f"task {x}"))
                    if x == 13
                    else x,
                    range(40),
                )

    def test_nested_map_inside_stolen_task_is_serial(self):
        # A stolen task running on the producer thread must see itself
        # as "in worker": its own nested map degrades to the serial path
        # instead of re-entering the queue.
        with TaskScheduler(workers=1, queue_size=1) as sched:
            def nested(x):
                return sum(sched.map(lambda y: y + x, range(3)))

            out = sched.map(nested, range(25))
        assert out == [sum(y + x for y in range(3)) for x in range(25)]


class TestBulkFlushSerialisation:
    def test_concurrent_bulk_windows_do_not_double_emit(self):
        from repro.geometry import Envelope, Point
        from repro.strabon import StrabonStore, geometry_literal
        from repro.rdf.term import URIRef

        store = StrabonStore()
        errors = []

        def load(k):
            try:
                with store.bulk():
                    for i in range(40):
                        store.add(
                            (
                                URIRef(f"http://example.org/s{k}_{i}"),
                                URIRef("http://example.org/p"),
                                URIRef(f"http://example.org/o{k}_{i}"),
                            )
                        )
                    store.add(
                        (
                            URIRef(f"http://example.org/s{k}"),
                            URIRef("http://example.org/geom"),
                            geometry_literal(Point(k, k)),
                        )
                    )
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=load, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert all(not t.is_alive() for t in threads)
        assert len(store) == len(set(store.triples())) == 8 * 41
        # The last window out rebuilt the R-tree over every thread's
        # geometry.
        assert store._bulk_depth == 0
        assert store.spatial_candidates(Envelope(0, 0, 7, 7)) == {
            geometry_literal(Point(k, k)) for k in range(8)
        }
