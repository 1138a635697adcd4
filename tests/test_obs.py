"""The observability layer: metrics primitives, spans, registry, gating."""

import threading
import time

import pytest

from repro import obs
from repro.cache import LRUCache


@pytest.fixture
def registry():
    """A fresh, enabled registry (the process singleton is untouched)."""
    return obs.MetricsRegistry(enabled=True)


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("x")
        c.inc()
        c.inc(4)
        c.inc(0.5)
        assert c.value == 5.5

    def test_same_name_same_object(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_negative_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_concurrent_increments_not_lost(self, registry):
        """Hammer one counter from 16 threads: no lost updates."""
        c = registry.counter("hammer")

        def work():
            for _k in range(500):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 16 * 500


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistogram:
    def test_summary_exact_stats(self, registry):
        h = registry.histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0
        assert s["max"] == 4.0

    def test_percentiles(self, registry):
        h = registry.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0.5) == 50.0
        assert h.percentile(0.95) == 95.0
        assert h.summary()["p50"] == 50.0
        assert h.summary()["p95"] == 95.0

    def test_empty_summary(self, registry):
        s = registry.histogram("empty").summary()
        assert s["count"] == 0
        assert s["p95"] == 0.0

    def test_window_bounded_but_stats_exact(self, registry):
        h = obs.Histogram("tiny", window=8)
        for v in range(100):
            h.observe(float(v))
        s = h.summary()
        # Exact stats cover ALL observations...
        assert s["count"] == 100
        assert s["min"] == 0.0
        assert s["max"] == 99.0
        # ...while percentiles come from the retained (recent) window.
        assert s["p50"] >= 92.0

    def test_concurrent_observations_not_lost(self, registry):
        h = registry.histogram("conc")
        threads = [
            threading.Thread(
                target=lambda seed=seed: [
                    h.observe(seed + k) for k in range(200)
                ]
            )
            for seed in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 12 * 200


class TestSpans:
    def test_span_times_into_histogram(self, registry):
        with registry.span("work") as sp:
            time.sleep(0.01)
        assert sp.elapsed >= 0.009
        s = registry.histogram("work").summary()
        assert s["count"] == 1
        assert s["max"] >= 0.009

    def test_nesting_and_current_span(self, registry):
        assert registry.current_span() is None
        with registry.span("outer") as outer:
            assert registry.current_span() is outer
            with registry.span("inner", step=3) as inner:
                assert registry.current_span() is inner
                assert inner.tags == {"step": 3}
            assert registry.current_span() is outer
        assert registry.current_span() is None
        assert registry.histogram("outer").count == 1
        assert registry.histogram("inner").count == 1

    def test_span_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert registry.histogram("boom").count == 1
        assert registry.current_span() is None

    def test_span_stack_is_per_thread(self, registry):
        seen = {}

        def worker():
            seen["inner"] = registry.current_span()

        with registry.span("main-thread"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["inner"] is None


class TestDisabledMode:
    def test_accessors_return_noops(self):
        reg = obs.MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc(5)
        assert c.value == 0
        g = reg.gauge("g")
        g.set(9)
        assert g.value == 0.0
        h = reg.histogram("h")
        h.observe(1.0)
        assert h.count == 0
        with reg.span("s") as sp:
            pass
        assert sp.elapsed is None
        snap = reg.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_noops_are_shared_singletons(self):
        reg = obs.MetricsRegistry(enabled=False)
        assert reg.counter("a") is reg.counter("b")
        assert reg.histogram("a") is reg.histogram("b")

    def test_env_gate_values(self, monkeypatch):
        for off in ("0", "false", "off", "no", "FALSE", " Off "):
            monkeypatch.setenv(obs.OBS_ENV, off)
            assert obs.MetricsRegistry().enabled is False
        for on in ("", "1", "true", "yes", "anything"):
            monkeypatch.setenv(obs.OBS_ENV, on)
            assert obs.MetricsRegistry().enabled is True
        monkeypatch.delenv(obs.OBS_ENV)
        assert obs.MetricsRegistry().enabled is True

    def test_toggle_at_runtime(self):
        reg = obs.MetricsRegistry(enabled=True)
        reg.counter("kept").inc()
        reg.set_enabled(False)
        reg.counter("kept").inc()  # no-op while disabled
        reg.set_enabled(True)
        assert reg.counter("kept").value == 1


class TestCacheRegistration:
    def test_lru_caches_auto_register(self):
        cache = LRUCache(maxsize=4, name="test.autoreg")
        try:
            cache.put("k", 1)
            cache.get("k")
            cache.get("absent")
            snap = obs.snapshot()
            stats = snap["caches"][cache.name]
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["maxsize"] == 4
            assert stats["hit_rate"] == 0.5
        finally:
            del cache

    def test_duplicate_names_suffixed(self, registry):
        a = LRUCache(maxsize=2)
        b = LRUCache(maxsize=2)
        n1 = registry.register_cache(a, "dup")
        n2 = registry.register_cache(b, "dup")
        assert n1 == "dup"
        assert n2 == "dup#2"
        assert {n1, n2} <= set(registry.snapshot()["caches"])

    def test_dead_caches_pruned(self, registry):
        cache = LRUCache(maxsize=2)
        name = registry.register_cache(cache, "transient")
        assert name in registry.snapshot()["caches"]
        del cache
        import gc

        gc.collect()
        assert name not in registry.snapshot()["caches"]


class TestSnapshotAndRender:
    def test_snapshot_structure(self, registry):
        registry.counter("c").inc(3)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_snapshot_json_serialisable(self, registry):
        import json

        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        json.dumps(registry.snapshot())

    def test_render_sections(self, registry):
        registry.counter("noa.batch.ok").inc(2)
        registry.gauge("server.queue_depth").set(0.75)
        registry.histogram("noa.stage.cropping").observe(0.01)
        text = registry.render()
        assert "# counters" in text
        assert "noa.batch.ok 2" in text
        assert "# gauges" in text
        assert "server.queue_depth 0.75" in text
        assert "noa.stage.cropping count=1" in text

    def test_reset_clears_metrics_keeps_caches(self, registry):
        cache = LRUCache(maxsize=2)
        registry.register_cache(cache, "sticky")
        registry.counter("c").inc()
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert "sticky" in snap["caches"]


class TestMetricsService:
    def test_service_wraps_registry(self, registry):
        from repro.vo.services import MetricsService

        registry.counter("svc.hits").inc(7)
        service = MetricsService(registry)
        assert service.enabled
        assert service.snapshot()["counters"]["svc.hits"] == 7
        assert "svc.hits 7" in service.exposition()
        service.reset()
        assert service.snapshot()["counters"] == {}

    def test_observatory_exposes_metrics(self):
        from repro.vo import VirtualEarthObservatory

        vo = VirtualEarthObservatory(load_linked_data=False)
        snap = vo.metrics.snapshot()
        assert "caches" in snap and "histograms" in snap


class TestRefusalsInSnapshot:
    def test_cache_snapshot_carries_refusals(self):
        cache = LRUCache(maxsize=4, name="test.refusals")
        try:
            cache.put("k", object())
            cache.get("k")
            cache.mark_refusal()
            stats = obs.snapshot()["caches"][cache.name]
            assert stats["refusals"] == 1
            assert stats["hits"] == 0
        finally:
            del cache
