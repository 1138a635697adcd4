"""SceneCatalog broker tests: hierarchy, closure joins, bulk paths."""

from datetime import datetime

import pytest

from repro import obs
from repro.mdb import Database
from repro.mdb.errors import CatalogError
from repro.mdb.datavault import SceneCatalog
from repro.mdb.storage import open_database
from repro.vo.services import MetricsService


def scene(path, mission="meteosat9", sensor="seviri", when=None, **kw):
    return {
        "path": path,
        "mission": mission,
        "sensor": sensor,
        "acquired": when or datetime(2007, 8, 25, 12, 15),
        **kw,
    }


@pytest.fixture
def catalog():
    return SceneCatalog(Database())


class TestHierarchy:
    def test_schema_is_idempotent(self, catalog):
        # A second broker over the same database reuses the schema and
        # the interned nodes.
        catalog.register(scene("/a/one.nat"))
        again = SceneCatalog(catalog.db)
        assert again.scene_count() == 1
        assert again.node_id("meteosat9") == catalog.node_id("meteosat9")

    def test_nodes_are_interned_once(self, catalog):
        catalog.bulk_register(
            [scene(f"/a/{i}.nat") for i in range(5)]
        )
        nodes = catalog.db.query(
            "SELECT kind, label FROM catalog_nodes ORDER BY id"
        )
        # root + mission + sensor + one day node, regardless of count.
        assert nodes == [
            ("root", ""),
            ("mission", "meteosat9"),
            ("sensor", "seviri"),
            ("day", "2007-08-25"),
        ]

    def test_node_id_walks_labels(self, catalog):
        catalog.register(scene("/a/one.nat"))
        mission = catalog.node_id("meteosat9")
        sensor = catalog.node_id("meteosat9", "seviri")
        day = catalog.node_id("meteosat9", "seviri", "2007-08-25")
        assert mission != sensor != day
        assert catalog.has_node("meteosat9", "seviri")
        assert not catalog.has_node("landsat5")
        with pytest.raises(CatalogError):
            catalog.node_id("landsat5")

    def test_closure_depths(self, catalog):
        catalog.register(scene("/a/one.nat"))
        day = catalog.node_id("meteosat9", "seviri", "2007-08-25")
        rows = catalog.db.query(
            "SELECT ancestor, depth FROM catalog_closure "
            f"WHERE descendant = {day} ORDER BY depth"
        )
        mission = catalog.node_id("meteosat9")
        sensor = catalog.node_id("meteosat9", "seviri")
        assert rows == [(day, 0), (sensor, 1), (mission, 2), (0, 3)]


class TestQueries:
    @pytest.fixture
    def populated(self, catalog):
        scenes = list(SceneCatalog.synthesize_scenes(400, seed=3))
        catalog.bulk_register(scenes)
        return catalog, scenes

    def test_bulk_register_counts(self, populated):
        catalog, scenes = populated
        assert catalog.scene_count() == len(scenes) == 400

    def test_subtree_counts_partition_archive(self, populated):
        catalog, scenes = populated
        report = dict(catalog.mission_report())
        total = 0
        for mission, count in report.items():
            node = catalog.node_id(mission)
            assert catalog.count_subtree(node) == count
            total += count
        assert total == 400
        assert catalog.count_subtree(0) == 400  # root sees everything

    def test_sensor_subtree(self, populated):
        catalog, scenes = populated
        node = catalog.node_id("meteosat9", "seviri")
        expected = sum(
            1 for s in scenes if s["mission"] == "meteosat9"
        )
        assert catalog.count_subtree(node) == expected
        assert len(catalog.subtree_nodes(node)) >= 2

    def test_window_counts(self, populated):
        catalog, scenes = populated
        start, stop = datetime(2008, 1, 1), datetime(2009, 1, 1)
        expected = sum(
            1 for s in scenes if start <= s["acquired"] < stop
        )
        assert catalog.scenes_in_window(start, stop) == expected

    def test_synthesize_is_deterministic(self):
        a = list(SceneCatalog.synthesize_scenes(50, seed=9))
        b = list(SceneCatalog.synthesize_scenes(50, seed=9))
        assert a == b
        assert len({s["path"] for s in a}) == 50

    def test_subtree_join_sees_only_the_subtree(self, populated):
        # The ancestor filter runs on the closure scan, so the join emits
        # exactly the counted rows, not one row per (scene, ancestor).
        catalog, _ = populated
        node = catalog.node_id("meteosat9")
        registry = obs.get_registry()
        previous = registry.enabled
        registry.set_enabled(True)
        try:
            before = MetricsService(registry).snapshot()["counters"]
            count = catalog.count_subtree(node)
            after = MetricsService(registry).snapshot()["counters"]
        finally:
            registry.set_enabled(previous)

        def rose(name):
            return after.get(name, 0) - before.get(name, 0)

        assert 0 < count < catalog.scene_count()
        assert rose("sql.join.rows") == count
        assert rose("sql.where.pushed") == 1

    def test_join_counters_cost_nothing_when_disabled(self, populated):
        catalog, _ = populated
        registry = obs.get_registry()
        previous = registry.enabled
        registry.set_enabled(False)
        try:
            before = registry.snapshot()["counters"]
            catalog.count_subtree(catalog.node_id("meteosat9"))
            assert registry.snapshot()["counters"] == before
        finally:
            registry.set_enabled(previous)

    def test_batching_splits_inserts(self):
        catalog = SceneCatalog(Database(), batch_size=64)
        n = catalog.bulk_register(
            SceneCatalog.synthesize_scenes(200, seed=1)
        )
        assert n == 200
        assert catalog.scene_count() == 200


class TestDurableBroker:
    def test_reload_keeps_ids_and_counts(self, tmp_path):
        eng = open_database(str(tmp_path / "data"))
        catalog = SceneCatalog(eng.db, batch_size=100)
        catalog.bulk_register(SceneCatalog.synthesize_scenes(300, seed=2))
        mission_ids = {
            m: catalog.node_id(m) for m, _ in catalog.mission_report()
        }
        report = catalog.mission_report()
        eng.close()

        eng2 = open_database(str(tmp_path / "data"))
        reloaded = SceneCatalog(eng2.db)
        assert reloaded.scene_count() == 300
        assert reloaded.mission_report() == report
        for mission, node in mission_ids.items():
            assert reloaded.node_id(mission) == node

        # Incremental registration after reload continues id sequences.
        reloaded.register(
            scene("/late/one.nat", when=datetime(2009, 3, 1))
        )
        ids = [r[0] for r in eng2.db.query("SELECT id FROM scenes")]
        assert len(set(ids)) == 301
        eng2.close()
