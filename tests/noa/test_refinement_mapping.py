"""Refinement (scenario 2) and fire-map generation tests."""

import pytest

from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.geometry import from_wkt, to_wkt
from repro.ingest.metadata import NOA_PREFIXES
from repro.strabon import StrabonStore, literal_geometry, strdf
from repro.noa import (
    FireMapBuilder,
    ProcessingChain,
    Refiner,
    score_hotspots,
)
from repro.noa.refinement import truth_region

WORLD = GreeceLikeWorld()
# One inland fire, one coastal fire (for clipping), plus sun glints.
FIRE_SEEDS = [(21.63, 37.7), (23.4, 38.05), (22.5, 38.5)]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("noa")
    spec = SceneSpec(width=128, height=128, seed=11, n_fires=0, n_glints=3)
    scene = generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)
    path = str(tmp / "scene_000.nat")
    write_scene(scene, path)
    ingestor = Ingestor(Database(), StrabonStore())
    ingestor.store.load_graph(WORLD.to_rdf())
    result = ProcessingChain(ingestor).run(path)
    return scene, ingestor, result


def _seeded_ingestor(tmp_path):
    """An ingestor holding the linked-data world and one processed
    scene with fires, coastal fires and sun glints."""
    spec = SceneSpec(width=128, height=128, seed=12, n_fires=4, n_glints=4)
    scene = generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = str(tmp_path / "scene_001.nat")
    write_scene(scene, path)
    ingestor = Ingestor(Database(), StrabonStore())
    ingestor.store.load_graph(WORLD.to_rdf())
    ProcessingChain(ingestor).run(path)
    return ingestor


class TestRefinement:
    def test_statements_are_stsparql(self, pipeline):
        _, ingestor, _ = pipeline
        refiner = Refiner(ingestor.store, WORLD)
        statements = refiner.statements()
        names = [name for name, _ in statements]
        assert names == [
            "delete-in-sea",
            "clip-to-coast",
            "delete-in-lakes",
        ]
        for _, text in statements:
            assert "DELETE" in text
            assert "strdf:" in text

    def test_refinement_improves_precision(self, pipeline):
        scene, ingestor, result = pipeline
        truth = truth_region(scene, WORLD)
        before = score_hotspots(
            [h.geometry for h in result.hotspots], truth
        )
        refiner = Refiner(ingestor.store, WORLD)
        report = refiner.apply()
        after = score_hotspots(refiner.hotspot_geometries(), truth)
        assert after["precision"] > before["precision"]
        assert after["recall"] == pytest.approx(
            before["recall"], abs=1e-6
        )
        assert report.hotspots_after < report.hotspots_before
        assert report.area_after < report.area_before

    def test_sea_hotspots_removed(self, pipeline):
        scene, ingestor, _ = pipeline
        refiner = Refiner(ingestor.store, WORLD)
        for geom in refiner.hotspot_geometries():
            assert geom.intersects(WORLD.land.with_srid(4326))

    def test_remaining_hotspots_on_land(self, pipeline):
        from repro.geometry import predicates

        scene, ingestor, _ = pipeline
        refiner = Refiner(ingestor.store, WORLD)
        land = WORLD.land.with_srid(4326)
        for geom in refiner.hotspot_geometries():
            assert predicates.covers(land, geom) or geom.within(land)

    def test_idempotent(self, pipeline):
        _, ingestor, _ = pipeline
        refiner = Refiner(ingestor.store, WORLD)
        report = refiner.apply()
        assert report.hotspots_before == report.hotspots_after
        assert report.step_count("delete-in-sea") == 0

    def test_same_survivors_with_and_without_spatial_index(
        self, tmp_path
    ):
        spec = SceneSpec(
            width=128, height=128, seed=12, n_fires=4, n_glints=4
        )
        scene = generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)
        path = str(tmp_path / "scene_001.nat")
        write_scene(scene, path)
        stores, reports = [], []
        for use_spatial_index in (True, False):
            ingestor = Ingestor(
                Database(), StrabonStore(use_spatial_index=use_spatial_index)
            )
            ingestor.store.load_graph(WORLD.to_rdf())
            ProcessingChain(ingestor).run(path)
            reports.append(Refiner(ingestor.store, WORLD).apply())
            stores.append(set(ingestor.store.triples()))
        indexed, plain = reports
        assert indexed.steps == plain.steps
        assert indexed.hotspots_after < indexed.hotspots_before
        assert stores[0] == stores[1]

    def test_hotspot_geometries_read_the_store_interner(
        self, tmp_path, monkeypatch
    ):
        """``apply`` reads hotspot geometries the store has parsed and
        gives the survivors and areas a fresh parse of every literal
        gives."""
        spec = SceneSpec(
            width=128, height=128, seed=12, n_fires=4, n_glints=4
        )
        scene = generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)
        path = str(tmp_path / "scene_001.nat")
        write_scene(scene, path)
        ingestor = Ingestor(Database(), StrabonStore())
        ingestor.store.load_graph(WORLD.to_rdf())
        ProcessingChain(ingestor).run(path)
        refiner = Refiner(ingestor.store, WORLD)

        def parsed():
            result = ingestor.store.query(
                NOA_PREFIXES + "SELECT ?g WHERE "
                "{ ?h a noa:Hotspot ; noa:hasGeometry ?g }"
            )
            return [literal_geometry(lit) for (lit,) in result.rows()]

        def interned():
            parses = []
            monkeypatch.setattr(
                strdf, "from_wkt",
                lambda *a, **k: parses.append(a) or from_wkt(*a, **k),
            )
            geoms = refiner.hotspot_geometries()
            monkeypatch.undo()
            assert parses == []  # the store parsed each one on add
            return geoms

        area_before = sum(g.area for g in parsed())
        assert [to_wkt(g) for g in interned()] == [
            to_wkt(g) for g in parsed()
        ]
        report = refiner.apply()
        survivors = interned()
        assert [to_wkt(g) for g in survivors] == [
            to_wkt(g) for g in parsed()
        ]
        assert report.hotspots_after == len(survivors) > 0
        assert report.area_before == area_before
        assert report.area_after == sum(g.area for g in survivors)

    def test_exact_predicates_run_batched(self, tmp_path, monkeypatch):
        """The batched exact kernel decides every delete-in-sea row the
        envelopes leave open; only ``!within`` rows whose edges touch
        the coastline reach the per-row scalar predicate."""
        from repro import obs
        from repro.geometry import algorithms, linework
        from repro.geometry.multi import flatten
        from repro.strabon.stsparql.evaluator import Evaluator

        ingestor = _seeded_ingestor(tmp_path)
        store = ingestor.store
        judged = []
        passes = Evaluator._filter_passes
        monkeypatch.setattr(
            Evaluator,
            "_filter_passes",
            lambda self, expr, sol: judged.append((expr, sol))
            or passes(self, expr, sol),
        )
        land_edges = [
            seg for part in flatten(WORLD.land)
            for seg in linework.polygon_boundary_segments(part)
        ]

        def touches_coast(literal):
            geom = store.geometries.geometry(literal)
            return any(
                algorithms.segments_intersect(p, q, r, s)
                for part in flatten(geom)
                for p, q in linework.polygon_boundary_segments(part)
                for r, s in land_edges
            )

        kernel_rows = {}
        for name, statement in Refiner(store, WORLD).statements():
            del judged[:]
            before = obs.snapshot()["counters"]
            store.update(statement)
            after = obs.snapshot()["counters"]
            delta = {
                key: after.get(f"stsparql.spatial.{key}", 0)
                - before.get(f"stsparql.spatial.{key}", 0)
                for key in ("kernel_rows", "exact_rows")
            }
            kernel_rows[name] = delta["kernel_rows"]
            if name == "delete-in-sea":
                assert judged == []
                assert delta["exact_rows"] == 0
            elif name == "clip-to-coast":
                assert delta["exact_rows"] == len(judged)
                assert judged, "no hotspot straddles the coast"
                for expr, sol in judged:
                    assert "within" in str(expr)
                    assert touches_coast(sol["g"])
        assert kernel_rows["delete-in-sea"] > 0
        assert kernel_rows["clip-to-coast"] > 0

    def test_batched_and_per_row_filters_agree(self, tmp_path, monkeypatch):
        """Survivors, report areas and the fire-map GeoJSON are the same
        with the batched spatial lane and with per-row filters."""
        import json
        import sys

        from repro import kernels

        outcomes = []
        for batch_min in (kernels.FILTER_BATCH_MIN_SOLUTIONS, sys.maxsize):
            monkeypatch.setattr(
                kernels, "FILTER_BATCH_MIN_SOLUTIONS", batch_min
            )
            kernels.clear_caches()
            store = _seeded_ingestor(tmp_path / str(batch_min)).store
            refiner = Refiner(store, WORLD)
            report = refiner.apply()
            geojson = FireMapBuilder(store, WORLD).build().to_geojson()
            outcomes.append(
                (
                    sorted(to_wkt(g) for g in refiner.hotspot_geometries()),
                    report.steps,
                    (report.area_before, report.area_after),
                    sorted(
                        json.dumps(f, sort_keys=True)
                        for f in geojson["features"]
                    ),
                )
            )
        batched, per_row = outcomes
        assert batched[0]  # some hotspot survives
        assert batched == per_row

    def test_step_count_unknown(self, pipeline):
        _, ingestor, _ = pipeline
        report = Refiner(ingestor.store, WORLD).apply()
        with pytest.raises(KeyError):
            report.step_count("nope")


class TestFireMap:
    def test_all_layers_present(self, pipeline):
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        assert set(fire_map.layers) == {
            "hotspots",
            "affected_towns",
            "nearby_sites",
            "threatened_roads",
            "burning_landcover",
        }

    def test_hotspot_layer_geometries(self, pipeline):
        from repro.geometry import from_wkt

        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        hotspots = fire_map.layer("hotspots")
        assert hotspots
        for feature in hotspots:
            geom = from_wkt(feature["wkt"])
            assert geom.area > 0
            assert 0 < feature["conf"] <= 1

    def test_nearby_sites_found(self, pipeline):
        # A fire seed sits ~0.1 deg from Olympia.
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        sites = fire_map.layer("nearby_sites")
        assert any("Olympia" in f["site"] for f in sites)

    def test_landcover_layer_typed(self, pipeline):
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        kinds = {f["kind"] for f in fire_map.layer("burning_landcover")}
        assert kinds <= {
            "Forest",
            "AgriculturalArea",
            "WaterBody",
            "LandMass",
        }
        assert kinds  # something is burning

    def test_queries_recorded(self, pipeline):
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        for name in fire_map.layers:
            assert "SELECT" in fire_map.queries[name]

    def test_to_dict_export(self, pipeline):
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build("Demo")
        doc = fire_map.to_dict()
        assert doc["title"] == "Demo"
        assert set(doc["layers"]) == set(fire_map.layers)
        layer = doc["layers"]["hotspots"]["features"]
        if layer:
            assert "geometry_wkt" in layer[0]
            assert "properties" in layer[0]

    def test_feature_count(self, pipeline):
        _, ingestor, _ = pipeline
        fire_map = FireMapBuilder(ingestor.store, WORLD).build()
        assert fire_map.feature_count() == sum(
            len(v) for v in fire_map.layers.values()
        )


class TestScoring:
    def test_perfect_prediction(self, pipeline):
        scene, _, _ = pipeline
        truth = truth_region(scene, WORLD)
        scores = score_hotspots([truth], truth)
        # Self-intersection of pixel-aligned polygons goes through the
        # perturbed overlay, hence the slightly loose tolerance.
        assert scores["precision"] == pytest.approx(1.0, abs=1e-4)
        assert scores["recall"] == pytest.approx(1.0, abs=1e-4)
        assert scores["f1"] == pytest.approx(1.0, abs=1e-4)

    def test_empty_prediction(self, pipeline):
        scene, _, _ = pipeline
        truth = truth_region(scene, WORLD)
        scores = score_hotspots([], truth)
        assert scores["recall"] == 0.0
        assert scores["f1"] == 0.0

    def test_both_empty(self):
        from repro.geometry import GeometryCollection

        scores = score_hotspots([], GeometryCollection([], srid=4326))
        assert scores["f1"] == 1.0
