"""Virtual Earth Observatory integration tests (all four tiers)."""

import os
from datetime import datetime

import pytest

from repro.eo import SceneSpec, generate_scene, write_scene
from repro.vo import VirtualEarthObservatory

FIRE_SEEDS = [(21.63, 37.7), (22.5, 38.5)]


@pytest.fixture(scope="module")
def vo_with_archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("archive")
    vo = VirtualEarthObservatory()
    for i in range(3):
        spec = SceneSpec(
            width=96,
            height=96,
            seed=20 + i,
            n_fires=0,
            n_glints=2,
            acquired=datetime(2007, 8, 25, 10 + i, 0),
        )
        scene = generate_scene(spec, vo.world.land, fire_seeds=FIRE_SEEDS)
        write_scene(scene, str(tmp / f"scene_{i:03d}.nat"))
    report = vo.ingest_archive(str(tmp))
    return vo, report, tmp


class TestIngestionTier:
    def test_archive_ingested(self, vo_with_archive):
        vo, report, _ = vo_with_archive
        assert len(report.products) == 3
        stats = vo.statistics()
        assert stats["vault_files"] == 3
        assert stats["products"] >= 3

    def test_lazy_by_default(self, vo_with_archive):
        vo, _, _ = vo_with_archive
        # Only scenes touched by later chain runs get cached.
        assert vo.vault.cached_count <= len(vo.vault)


class TestApplicationTier:
    def test_fire_monitoring_end_to_end(self, vo_with_archive, tmp_path):
        vo, report, _ = vo_with_archive
        out = vo.run_fire_monitoring(
            report.products[0].path, output_dir=str(tmp_path)
        )
        chain = out["chain"]
        assert chain.hotspots
        assert chain.shapefile_path and os.path.exists(chain.shapefile_path)
        assert out["refinement"].hotspots_after <= out[
            "refinement"
        ].hotspots_before
        assert "hotspots" in out["map"].layers

    def test_compare_chains(self, vo_with_archive):
        from repro.eo.seviri import read_scene

        vo, report, _ = vo_with_archive
        path = report.products[1].path
        results = vo.compare_chains(path, ["static", "contextual"])
        assert set(results) == {"static", "contextual"}
        scene = read_scene(path)
        for result in results.values():
            scores = vo.score_result(result, scene)
            assert scores["recall"] > 0.3

    def test_refinement_statements_exposed(self, vo_with_archive):
        vo, _, _ = vo_with_archive
        statements = vo.rapid_mapping.refinement_statements()
        assert len(statements) == 3


class TestCatalogTier:
    def test_classic_criteria(self, vo_with_archive):
        vo, _, _ = vo_with_archive
        q = vo.new_query().mission("MSG2").level(0)
        hits = vo.search(q)
        assert len(hits) == 3

    def test_time_window(self, vo_with_archive):
        vo, _, _ = vo_with_archive
        q = (
            vo.new_query()
            .mission("MSG2")
            .level(0)
            .acquired_between(
                datetime(2007, 8, 25, 11, 0), datetime(2007, 8, 25, 23, 0)
            )
        )
        assert len(vo.search(q)) == 2

    def test_region_filter(self, vo_with_archive):
        from repro.geometry import Polygon

        vo, _, _ = vo_with_archive
        inside = Polygon([(21, 37), (23, 37), (23, 39), (21, 39)])
        outside = Polygon([(100, 0), (101, 0), (101, 1), (100, 1)])
        assert len(vo.search(vo.new_query().covering(inside))) >= 3
        assert vo.search(vo.new_query().covering(outside)) == []

    def test_semantic_concept_search(self, vo_with_archive, tmp_path):
        vo, report, _ = vo_with_archive
        # Run the chain so hotspot annotations exist.
        vo.run_fire_monitoring(report.products[0].path)
        q = vo.new_query().containing_concept(
            "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot"
        )
        hits = vo.search(q)
        assert len(hits) >= 1

    def test_paper_motivating_query(self, vo_with_archive):
        """Meteosat product on 2007-08-25 with hotspots near a site."""
        vo, report, _ = vo_with_archive
        vo.run_fire_monitoring(report.products[0].path)
        q = (
            vo.new_query()
            .mission("MSG2")
            .acquired_between(
                datetime(2007, 8, 25, 0, 0), datetime(2007, 8, 26, 0, 0)
            )
            .containing_concept(
                "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot"
            )
            .near_archaeological_site(0.3)
        )
        hits = vo.search(q)
        assert hits  # the Olympia-adjacent fire matches

    def test_near_town(self, vo_with_archive):
        vo, report, _ = vo_with_archive
        vo.run_fire_monitoring(report.products[0].path)
        q = vo.new_query().near_town("Patra", 1.0)
        assert vo.search(q)
        q2 = vo.new_query().near_town("Mytilini", 0.05)
        assert vo.search(q2) == []

    def test_near_town_plan_stays_connected(self, vo_with_archive):
        """The join plan of the near-town search: no scan that shares no
        variable with the scans before it while a connected pattern
        remains, and both ``?acq`` FILTERs on the scan that binds
        ``?acq``."""
        from repro.strabon.stsparql.evaluator import Evaluator
        from repro.strabon.stsparql.iterators import (
            _collect_conjunction,
            plan_join,
        )
        from repro.strabon.stsparql.parser import parse_query

        vo, report, _ = vo_with_archive
        vo.run_fire_monitoring(report.products[0].path)
        q = vo.new_query().acquired_between(
            datetime(2007, 8, 25, 10, 0), datetime(2007, 8, 25, 10, 0)
        ).near_town("Patra", 1.0)
        assert vo.search(q)
        triples, filters = _collect_conjunction(
            parse_query(q.to_stsparql()).where
        )
        filters = tuple(filters)
        plan = plan_join(Evaluator(vo.store), tuple(triples), filters, [{}])
        assert not plan.seed_filters
        scan_vars = [
            {name for _, name in scan.lookup if name}
            | {name for _, name in scan.binds}
            for scan in plan.scans
        ]
        bound = set(scan_vars[0])
        for k in range(1, len(scan_vars)):
            if not scan_vars[k] & bound:
                assert not any(later & bound for later in scan_vars[k:])
            bound |= scan_vars[k]
        (acq_scan,) = [
            scan for scan in plan.scans
            if any(name == "acq" for _, name in scan.binds)
        ]
        acq_filters = [f for f in filters if "acq" in repr(f)]
        assert len(acq_filters) == 2
        assert set(acq_filters) <= set(acq_scan.filters)

    def test_raw_query_escape_hatch(self, vo_with_archive):
        vo, _, _ = vo_with_archive
        result = vo.catalog.run(
            "PREFIX noa: "
            "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
            "SELECT (count(*) AS ?n) WHERE { ?p a noa:Product }"
        )
        assert int(result.values()[0][0]) >= 3


class TestServiceTier:
    def test_data_mining_service(self, vo_with_archive):
        vo, report, _ = vo_with_archive
        paths = [p.path for p in report.products[:2]]
        clf = vo.data_mining.train_classifier(paths)
        counts = vo.data_mining.mine_scene(report.products[2].path, clf)
        assert sum(counts.values()) > 0
        assert "other" in counts

    def test_annotation_service(self, vo_with_archive):
        from repro.eo.seviri import read_scene

        vo, report, _ = vo_with_archive
        clf = vo.data_mining.train_classifier(
            [p.path for p in report.products[:2]]
        )
        service = vo.annotation_service(clf)
        before = len(vo.store)
        added = service.annotate_product(
            report.products[2],
            read_scene(report.products[2].path),
        )
        assert added > 0
        assert len(vo.store) == before + added

    def test_reasoner_connects_annotations_to_ontology(
        self, vo_with_archive
    ):
        vo, _, _ = vo_with_archive
        from repro.mining.ontology import EM
        from repro.rdf import URIRef

        assert vo.reasoner.is_subclass_of(
            URIRef(str(EM) + "ForestFire"),
            URIRef(str(EM) + "NaturalHazard"),
        )


class TestDurableObservatory:
    def test_generation_increments_per_open(self, tmp_path):
        data = str(tmp_path / "vo-data")
        vo1 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        assert vo1.generation == 1
        vo1.db.execute("CREATE TABLE marks (x INT)")
        vo1.db.execute("INSERT INTO marks VALUES (7)")
        vo1.close()

        vo2 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        assert vo2.generation == 2
        assert vo2.db.query("SELECT x FROM marks") == [(7,)]
        vo2.close()

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "env-data"))
        vo = VirtualEarthObservatory(load_linked_data=False)
        assert vo.engine is not None
        vo.close()

    def test_in_memory_without_data_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        vo = VirtualEarthObservatory(load_linked_data=False)
        assert vo.engine is None
        assert vo.generation == 0
        assert vo.checkpoint() is None
        vo.close()  # no-op

    def test_version_ranges_disjoint_across_restarts(self, tmp_path):
        """Continuation tokens embed ``store.version``; a token minted
        before a restart must never equal any post-restart version."""
        from repro.server.continuations import decode_token, encode_token

        data = str(tmp_path / "vo-data")
        vo1 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        assert vo1.store.version >= 1 << 32
        token = encode_token("SELECT * WHERE {}", vo1.store.version, {})
        vo1.close()

        vo2 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        _, minted_version, _ = decode_token(token)
        # Generation 2 floors the version above everything generation 1
        # could ever have produced.
        assert vo2.store.version >= 2 << 32
        assert minted_version < vo2.store.version
        vo2.close()

    def test_scene_catalog_is_durable(self, tmp_path):
        from repro.mdb.datavault import SceneCatalog

        data = str(tmp_path / "vo-data")
        vo1 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        catalog = vo1.scene_catalog()
        assert catalog is vo1.scene_catalog()  # cached
        catalog.bulk_register(SceneCatalog.synthesize_scenes(50, seed=4))
        vo1.checkpoint()
        vo1.close()

        vo2 = VirtualEarthObservatory(
            load_linked_data=False, data_dir=data
        )
        assert vo2.scene_catalog().scene_count() == 50
        vo2.close()
