"""Semantic catalogue queries joining annotations with chain products."""

from datetime import timedelta

import pytest

from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.mining import queries
from repro.mining.ontology import CONCEPTS
from repro.noa import ProcessingChain
from repro.strabon import StrabonStore
from repro.vo.services import DataMiningService

WORLD = GreeceLikeWorld()


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    """One store holding both pillars' output over the same scenes:
    fire-chain hotspots and mining annotations."""
    tmp = tmp_path_factory.mktemp("scenes")
    paths = []
    for k in range(3):
        spec = SceneSpec(
            width=96, height=96, seed=30 + k, n_fires=2, n_burn_scars=2
        )
        scene = generate_scene(spec, WORLD.land)
        path = str(tmp / f"scene_{k:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
    service = DataMiningService(Ingestor(Database(), StrabonStore()))
    classifier = service.train_classifier(paths)
    chain = ProcessingChain(service.ingestor)
    chain_results = [chain.run(p) for p in paths]
    mining_results = service.mine_batch(paths, classifier)
    return {
        "store": service.ingestor.store,
        "chain": chain_results,
        "mining": mining_results,
    }


class TestByConcept:
    def test_fire_patches_found(self, catalogue):
        rows = catalogue["store"].query(
            queries.annotations_by_concept("fire")
        )
        expected = sum(
            r.label_statistics().get("fire", 0)
            for r in catalogue["mining"]
        )
        assert len(rows) == expected > 0

    def test_full_iri_accepted(self, catalogue):
        labelled = catalogue["store"].query(
            queries.annotations_by_concept("burned")
        )
        via_iri = catalogue["store"].query(
            queries.annotations_by_concept(str(CONCEPTS["burned"]))
        )
        assert len(via_iri) == len(labelled) > 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown concept"):
            queries.annotations_by_concept("lava")


class TestValidDuring:
    def test_containing_window_finds_all(self, catalogue):
        acquired = catalogue["mining"][0].product.acquired
        rows = catalogue["store"].query(
            queries.annotations_valid_during(
                "fire",
                acquired - timedelta(minutes=1),
                acquired + timedelta(minutes=16),
            )
        )
        expected = sum(
            r.label_statistics().get("fire", 0)
            for r in catalogue["mining"]
        )
        assert len(rows) == expected

    def test_disjoint_window_finds_none(self, catalogue):
        acquired = catalogue["mining"][0].product.acquired
        rows = catalogue["store"].query(
            queries.annotations_valid_during(
                "fire",
                acquired + timedelta(minutes=30),
                acquired + timedelta(minutes=45),
            )
        )
        assert len(rows) == 0


class TestHotspotJoin:
    def test_join_pairs_patches_with_same_product_hotspots(
        self, catalogue
    ):
        rows = catalogue["store"].query(
            queries.annotation_hotspot_join("fire")
        )
        assert len(rows) > 0
        hotspot_uris = {
            str(h.uri)
            for result in catalogue["chain"]
            for h in result.hotspots
        }
        for patch, hotspot, conf in rows.rows():
            assert str(hotspot) in hotspot_uris
            # The join is within-product: the patch node embeds the
            # product id its hotspot was derived from.
            product_id = str(hotspot).rsplit("/", 2)[-2]
            assert f"/{product_id}/patch/" in str(patch)
            assert 0.0 < conf.to_python() <= 1.0

    def test_distance_relaxation_is_superset(self, catalogue):
        strict = catalogue["store"].query(
            queries.annotation_hotspot_join("fire")
        )
        relaxed = catalogue["store"].query(
            queries.annotation_hotspot_join(
                "fire", max_distance_deg=2.0
            )
        )
        strict_pairs = {
            (str(p), str(h)) for p, h, _ in strict.rows()
        }
        relaxed_pairs = {
            (str(p), str(h)) for p, h, _ in relaxed.rows()
        }
        assert strict_pairs <= relaxed_pairs


class TestCensus:
    def test_counts_match_label_statistics(self, catalogue):
        rows = catalogue["store"].query(queries.concept_census())
        got = {
            str(label): count.to_python()
            for label, count in rows.rows()
        }
        expected = {}
        for result in catalogue["mining"]:
            for label, n in result.label_statistics().items():
                expected[label] = expected.get(label, 0) + n
        assert got == expected
