"""Burn-scar mapping: the second NOA-style chain over shared machinery."""

import numpy as np
import pytest

from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.ingest.metadata import NOA_PREFIXES
from repro.mdb import Database
from repro.noa import ProcessingChain
from repro.noa.burnscar import (
    BURNSCAR_CLASSIFIERS,
    BurnScarChain,
    relative_scar_classifier,
    scar_background,
    static_scar_classifier,
)
from repro.strabon import StrabonStore

WORLD = GreeceLikeWorld()
#: Seeds whose simulated scars sit fully on land (clean separation).
SCAR_SEEDS = [7, 11]


def scar_scene(tmp_path, seed=7, n_fires=0):
    spec = SceneSpec(
        width=96, height=96, seed=seed, n_fires=n_fires, n_burn_scars=2
    )
    scene = generate_scene(spec, WORLD.land)
    path = str(tmp_path / f"scar_{seed}.nat")
    write_scene(scene, path)
    return scene, path


def materialized(path):
    ingestor = Ingestor(Database(), StrabonStore())
    product = ingestor.ingest_file(path, lazy=True)
    return ingestor, ingestor.materialize_array(product)


class TestScarBackground:
    def test_mostly_sea_scene_estimates_land(self, tmp_path):
        """The percentile must land in the warm (land) population even
        when ~3/4 of the frame is sea."""
        scene, _ = scar_scene(tmp_path)
        sea_fraction = scene.sea_mask.mean()
        assert sea_fraction > 0.5
        t108 = scene.band("t108")
        background = scar_background(t108)
        land_t108 = t108[~scene.sea_mask & ~scene.cloud_mask]
        sea_t108 = t108[scene.sea_mask]
        assert background > sea_t108.max()
        assert background <= land_t108.max()

    def test_synthetic_plane_percentile(self):
        plane = np.full((10, 10), 289.0)
        plane[:5, :] = 301.0  # the warm half
        assert scar_background(plane) == 301.0

    def test_constant_plane_degenerate(self):
        assert scar_background(np.full((8, 8), 290.0)) == 290.0


class TestClassifiers:
    @pytest.mark.parametrize("seed", SCAR_SEEDS)
    @pytest.mark.parametrize(
        "classify", [static_scar_classifier, relative_scar_classifier]
    )
    def test_recovers_truth_mask_exactly(self, tmp_path, seed, classify):
        scene, path = scar_scene(tmp_path, seed=seed)
        ingestor, array = materialized(path)
        detected = classify(array, ingestor.db)
        assert detected.dtype == bool
        np.testing.assert_array_equal(detected, scene.scar_mask)

    def test_active_fire_fronts_never_mapped(self, tmp_path):
        """Fire fronts have a huge 3.9-10.8 um difference; the spectral
        flatness bound must keep them out of the scar mask."""
        spec = SceneSpec(
            width=96, height=96, seed=5, n_fires=3, n_burn_scars=0
        )
        scene = generate_scene(spec, WORLD.land)
        path = str(tmp_path / "fires.nat")
        write_scene(scene, path)
        ingestor, array = materialized(path)
        detected = static_scar_classifier(array, ingestor.db)
        assert not (detected & scene.fire_mask).any()

    def test_registry_names(self):
        assert set(BURNSCAR_CLASSIFIERS) == {"static", "relative"}


class TestBurnScarChain:
    def test_run_produces_scar_detections(self, tmp_path):
        scene, path = scar_scene(tmp_path)
        chain = BurnScarChain(Ingestor(Database(), StrabonStore()))
        result = chain.run(path)
        assert result.ok
        assert len(result.hotspots) == 2  # two simulated scar regions
        assert sum(h.pixel_count for h in result.hotspots) == int(
            scene.scar_mask.sum()
        )
        for h in result.hotspots:
            assert h.kind == "burnscar"
            assert "#burnscar/" in str(h.uri)
            assert 0.0 < h.confidence <= 1.0

    def test_shares_stage_machinery(self, tmp_path):
        """Same stage envelope as the fire chain — identical timings
        keys prove the run went through ProcessingChain unchanged."""
        _, path = scar_scene(tmp_path)
        result = BurnScarChain(
            Ingestor(Database(), StrabonStore())
        ).run(path)
        assert set(result.timings) == {
            "ingestion",
            "cropping",
            "georeference",
            "classification",
            "shapefile",
        }

    def test_rdf_typed_as_burnscar(self, tmp_path):
        _, path = scar_scene(tmp_path)
        chain = BurnScarChain(Ingestor(Database(), StrabonStore()))
        result = chain.run(path)
        rows = chain.ingestor.store.query(
            NOA_PREFIXES
            + "SELECT ?s WHERE { ?s a noa:BurnScar ; "
            "noa:hasConfidence ?c }"
        )
        assert len(rows) == len(result.hotspots)
        # And nothing got mislabelled as an active-fire hotspot.
        hot = chain.ingestor.store.query(
            NOA_PREFIXES + "SELECT ?s WHERE { ?s a noa:Hotspot }"
        )
        assert len(hot) == 0

    def test_derived_product_identity(self, tmp_path):
        _, path = scar_scene(tmp_path)
        result = BurnScarChain(
            Ingestor(Database(), StrabonStore())
        ).run(path)
        assert "burnscars" in result.derived_product.product_id

    def test_run_batch_matches_sequential(self, tmp_path):
        paths = [
            scar_scene(tmp_path, seed=seed)[1] for seed in SCAR_SEEDS
        ]
        baseline_chain = BurnScarChain(
            Ingestor(Database(), StrabonStore())
        )
        baseline = [baseline_chain.run(p) for p in paths]
        batch_chain = BurnScarChain(
            Ingestor(Database(), StrabonStore())
        )
        batched = batch_chain.run_batch(paths)
        assert [
            [(h.geometry.wkt, h.pixel_count) for h in r.hotspots]
            for r in batched
        ] == [
            [(h.geometry.wkt, h.pixel_count) for h in r.hotspots]
            for r in baseline
        ]
        assert set(batch_chain.ingestor.store.triples()) == set(
            baseline_chain.ingestor.store.triples()
        )

    def test_fire_chain_blind_to_scars(self, tmp_path):
        """The generality argument cuts both ways: the fire chain finds
        nothing on a scar-only scene."""
        _, path = scar_scene(tmp_path)
        result = ProcessingChain(
            Ingestor(Database(), StrabonStore())
        ).run(path)
        assert result.hotspots == []
