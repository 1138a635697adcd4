"""NOA processing chain tests (classification + full chain)."""

import os

import numpy as np
import pytest

from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.strabon import StrabonStore
from repro.noa import ProcessingChain
from repro.noa.classification import (
    contextual_classifier,
    static_threshold_classifier,
)

WORLD = GreeceLikeWorld()
FIRE_SEEDS = [(21.63, 37.7), (22.5, 38.5), (23.4, 38.05)]


def make_scene(seed=11, glints=0, **kw):
    spec = SceneSpec(
        width=128, height=128, seed=seed, n_fires=0, n_glints=glints, **kw
    )
    return generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)


def scene_file(tmp_path, scene, name="scene_000.nat"):
    path = str(tmp_path / name)
    write_scene(scene, path)
    return path


@pytest.fixture
def ingestor():
    return Ingestor(Database(), StrabonStore())


class TestClassifiers:
    def test_static_detects_fires(self, ingestor, tmp_path):
        scene = make_scene()
        path = scene_file(tmp_path, scene)
        product = ingestor.ingest_file(path)
        array = ingestor.materialize_array(product)
        mask = static_threshold_classifier(array, ingestor.db)
        truth = scene.fire_mask
        recall = (mask & truth).sum() / truth.sum()
        assert recall > 0.7

    def test_static_few_false_positives_on_clear_scene(
        self, ingestor, tmp_path
    ):
        scene = make_scene(glints=0)
        path = scene_file(tmp_path, scene)
        array = ingestor.materialize_array(ingestor.ingest_file(path))
        mask = static_threshold_classifier(array, ingestor.db)
        false_pos = mask & ~scene.fire_mask
        assert false_pos.sum() <= 0.001 * mask.size

    def test_glints_fool_the_static_classifier(self, ingestor, tmp_path):
        scene = make_scene(glints=4)
        path = scene_file(tmp_path, scene)
        array = ingestor.materialize_array(ingestor.ingest_file(path))
        mask = static_threshold_classifier(array, ingestor.db)
        sea_detections = mask & scene.sea_mask
        assert sea_detections.sum() >= 1  # refinement's raison d'etre

    def test_contextual_detects_fires(self, ingestor, tmp_path):
        scene = make_scene()
        path = scene_file(tmp_path, scene)
        array = ingestor.materialize_array(ingestor.ingest_file(path))
        mask = contextual_classifier(array, ingestor.db)
        truth = scene.fire_mask
        recall = (mask & truth).sum() / truth.sum()
        assert recall > 0.6

    def test_classifiers_fill_hotspot_attribute(self, ingestor, tmp_path):
        scene = make_scene()
        path = scene_file(tmp_path, scene)
        array = ingestor.materialize_array(ingestor.ingest_file(path))
        static_threshold_classifier(array, ingestor.db)
        assert array.has_attribute("hotspot")
        total = ingestor.db.scalar(
            f"SELECT sum(hotspot) FROM {array.name}"
        )
        assert total > 0

    def test_reclassification_resets_plane(self, ingestor, tmp_path):
        scene = make_scene()
        path = scene_file(tmp_path, scene)
        array = ingestor.materialize_array(ingestor.ingest_file(path))
        m1 = static_threshold_classifier(array, ingestor.db)
        m2 = static_threshold_classifier(
            array, ingestor.db, t039_threshold=9999
        )
        assert m1.sum() > 0
        assert m2.sum() == 0  # previous detections must not leak


class TestChain:
    def test_all_stages_timed(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        assert set(result.timings) == {
            "ingestion",
            "cropping",
            "georeference",
            "classification",
            "shapefile",
        }
        assert result.total_seconds > 0

    def test_hotspots_detected(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        assert len(result.hotspots) >= 3
        for h in result.hotspots:
            assert h.pixel_count >= 1
            assert 0.0 < h.confidence <= 1.0
            assert h.geometry.area > 0

    def test_hotspot_geometries_near_seeds(self, ingestor, tmp_path):
        from repro.geometry import Point

        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        for lon, lat in FIRE_SEEDS:
            seed_point = Point(lon, lat)
            assert any(
                h.geometry.distance(seed_point) < 0.2
                for h in result.hotspots
            )

    def test_shapefile_written(self, ingestor, tmp_path):
        from repro.noa.shapefile import read_shapefile

        path = scene_file(tmp_path, make_scene())
        out = str(tmp_path / "out")
        result = ProcessingChain(ingestor).run(path, output_dir=out)
        assert result.shapefile_path and os.path.exists(result.shapefile_path)
        features = read_shapefile(result.shapefile_path)
        assert len(features) == len(result.hotspots)
        assert "conf" in features[0].attributes

    def test_rdf_published(self, ingestor, tmp_path):
        from repro.ingest.metadata import NOA_PREFIXES

        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        r = ingestor.store.query(
            NOA_PREFIXES
            + "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
        )
        assert len(r) == len(result.hotspots)

    def test_derived_product_level(self, ingestor, tmp_path):
        from repro.eo.products import ProcessingLevel

        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        assert result.derived_product.level == ProcessingLevel.L2_DERIVED
        assert (
            result.derived_product.parent_id
            == result.source_product.product_id
        )

    def test_crop_window_limits_detection(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene())
        # Crop to the southern seed only.
        chain = ProcessingChain(
            ingestor, crop_window=(21.0, 37.0, 22.2, 38.2)
        )
        result = chain.run(path)
        assert len(result.hotspots) >= 1
        for h in result.hotspots:
            env = h.geometry.envelope
            assert env.minx >= 21.0 - 1e-6 and env.maxx <= 22.3

    def test_crop_miss_rejected(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene())
        chain = ProcessingChain(ingestor, crop_window=(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            chain.run(path)

    def test_min_pixels_filter(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene(glints=5))
        small = ProcessingChain(ingestor, min_pixels=1).run(path)
        ingestor2 = Ingestor(Database(), StrabonStore())
        path2 = scene_file(tmp_path, make_scene(glints=5), "scene_001.nat")
        large = ProcessingChain(ingestor2, min_pixels=3).run(path2)
        assert len(large.hotspots) <= len(small.hotspots)

    def test_unknown_classifier_rejected(self, ingestor):
        with pytest.raises(ValueError):
            ProcessingChain(ingestor, classifier="quantum")

    def test_hotspot_union(self, ingestor, tmp_path):
        path = scene_file(tmp_path, make_scene())
        result = ProcessingChain(ingestor).run(path)
        union = result.hotspot_union()
        total = sum(h.geometry.area for h in result.hotspots)
        from repro.geometry.multi import flatten

        assert sum(g.area for g in flatten(union)) == pytest.approx(
            total, rel=1e-6
        )

    def test_grid_srids_unique_across_chains(self, tmp_path):
        """The SRS registry is process-wide, so a second chain must not
        re-register an earlier product's grid SRID with its own grid."""
        from repro.geometry.srs import transform_coord

        windows = [(20.0, 34.0, 28.0, 42.0), (21.0, 36.0, 25.0, 40.0)]
        results = []
        for k, window in enumerate(windows):
            path = scene_file(
                tmp_path, make_scene(window=window), f"scene_{k:03d}.nat"
            )
            chain = ProcessingChain(Ingestor(Database(), StrabonStore()))
            results.append(chain.run(path))
        for result in results:
            lon0, _, _, lat1 = result.grid.window
            corner = transform_coord(0, 0, result.grid.srid, 4326)
            assert corner == pytest.approx((lon0, lat1))


class TestConnectedComponents:
    def test_component_split(self):
        from repro.noa.chain import _connected_components

        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[0, 1] = True
        mask[4, 4] = True
        comps = _connected_components(mask)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 2]

    def test_diagonal_not_connected(self):
        from repro.noa.chain import _connected_components

        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert len(_connected_components(mask)) == 2

    def test_empty_mask(self):
        from repro.noa.chain import _connected_components

        assert _connected_components(np.zeros((3, 3), dtype=bool)) == []
