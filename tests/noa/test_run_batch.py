"""run_batch must reproduce sequential run() exactly."""

import pytest

from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.noa import ChainFailure, ChainResult, ProcessingChain
from repro.strabon import StrabonStore

WORLD = GreeceLikeWorld()
FIRE_SEEDS = [(21.63, 37.7), (22.5, 38.5), (23.4, 38.05)]


def scene_paths(tmp_path, count=3):
    paths = []
    for k in range(count):
        spec = SceneSpec(
            width=96, height=96, seed=20 + k, n_fires=0, n_glints=k % 2
        )
        scene = generate_scene(spec, WORLD.land, fire_seeds=FIRE_SEEDS)
        path = str(tmp_path / f"scene_{k:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
    return paths


def fresh_chain(classifier="static"):
    ingestor = Ingestor(Database(), StrabonStore())
    return ProcessingChain(ingestor, classifier=classifier)


def summarize(results):
    """The observable outcome of a batch: hotspots and RDF, per scene."""
    return [
        (
            result.source_product.product_id,
            [
                (
                    h.geometry.wkt,
                    round(h.confidence, 12),
                    h.pixel_count,
                )
                for h in result.hotspots
            ],
            frozenset(result.rdf),
        )
        for result in results
    ]


class TestRunBatchEquality:
    def test_matches_sequential_run(self, tmp_path):
        paths = scene_paths(tmp_path)

        baseline_chain = fresh_chain()
        baseline = [baseline_chain.run(p) for p in paths]

        batch_chain = fresh_chain()
        batched = batch_chain.run_batch(paths)

        assert summarize(batched) == summarize(baseline)
        # Both stores end up with the identical triple set.
        assert set(batch_chain.ingestor.store.triples()) == set(
            baseline_chain.ingestor.store.triples()
        )
        assert len(batch_chain.ingestor.store) == len(
            baseline_chain.ingestor.store
        )

    def test_contextual_classifier(self, tmp_path):
        paths = scene_paths(tmp_path, count=2)

        baseline_chain = fresh_chain("contextual")
        baseline = [baseline_chain.run(p) for p in paths]

        batch_chain = fresh_chain("contextual")
        batched = batch_chain.run_batch(paths)

        assert summarize(batched) == summarize(baseline)

    def test_results_in_path_order(self, tmp_path):
        paths = scene_paths(tmp_path)
        chain = fresh_chain()
        results = chain.run_batch(paths)
        assert [r.source_product.product_id for r in results] == [
            fresh_chain().run(p).source_product.product_id for p in paths
        ]

    def test_all_stages_timed(self, tmp_path):
        paths = scene_paths(tmp_path, count=2)
        chain = fresh_chain()
        for result in chain.run_batch(paths):
            assert set(result.timings) == {
                "ingestion",
                "cropping",
                "georeference",
                "classification",
                "shapefile",
            }

    def test_rdf_queryable_after_batch(self, tmp_path):
        from repro.ingest.metadata import NOA_PREFIXES

        paths = scene_paths(tmp_path)
        chain = fresh_chain()
        results = chain.run_batch(paths)
        r = chain.ingestor.store.query(
            NOA_PREFIXES
            + "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
        )
        assert len(r) == sum(len(res.hotspots) for res in results)

    def test_empty_batch(self, tmp_path):
        assert fresh_chain().run_batch([]) == []

    def test_single_path_batch(self, tmp_path):
        paths = scene_paths(tmp_path, count=1)
        chain = fresh_chain()
        results = chain.run_batch(paths)
        baseline = fresh_chain().run(paths[0])
        assert summarize(results) == summarize([baseline])

    def test_shapefiles_written_per_scene(self, tmp_path):
        import os

        paths = scene_paths(tmp_path)
        out = str(tmp_path / "out")
        chain = fresh_chain()
        results = chain.run_batch(paths, output_dir=out)
        shp_paths = [r.shapefile_path for r in results]
        assert all(p and os.path.exists(p) for p in shp_paths)
        assert len(set(shp_paths)) == len(paths)


class TestRunBatchFailureIsolation:
    """One failing acquisition must not take the rest of the batch down."""

    def test_bad_path_isolated(self, tmp_path):
        paths = scene_paths(tmp_path)
        bad = str(tmp_path / "missing_scene.nat")
        mixed = [paths[0], bad, paths[1], paths[2]]

        chain = fresh_chain()
        results = chain.run_batch(mixed)

        assert len(results) == len(mixed)
        assert isinstance(results[1], ChainFailure)
        assert results[1].path == bad
        assert not results[1].ok
        assert isinstance(results[1].error, Exception)
        good = [results[0], results[2], results[3]]
        assert all(isinstance(r, ChainResult) and r.ok for r in good)

        # The surviving acquisitions' outcome is byte-identical to a
        # clean batch over just the good paths — including the RDF that
        # reaches the store through the bulk emit.
        baseline_chain = fresh_chain()
        baseline = [baseline_chain.run(p) for p in paths]
        assert summarize(good) == summarize(baseline)
        assert set(chain.ingestor.store.triples()) == set(
            baseline_chain.ingestor.store.triples()
        )

    def test_failure_counters_recorded(self, tmp_path):
        from repro import obs

        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            ok0 = obs.counter("noa.batch.ok").value
            failed0 = obs.counter("noa.batch.failed").value
            paths = scene_paths(tmp_path, count=2)
            bad = str(tmp_path / "nope.nat")
            fresh_chain().run_batch(paths + [bad])
            ok = obs.counter("noa.batch.ok").value - ok0
            failed = obs.counter("noa.batch.failed").value - failed0
        finally:
            registry.set_enabled(was_enabled)
        assert ok == 2
        assert failed == 1

    def test_single_run_still_raises(self, tmp_path):
        with pytest.raises(Exception):
            fresh_chain().run(str(tmp_path / "missing.nat"))

    def test_all_failures_still_returns_slots(self, tmp_path):
        bads = [str(tmp_path / f"ghost_{k}.nat") for k in range(3)]
        results = fresh_chain().run_batch(bads)
        assert len(results) == 3
        assert all(isinstance(r, ChainFailure) for r in results)
        assert [r.path for r in results] == bads

    def test_single_run_is_a_one_path_batch(self, tmp_path):
        from repro import obs

        bad = str(tmp_path / "missing.nat")
        (failure,) = fresh_chain().run_batch([bad])
        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            errors0 = obs.counter("noa.errors").value
            failed0 = obs.counter("noa.batch.failed").value
            with pytest.raises(type(failure.error)):
                fresh_chain().run(bad)
            errors = obs.counter("noa.errors").value - errors0
            failed = obs.counter("noa.batch.failed").value - failed0
        finally:
            registry.set_enabled(was_enabled)
        assert (errors, failed) == (1, 1)

    def test_batch_writes_its_rdf_as_one_delta(self, tmp_path):
        paths = scene_paths(tmp_path, count=3)
        chain = fresh_chain()
        store = chain.ingestor.store
        writes = []
        apply = store.apply

        def spy(deletes=(), inserts=()):
            counts = apply(deletes, inserts)
            writes.append(counts)
            return counts

        store.apply = spy
        results = chain.run_batch(paths)
        # Three ingest transactions, then the batch's one emit.
        assert len(writes) == 4
        assert writes[-1][1] == sum(len(r.rdf) for r in results)
