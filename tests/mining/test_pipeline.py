"""The mining pipeline: batch equivalence, fault isolation, one merged
emit."""

import pytest

from repro import faults, obs
from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.geometry import Envelope
from repro.ingest import Ingestor
from repro.ingest.metadata import NOA_PREFIXES, product_uri
from repro.mdb import Database
from repro.mining import KNNClassifier, MiningPipeline
from repro.mining.features import extract_patch_grid
from repro.mining.pipeline import MiningResult
from repro.noa import ChainFailure
from repro.strabon import StrabonStore

WORLD = GreeceLikeWorld()


def scene_paths(tmp_path, count=3):
    paths = []
    for k in range(count):
        spec = SceneSpec(
            width=96, height=96, seed=30 + k, n_fires=2, n_burn_scars=2
        )
        scene = generate_scene(spec, WORLD.land)
        path = str(tmp_path / f"scene_{k:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
    return paths


def trained_classifier(paths):
    """Fit one KNN on the ground-truth labels of the whole series."""
    ingestor = Ingestor(Database(), StrabonStore())
    rows, labels = [], []
    for path in paths:
        product = ingestor.ingest_file(path, lazy=True)
        array = ingestor.materialize_array(product)
        env = product.envelope
        grid = extract_patch_grid(
            array, (env.minx, env.miny, env.maxx, env.maxy)
        )
        rows.extend(grid.feature_matrix())
        labels.extend(grid.truth_labels())
    return KNNClassifier(5).fit(rows, labels)


def fresh_pipeline(classifier):
    return MiningPipeline(
        Ingestor(Database(), StrabonStore()), classifier
    )


def summarize(results):
    return [
        (r.product.product_id, list(r.labels), frozenset(r.rdf))
        for r in results
    ]


def annotated_products(store):
    rows = store.query(
        NOA_PREFIXES
        + "SELECT ?prod WHERE { ?p a noa:Patch ; noa:isPatchOf ?prod }"
    )
    return {str(row[0]) for row in rows.rows()}


class TestSingleRun:
    def test_run_mines_and_emits(self, tmp_path):
        paths = scene_paths(tmp_path, count=1)
        clf = trained_classifier(paths)
        pipe = fresh_pipeline(clf)
        result = pipe.run(paths[0])
        assert result.ok
        assert len(result.labels) == len(result.grid) == 144
        assert set(result.timings) == {
            "extract",
            "classify",
            "annotate",
        }
        # Annotations were emitted immediately and match the RDF carried
        # on the result.
        assert set(result.rdf) <= set(pipe.ingestor.store.triples())
        stats = result.label_statistics()
        assert sum(stats.values()) == 144
        assert set(stats) <= {"fire", "burned", "other"}

    def test_finds_the_simulated_events(self, tmp_path):
        paths = scene_paths(tmp_path, count=2)
        clf = trained_classifier(paths)
        result = fresh_pipeline(clf).run(paths[0])
        stats = result.label_statistics()
        assert stats.get("fire", 0) >= 1
        assert stats.get("burned", 0) >= 1


class TestBatchEquality:
    def test_matches_sequential_run(self, tmp_path):
        paths = scene_paths(tmp_path)
        clf = trained_classifier(paths)

        baseline_pipe = fresh_pipeline(clf)
        baseline = [baseline_pipe.run(p) for p in paths]

        batch_pipe = fresh_pipeline(clf)
        batched = batch_pipe.run_batch(paths)

        assert summarize(batched) == summarize(baseline)
        assert set(batch_pipe.ingestor.store.triples()) == set(
            baseline_pipe.ingestor.store.triples()
        )

    def test_results_in_path_order(self, tmp_path):
        paths = scene_paths(tmp_path)
        clf = trained_classifier(paths)
        results = fresh_pipeline(clf).run_batch(paths)
        assert [r.product.path for r in results] == paths

    def test_empty_batch(self, tmp_path):
        clf = trained_classifier(scene_paths(tmp_path, count=1))
        assert fresh_pipeline(clf).run_batch([]) == []

    def test_single_merged_bulk_emit(self, tmp_path):
        """A batch reaches the spatial index in one fold before its
        first probe."""
        paths = scene_paths(tmp_path)
        clf = trained_classifier(paths)
        pipe = fresh_pipeline(clf)
        store = pipe.ingestor.store
        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            folds = obs.counter("strabon.index.folds")
            before = folds.value
            results = pipe.run_batch(paths)
            (found,) = store.spatial_candidates_batch(
                [Envelope(-180, -90, 180, 90)]
            )
            assert found  # the batch's geometries were folded in
            assert folds.value - before == 1
        finally:
            registry.set_enabled(was_enabled)
        assert all(isinstance(r, MiningResult) for r in results)


class TestFailureIsolation:
    def test_bad_path_isolated(self, tmp_path):
        paths = scene_paths(tmp_path)
        clf = trained_classifier(paths)
        bad = str(tmp_path / "missing.nat")
        mixed = [paths[0], bad, paths[1], paths[2]]

        pipe = fresh_pipeline(clf)
        results = pipe.run_batch(mixed)

        assert len(results) == 4
        assert isinstance(results[1], ChainFailure)
        assert results[1].path == bad and not results[1].ok
        good = [results[0], results[2], results[3]]
        assert all(isinstance(r, MiningResult) for r in good)

        baseline_pipe = fresh_pipeline(clf)
        baseline = [baseline_pipe.run(p) for p in paths]
        assert summarize(good) == summarize(baseline)
        assert set(pipe.ingestor.store.triples()) == set(
            baseline_pipe.ingestor.store.triples()
        )

    def test_batch_counters_recorded(self, tmp_path):
        from repro import obs

        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            ok0 = obs.counter("mining.batch.ok").value
            failed0 = obs.counter("mining.batch.failed").value
            paths = scene_paths(tmp_path, count=2)
            clf = trained_classifier(paths)
            bad = str(tmp_path / "nope.nat")
            fresh_pipeline(clf).run_batch(paths + [bad])
            ok = obs.counter("mining.batch.ok").value - ok0
            failed = obs.counter("mining.batch.failed").value - failed0
        finally:
            registry.set_enabled(was_enabled)
        assert ok == 2
        assert failed == 1

    def test_single_run_still_raises(self, tmp_path):
        clf = trained_classifier(scene_paths(tmp_path, count=1))
        with pytest.raises(Exception):
            fresh_pipeline(clf).run(str(tmp_path / "ghost.nat"))


class TestChaos:
    """A hard classifier fault mid-batch degrades to one ChainFailure
    and leaves zero orphan annotations in the store."""

    def test_classify_fault_serial(self, tmp_path):
        paths = scene_paths(tmp_path)
        clf = trained_classifier(paths)
        pipe = fresh_pipeline(clf)
        with faults.injected("mining.classify:nth=2,hard"):
            results = pipe.run_batch(paths)
        assert [type(r) for r in results] == [
            MiningResult,
            ChainFailure,
            MiningResult,
        ]
        survivors = {
            str(product_uri(r.product))
            for r in results
            if isinstance(r, MiningResult)
        }
        assert annotated_products(pipe.ingestor.store) == survivors

    def test_extract_fault_transient_retried(self, tmp_path):
        """A soft fault at mining.extract is absorbed by the retry
        envelope: the batch still succeeds end to end."""
        paths = scene_paths(tmp_path, count=2)
        clf = trained_classifier(paths)
        pipe = fresh_pipeline(clf)
        with faults.injected("mining.extract:nth=1"):
            results = pipe.run_batch(paths)
        assert all(isinstance(r, MiningResult) for r in results)
