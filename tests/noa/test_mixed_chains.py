"""Fire + burn-scar chains composing over one observatory store.

The architecture-generality regression: two NOA-style chains (and the
mining pipeline) batch over the same acquisitions against a shared
ingestor, each with per-acquisition failure isolation and one merged RDF
emit per chain batch, which the spatial index packs in one fold.
"""

from repro import obs
from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.geometry import Envelope
from repro.ingest import Ingestor
from repro.ingest.metadata import NOA_PREFIXES
from repro.mdb import Database
from repro.noa import ChainFailure, ChainResult, ProcessingChain
from repro.noa.burnscar import BurnScarChain
from repro.strabon import StrabonStore

WORLD = GreeceLikeWorld()
#: Seeds whose scenes carry both active fronts and old scar regions.
MIXED_SEEDS = [7, 11, 13]


def scene_paths(tmp_path):
    paths = []
    for seed in MIXED_SEEDS:
        spec = SceneSpec(
            width=96, height=96, seed=seed, n_fires=2, n_burn_scars=2
        )
        scene = generate_scene(spec, WORLD.land)
        path = str(tmp_path / f"mixed_{seed}.nat")
        write_scene(scene, path)
        paths.append(path)
    return paths


def shared_ingestor():
    return Ingestor(Database(), StrabonStore())


def count_by_class(store, cls):
    rows = store.query(
        NOA_PREFIXES + f"SELECT ?s WHERE {{ ?s a noa:{cls} }}"
    )
    return len(rows)


class TestMixedBatches:
    def test_both_chains_land_in_one_store(self, tmp_path):
        paths = scene_paths(tmp_path)
        ingestor = shared_ingestor()
        fire = ProcessingChain(ingestor).run_batch(paths)
        scars = BurnScarChain(ingestor).run_batch(paths)
        assert all(isinstance(r, ChainResult) for r in fire + scars)
        store = ingestor.store
        assert count_by_class(store, "Hotspot") == sum(
            len(r.hotspots) for r in fire
        )
        assert count_by_class(store, "BurnScar") == sum(
            len(r.hotspots) for r in scars
        )
        # Detection identities never collide across chains: the kind
        # segment keeps the URI spaces disjoint.
        uris = [str(h.uri) for r in fire + scars for h in r.hotspots]
        assert len(uris) == len(set(uris))

    def test_batch_order_does_not_change_the_store(self, tmp_path):
        paths = scene_paths(tmp_path)
        a = shared_ingestor()
        ProcessingChain(a).run_batch(paths)
        BurnScarChain(a).run_batch(paths)
        b = shared_ingestor()
        BurnScarChain(b).run_batch(paths)
        ProcessingChain(b).run_batch(paths)
        assert set(a.store.triples()) == set(b.store.triples())

    def test_failure_isolated_per_chain(self, tmp_path):
        """A bad acquisition fails its slot in *each* chain's batch but
        never suppresses the other scenes' products."""
        paths = scene_paths(tmp_path)
        bad = str(tmp_path / "missing.nat")
        mixed = [paths[0], bad, paths[1], paths[2]]
        ingestor = shared_ingestor()
        fire = ProcessingChain(ingestor).run_batch(mixed)
        scars = BurnScarChain(ingestor).run_batch(mixed)
        for results in (fire, scars):
            assert isinstance(results[1], ChainFailure)
            assert results[1].path == bad
            assert all(
                isinstance(r, ChainResult)
                for r in (results[0], results[2], results[3])
            )

        clean = shared_ingestor()
        ProcessingChain(clean).run_batch(paths)
        BurnScarChain(clean).run_batch(paths)
        assert set(ingestor.store.triples()) == set(
            clean.store.triples()
        )

    def test_one_bulk_emit_per_chain_batch(self, tmp_path):
        """Each chain batch's geometries reach the spatial index in at
        most one fold before its first probe."""
        paths = scene_paths(tmp_path)
        ingestor = shared_ingestor()
        store = ingestor.store
        registry = obs.get_registry()
        was_enabled = registry.enabled
        registry.set_enabled(True)
        try:
            folds = obs.counter("strabon.index.folds")
            for chain in (ProcessingChain, BurnScarChain):
                before = folds.value
                chain(ingestor).run_batch(paths)
                (found,) = store.spatial_candidates_batch(
                    [Envelope(-180, -90, 180, 90)]
                )
                assert found  # the batch's geometries were folded in
                assert folds.value - before == 1
        finally:
            registry.set_enabled(was_enabled)
