"""The observatory's knowledge-discovery entry points."""

import pytest

from repro.eo import SceneSpec, generate_scene, write_scene
from repro.mining.classify import ClassifierError
from repro.mining.pipeline import MiningResult
from repro.noa.chain import ChainResult
from repro.vo import VirtualEarthObservatory


@pytest.fixture(scope="module")
def observatory():
    return VirtualEarthObservatory()


def scene_paths(tmp_path, vo, count=2):
    paths = []
    for k in range(count):
        spec = SceneSpec(
            width=96, height=96, seed=30 + k, n_fires=2, n_burn_scars=2
        )
        scene = generate_scene(spec, vo.world.land)
        path = str(tmp_path / f"scene_{k:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
    return paths


class TestRunMining:
    def test_trains_and_mines_in_one_call(self, tmp_path, observatory):
        paths = scene_paths(tmp_path, observatory)
        results = observatory.run_mining(paths)
        assert len(results) == 2
        assert all(isinstance(r, MiningResult) for r in results)
        assert all(len(r.labels) == 144 for r in results)

    def test_model_persisted_under_name(self, tmp_path, observatory):
        paths = scene_paths(tmp_path, observatory)
        observatory.run_mining(paths, model_name="season")
        assert "season" in observatory.data_mining.models
        # Mining again by model name reuses the persisted state.
        again = observatory.run_mining(paths, classifier="season")
        assert all(isinstance(r, MiningResult) for r in again)

    def test_mine_scene_statistics(self, tmp_path, observatory):
        paths = scene_paths(tmp_path, observatory)
        clf = observatory.data_mining.train_classifier(paths)
        stats = observatory.data_mining.mine_scene(paths[0], clf)
        assert sum(stats.values()) == 144
        assert set(stats) <= {"fire", "burned", "other"}

    def test_unknown_model_name_raises(self, observatory):
        with pytest.raises(ClassifierError):
            observatory.data_mining.load_model("never-saved")


class TestRunBurnScarMapping:
    def test_end_to_end(self, tmp_path, observatory):
        paths = scene_paths(tmp_path, observatory, count=1)
        out = observatory.run_burn_scar_mapping(paths[0])
        assert isinstance(out["chain"], ChainResult)
        assert out["chain"].hotspots
        assert all(
            h.kind == "burnscar" for h in out["chain"].hotspots
        )
        assert out["map"] is not None

    def test_classifier_selectable(self, tmp_path, observatory):
        paths = scene_paths(tmp_path, observatory, count=1)
        out = observatory.run_burn_scar_mapping(
            paths[0], classifier="static"
        )
        assert isinstance(out["chain"], ChainResult)
