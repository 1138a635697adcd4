"""Patch-grid feature extraction through the SciQL tile-aggregate path.

The extractor must be bit-identical across engine configurations and
any worker count — that determinism is what lets the testkit's
pure-python oracle compare feature matrices with ``==``.
"""

import sys

import numpy as np
import pytest

from repro import kernels
from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.geometry import Envelope, Polygon
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.types import DOUBLE
from repro.mining.features import (
    MINING_FEATURE_NAMES,
    central_gradient,
    contrast_plane,
    extract_patch_grid,
    patch_footprint,
)
from repro.strabon import StrabonStore

WORLD = GreeceLikeWorld()


def ingested_array(tmp_path, seed=7, n_fires=2, n_burn_scars=2):
    spec = SceneSpec(
        width=96,
        height=96,
        seed=seed,
        n_fires=n_fires,
        n_burn_scars=n_burn_scars,
    )
    scene = generate_scene(spec, WORLD.land)
    path = str(tmp_path / f"scene_{seed}.nat")
    write_scene(scene, path)
    ingestor = Ingestor(Database(), StrabonStore())
    product = ingestor.ingest_file(path, lazy=True)
    array = ingestor.materialize_array(product)
    env = product.envelope
    return scene, array, (env.minx, env.miny, env.maxx, env.maxy)


class TestDescriptor:
    def test_feature_matrix_shape(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        grid = extract_patch_grid(array, window, patch_size=8)
        assert len(grid) == (96 // 8) ** 2
        assert grid.feature_matrix().shape == (
            len(grid),
            len(MINING_FEATURE_NAMES),
        )

    def test_partial_edge_patches_dropped(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        grid = extract_patch_grid(array, window, patch_size=10)
        assert len(grid) == (96 // 10) ** 2

    def test_variances_nonnegative(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        feats = extract_patch_grid(
            array, window, patch_size=8
        ).feature_matrix()
        var039 = feats[:, MINING_FEATURE_NAMES.index("var_t039")]
        var108 = feats[:, MINING_FEATURE_NAMES.index("var_t108")]
        assert (var039 >= 0.0).all() and (var108 >= 0.0).all()

    def test_max_dominates_mean(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        feats = extract_patch_grid(
            array, window, patch_size=8
        ).feature_matrix()
        mean039 = feats[:, MINING_FEATURE_NAMES.index("mean_t039")]
        max039 = feats[:, MINING_FEATURE_NAMES.index("max_t039")]
        assert (max039 >= mean039).all()


class TestBitIdentity:
    """One matrix, every engine configuration."""

    def test_kernels_and_workers_invariant(self, tmp_path, monkeypatch):
        _, array, window = ingested_array(tmp_path)
        baseline = extract_patch_grid(
            array, window, patch_size=8
        ).feature_matrix()
        batch_min = kernels.FILTER_BATCH_MIN_SOLUTIONS
        for workers in (1, 4):
            for per_row in (False, True):
                monkeypatch.setattr(
                    kernels,
                    "FILTER_BATCH_MIN_SOLUTIONS",
                    sys.maxsize if per_row else batch_min,
                )
                got = extract_patch_grid(
                    array, window, patch_size=8, workers=workers
                ).feature_matrix()
                assert got.tolist() == baseline.tolist(), (
                    f"per_row_filters={per_row} workers={workers}"
                )


class TestTruthFractions:
    def test_truth_labels_cover_all_concepts(self, tmp_path):
        scene, array, window = ingested_array(tmp_path)
        grid = extract_patch_grid(array, window, patch_size=8)
        labels = grid.truth_labels()
        assert set(labels) == {"fire", "burned", "other"}
        # Fractions agree with the simulator masks patch by patch.
        for patch in grid:
            block = scene.scar_mask[
                patch.row : patch.row + patch.size,
                patch.col : patch.col + patch.size,
            ]
            assert patch.truth_scar_fraction == pytest.approx(
                block.mean()
            )

    def test_truthless_array_all_other(self, tmp_path):
        """A plain array without truth planes mines as all-other."""
        plane = np.full((16, 16), 290.0)
        array = SciArray(
            "plain",
            [Dimension("row", 0, 16), Dimension("col", 0, 16)],
            [("t039", DOUBLE), ("t108", DOUBLE)],
        )
        array.set_attribute("t039", plane)
        array.set_attribute("t108", plane)
        grid = extract_patch_grid(
            array, (0.0, 0.0, 16.0, 16.0), patch_size=4
        )
        assert grid.truth_labels() == ["other"] * 16


class TestFootprints:
    def test_row_zero_is_north_edge(self):
        window = (20.0, 34.0, 28.0, 42.0)
        poly = patch_footprint(window, (96, 96), 0, 0, 8)
        env = poly.envelope
        dlon = 8.0 / 96
        assert env.minx == pytest.approx(20.0)
        assert env.maxx == pytest.approx(20.0 + 8 * dlon)
        assert env.maxy == pytest.approx(42.0)

    def test_grid_tiles_the_window(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        grid = extract_patch_grid(array, window, patch_size=8)
        wests = {p.footprint.envelope.minx for p in grid}
        assert len(wests) == 96 // 8
        full = Polygon.from_envelope(Envelope(*window), srid=4326)
        assert all(
            full.contains(p.footprint.centroid) for p in grid
        )


class TestDerivedPlanes:
    def test_central_gradient_matches_numpy(self):
        rng = np.random.default_rng(3)
        plane = rng.normal(300.0, 5.0, (9, 7))
        for axis in (0, 1):
            np.testing.assert_allclose(
                central_gradient(plane, axis),
                np.gradient(plane, axis=axis),
            )

    def test_contrast_plane_last_column_zero(self):
        plane = np.arange(12.0).reshape(3, 4)
        out = contrast_plane(plane)
        assert (out[:, -1] == 0.0).all()
        assert (out[:, :-1] == 1.0).all()


class TestValidation:
    def test_patch_size_floor(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        with pytest.raises(ValueError):
            extract_patch_grid(array, window, patch_size=0)

    def test_patch_larger_than_scene(self, tmp_path):
        _, array, window = ingested_array(tmp_path)
        with pytest.raises(ValueError):
            extract_patch_grid(array, window, patch_size=97)

    def test_non_2d_array_rejected(self):
        array = SciArray(
            "line", [Dimension("x", 0, 8)], [("t039", DOUBLE)]
        )
        with pytest.raises(ValueError):
            extract_patch_grid(array, (0.0, 0.0, 8.0, 1.0))
