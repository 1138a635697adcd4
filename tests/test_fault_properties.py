"""Property-based chaos testing of the ingestion pipeline.

The invariant under test (ISSUE acceptance): for *any* injected-fault
schedule over a 3-file ingest, the report's products and failures
partition the input set exactly, and the catalog never advertises a
partially ingested product (no orphan rows, no partial SciQL arrays,
no stray stRDF metadata for failed files).
"""

import os
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.ingest import Ingestor
from repro.ingest.metadata import product_uri
from repro.mdb import Database
from repro.strabon import StrabonStore

N_FILES = 3

#: The injection points a directory ingest can hit.
SITES = ["ingest.file", "vault.fetch"]


@st.composite
def fault_specs(draw):
    """An arbitrary REPRO_FAULTS spec over the ingest's injection sites.

    Each drawn rule targets one site with either a deterministic
    ``nth`` trigger or a seeded probability, transient or hard.  The
    empty string stands for "no injection at all".
    """
    n_rules = draw(st.integers(min_value=0, max_value=3))
    rules = []
    for _ in range(n_rules):
        site = draw(st.sampled_from(SITES))
        hard = draw(st.booleans())
        if draw(st.booleans()):
            trigger = f"nth={draw(st.integers(min_value=1, max_value=12))}"
        else:
            p = draw(
                st.floats(
                    min_value=0.0,
                    max_value=0.6,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            trigger = f"p={p:.3f}"
        rules.append(f"{site}:{trigger}{',hard' if hard else ''}")
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return ";".join(rules + [f"seed={seed}"]) if rules else ""


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """Three scene files, written once and shared (read-only) across
    hypothesis examples."""
    directory = tmp_path_factory.mktemp("chaos_archive")
    world = GreeceLikeWorld()
    paths = []
    for i in range(N_FILES):
        spec = SceneSpec(
            width=32,
            height=32,
            seed=i,
            acquired=datetime(2007, 8, 25, 10 + i, 0),
        )
        path = str(directory / f"scene_{i:03d}.nat")
        write_scene(generate_scene(spec, world.land), path)
        paths.append(path)
    return str(directory), paths


class TestIngestUnderArbitraryFaults:
    @settings(max_examples=25, deadline=None)
    @given(spec=fault_specs(), lazy=st.booleans())
    def test_products_and_failures_partition_the_input(
        self, archive, spec, lazy
    ):
        directory, paths = archive
        ingestor = Ingestor(Database(), StrabonStore())
        previous = faults.install(faults.parse_spec(spec))
        try:
            report = ingestor.ingest_directory(directory, lazy=lazy)
        finally:
            faults.install(previous)

        ok_paths = {p.path for p in report.products}
        failed_paths = {f.path for f in report.failures}
        # Partition: every input file in exactly one bucket, no overlap.
        assert ok_paths | failed_paths == set(paths)
        assert not (ok_paths & failed_paths)
        assert report.ok == (not failed_paths)

        # Catalog rows exactly match the succeeded products.
        rows = ingestor.db.execute("SELECT product_id FROM products")
        assert sorted(rows.column("product_id")) == sorted(
            p.product_id for p in report.products
        )

        # No partial SciQL arrays: every registered array belongs to a
        # succeeded product and is fully materialised at scene shape.
        allowed = {f"scene_{p.product_id}" for p in report.products}
        for array_name in ingestor.db.arrays():
            assert array_name in allowed
            assert ingestor.db.array(array_name).shape == (32, 32)

        # Full stRDF metadata for every succeeded product...
        for product in report.products:
            assert list(
                ingestor.store.triples((product_uri(product), None, None))
            )
        # ...and none at all for failed files (compensation wiped it).
        for failure in report.failures:
            stem = os.path.splitext(os.path.basename(failure.path))[0]
            leaks = [
                t for t in ingestor.store.triples() if stem in str(t[0])
            ]
            assert not leaks
