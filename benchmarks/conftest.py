"""Shared workload builders for the benchmark suite.

Each benchmark regenerates one figure or demo scenario of the paper (see
DESIGN.md §4 for the experiment index).  Builders are module-scoped so the
expensive synthetic archives are constructed once per file.
"""

import os
from datetime import datetime, timedelta

import pytest

from repro.eo import SceneSpec, generate_scene, write_scene
from repro.vo import VirtualEarthObservatory

#: Fire seeds used across benches: inland, coastal, near-Delphi.
FIRE_SEEDS = [(21.63, 37.7), (23.4, 38.05), (22.5, 38.5)]


def build_archive(
    directory,
    world,
    n_scenes=3,
    width=128,
    height=128,
    glints=3,
    start=datetime(2007, 8, 25, 10, 0),
):
    """Write ``n_scenes`` simulated acquisitions into ``directory``."""
    paths = []
    for i in range(n_scenes):
        spec = SceneSpec(
            width=width,
            height=height,
            seed=100 + i,
            n_fires=0,
            n_glints=glints,
            acquired=start + timedelta(minutes=15 * i),
        )
        scene = generate_scene(spec, world.land, fire_seeds=FIRE_SEEDS)
        path = os.path.join(directory, f"scene_{i:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def observatory(tmp_path_factory):
    """A VEO with a 3-scene archive ingested (lazy)."""
    tmp = tmp_path_factory.mktemp("bench_archive")
    vo = VirtualEarthObservatory()
    paths = build_archive(str(tmp), vo.world)
    vo.ingest_archive(str(tmp))
    return vo, paths

