"""Seeded input generation shared by the workloads.

Scenes come from ``generate_scene(spec, land=None)``: the simulator's
per-pixel land rasterisation costs ~16 s per 1024x1024 scene, and
without it about half the seeded fires sit at sea, which gives the
refinement step real work.
"""

from __future__ import annotations

import os
from datetime import datetime, timedelta
from typing import List, Tuple

import numpy as np

from repro.eo import SceneSpec, generate_scene, write_scene

#: First acquisition; the series runs at the 15-minute SEVIRI cadence.
BASE_TIME = datetime(2007, 8, 25, 12, 0)
CADENCE = timedelta(minutes=15)
#: Share of its lattice cell a fire position may move in.
JITTER = 0.25


def fire_positions(
    rng: np.random.Generator, spec: SceneSpec, fires: int
) -> List[Tuple[float, float]]:
    """About ``fires`` (lon, lat) positions, one per cell of a square
    grid over the scene window, jittered around the cell's centre.

    Uniform placement lets the share of fires at sea, on land, on the
    coastline and near a town or road (what refinement and the spatial
    joins pay for) swing by 5-15 % from seed to seed, which is then the
    spread of every metric.  On the lattice every position, shape and
    temperature still moves with the seed, but the amount of work stays
    nearly the same.
    """
    side = max(1, round(fires ** 0.5))
    lon0, lat0, lon1, lat1 = spec.window
    jitter = rng.uniform(
        0.5 - JITTER / 2, 0.5 + JITTER / 2, size=(side, side, 2)
    )
    return [
        (
            lon0 + (col + jitter[row, col, 0]) * (lon1 - lon0) / side,
            lat0 + (row + jitter[row, col, 1]) * (lat1 - lat0) / side,
        )
        for row in range(side)
        for col in range(side)
    ]


def write_archive(
    directory: str, seed: int, count: int, size: int, fires: int
) -> Tuple[List[str], List[np.ndarray]]:
    """``count`` scene files; returns their paths and true fire masks."""
    paths: List[str] = []
    truth: List[np.ndarray] = []
    for i in range(count):
        spec = SceneSpec(
            width=size,
            height=size,
            seed=seed * 1000 + i,
            acquired=BASE_TIME + i * CADENCE,
        )
        positions = fire_positions(
            np.random.default_rng(spec.seed), spec, fires
        )
        scene = generate_scene(spec, land=None, fire_seeds=positions)
        path = os.path.join(directory, f"msg2_{i:03d}.nat")
        write_scene(scene, path)
        paths.append(path)
        truth.append(scene.fire_mask)
    return paths, truth


def select_rows(store, text: str) -> list:
    """Run a SELECT and consume its solutions."""
    return store.query(text).rows()
