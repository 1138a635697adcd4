"""Patch-grid feature extraction over SciQL arrays.

The knowledge-discovery pillar mines *ingested* scenes: where the
historical :mod:`repro.ingest.features` extractor loops over the raw
:class:`~repro.eo.seviri.SeviriScene` planes in Python, this module
computes the whole patch grid through the database — derived planes
(squares, gradient energy, local contrast) are written as attribute
planes and every per-patch statistic is one ``tile_aggregate`` call, so
the SciQL tiled reduction is the hot loop and the extraction
parallelises over row bands like any other SciQL reduction.

The descriptor (:data:`MINING_FEATURE_NAMES`) is chosen so that every
element is a composition of tile means/maxima and elementwise
arithmetic:

0. mean t039                     4. mean spectral difference (t039-t108)
1. variance t039                 5. max t039 (sub-pixel fire spike)
2. mean t108                     6. gradient energy of t039
3. variance t108                 7. local contrast of t108 (texture)

Variance (not standard deviation) keeps the pipeline closed under
rational arithmetic: for dyadic inputs every feature is *exact*, which
is what lets the testkit's brute-force pure-python oracle demand
bit-identical feature matrices across worker counts.
Gradient energy is the tile mean of ``gx^2 + gy^2`` with ``np.gradient``
central differences; contrast is the tile mean of the squared horizontal
forward difference (a one-offset approximation of GLCM contrast that
needs no quantisation).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import obs, parallel
from repro.geometry import Envelope, Polygon
from repro.ingest.features import Patch, PatchGrid
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.types import DOUBLE

MINING_FEATURE_NAMES = (
    "mean_t039",
    "var_t039",
    "mean_t108",
    "var_t108",
    "mean_diff",
    "max_t039",
    "gradient_energy",
    "contrast",
)

#: Derived attribute planes the extractor materialises before reducing.
_DERIVED_ATTRS = ("sq039", "sq108", "gradsq", "contrast")


def central_gradient(plane: np.ndarray, axis: int) -> np.ndarray:
    """``np.gradient``-style central differences along one axis.

    Interior cells get ``(x[i+1] - x[i-1]) / 2``; edges the one-sided
    full difference.  Written out explicitly so the testkit oracle can
    mirror the exact expression in pure python.
    """
    if axis == 1:
        return central_gradient(plane.T, 0).T
    g = np.zeros_like(plane)
    n = plane.shape[0]
    if n < 2:
        return g
    g[0] = plane[1] - plane[0]
    g[-1] = plane[-1] - plane[-2]
    if n > 2:
        g[1:-1] = (plane[2:] - plane[:-2]) * 0.5
    return g


def contrast_plane(plane: np.ndarray) -> np.ndarray:
    """Squared horizontal forward difference (last column zero)."""
    out = np.zeros_like(plane)
    if plane.shape[1] >= 2:
        d = plane[:, 1:] - plane[:, :-1]
        out[:, :-1] = d * d
    return out


def patch_footprint(
    window: Tuple[float, float, float, float],
    shape: Tuple[int, int],
    row: int,
    col: int,
    size: int,
) -> Polygon:
    """WGS84 footprint of the patch anchored at (row, col).

    Row 0 is the *north* edge of ``window`` (image convention, matching
    :meth:`repro.eo.seviri.SeviriScene.pixel_polygon`).
    """
    lon0, lat0, lon1, lat1 = window
    h, w = shape
    dlon = (lon1 - lon0) / w
    dlat = (lat1 - lat0) / h
    west = lon0 + col * dlon
    east = lon0 + (col + size) * dlon
    north = lat1 - row * dlat
    south = lat1 - (row + size) * dlat
    return Polygon.from_envelope(
        Envelope(west, south, east, north), srid=4326
    )


def _feature_array(array: SciArray) -> SciArray:
    """A scratch array holding the band planes plus derived planes.

    The scratch is never catalogued (no journal hook), so durable
    deployments don't WAL the intermediate planes.
    """
    t039 = np.asarray(array.attribute("t039"), dtype=np.float64)
    t108 = np.asarray(array.attribute("t108"), dtype=np.float64)
    h, w = t039.shape
    attrs = [("t039", DOUBLE), ("t108", DOUBLE)] + [
        (name, DOUBLE) for name in _DERIVED_ATTRS
    ]
    for truth in ("truth_fire", "truth_scar"):
        if array.has_attribute(truth):
            attrs.append((truth, DOUBLE))
    scratch = SciArray(
        "mining_features",
        [Dimension("row", 0, h), Dimension("col", 0, w)],
        attrs,
    )
    gx = central_gradient(t039, 0)
    gy = central_gradient(t039, 1)
    scratch.set_attribute("t039", t039)
    scratch.set_attribute("t108", t108)
    scratch.set_attribute("sq039", t039 * t039)
    scratch.set_attribute("sq108", t108 * t108)
    scratch.set_attribute("gradsq", gx * gx + gy * gy)
    scratch.set_attribute("contrast", contrast_plane(t108))
    for truth in ("truth_fire", "truth_scar"):
        if scratch.has_attribute(truth):
            scratch.set_attribute(
                truth, np.asarray(array.attribute(truth), dtype=np.float64)
            )
    return scratch


def extract_patch_grid(
    array: SciArray,
    window: Tuple[float, float, float, float],
    patch_size: int = 8,
    workers: Optional[int] = None,
    scheduler: Optional["parallel.TaskScheduler"] = None,
) -> PatchGrid:
    """Cut an ingested scene array into a georeferenced patch grid.

    ``array`` needs float ``t039``/``t108`` attribute planes (the shape
    :func:`repro.ingest.handlers.scene_to_array` produces); the optional
    ``truth_fire``/``truth_scar`` planes become per-patch ground-truth
    fractions.  ``window`` is the scene's (lon0, lat0, lon1, lat1)
    extent.  Partial patches at the south/east edges are dropped, like
    the historical in-memory extractor.

    Every statistic runs through ``SciArray.tile_aggregate`` — row-band
    parallel under ``workers`` — and the result is bit-identical across
    worker counts because tiles are always reduced whole over float64
    planes.
    """
    size = int(patch_size)
    if size < 1:
        raise ValueError("patch_size must be >= 1")
    if array.ndim != 2:
        raise ValueError("patch extraction needs a 2-D scene array")
    h, w = array.shape
    if size > h or size > w:
        raise ValueError(
            f"patch_size {size} larger than the {h}x{w} scene"
        )
    with obs.span("mining.extract", array=array.name, patch=size):
        scratch = _feature_array(array)
        tile = (size, size)

        def agg(attr: str, func: str = "mean") -> np.ndarray:
            out = scratch.tile_aggregate(
                tile, func, attr, workers=workers, scheduler=scheduler
            )
            return out.attribute(attr)

        m039 = agg("t039")
        m108 = agg("t108")
        msq039 = agg("sq039")
        msq108 = agg("sq108")
        mx039 = agg("t039", "max")
        mgrad = agg("gradsq")
        mcon = agg("contrast")
        var039 = np.maximum(msq039 - m039 * m039, 0.0)
        var108 = np.maximum(msq108 - m108 * m108, 0.0)
        feats = np.stack(
            [
                m039,
                var039,
                m108,
                var108,
                m039 - m108,
                mx039,
                mgrad,
                mcon,
            ],
            axis=-1,
        )
        rows, cols = m039.shape
        zeros = np.zeros((rows, cols))
        tfire = agg("truth_fire") if scratch.has_attribute("truth_fire") else zeros
        tscar = agg("truth_scar") if scratch.has_attribute("truth_scar") else zeros

        patches = []
        for i in range(rows):
            for j in range(cols):
                row, col = i * size, j * size
                patches.append(
                    Patch(
                        row,
                        col,
                        size,
                        feats[i, j].copy(),
                        patch_footprint(window, (h, w), row, col, size),
                        float(tfire[i, j]),
                        float(tscar[i, j]),
                    )
                )
    obs.counter("mining.extract.patches").inc(len(patches))
    return PatchGrid(patches, size)
