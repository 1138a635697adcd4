"""Burn-scar mapping: a second NOA-style chain over the same machinery.

The paper argues the vault → SciQL → Strabon pipeline is *generic* —
one database tier serving many EO applications.  This module is the
proof: burn-scar mapping (NOA's other operational fire product, the
damage assessment run *after* a fire season) reuses the whole of
:class:`~repro.noa.chain.ProcessingChain` — stage envelopes with
retry/deadline/fault injection, ``run_batch`` pipelining with the single
merged RDF bulk emit, vectorisation and shapefile output — and differs
only in its classifier registry and detection identity.

Physics of the synthetic scenes (:mod:`repro.eo.seviri`): a burn scar
is recently burnt low-albedo land running ~5-8 K hot in the 10.8 µm
background with a *small* 3.9-10.8 µm difference — the opposite spectral
shape of an active fire front (huge 3.9 µm anomaly), which is why the
two chains need different classifiers but share everything else.
"""

from __future__ import annotations

import numpy as np

from repro.eo.seviri import SCAR_T108_MAX_K
from repro.mdb import Database
from repro.mdb.sciql import SciArray
from repro.noa.chain import ProcessingChain
from repro.noa.classification import ensure_mask_attribute

#: 10.8um absolute threshold (K) of the static scar test (tuned to the
#: simulator's noon default: land background ~301 K, scars >= ~306 K).
STATIC_SCAR_T108_K = 304.5
#: Background percentile the relative test estimates land temperature
#: from, taken over the warm (above-scene-mean) pixel population so a
#: mostly-sea scene cannot drag the estimate into the sea temperatures.
SCAR_BACKGROUND_PCT = 75.0
#: 10.8um anomaly (K) above the background estimate that makes a scar.
SCAR_DELTA_K = 3.0
#: Scars stay spectrally flat: 3.9-10.8um difference below this bound
#: (active fire fronts are far above it and must not be mapped).
SCAR_DIFF_MAX_K = 5.0

#: The SciQL statement template of the scar classifiers.
SCAR_SCIQL_TEMPLATE = (
    "UPDATE {array} SET burnscar = 1 "
    "WHERE t108 > {t108} AND t039 - t108 < {diff}"
)


def scar_background(t108: np.ndarray) -> float:
    """Estimate the land background temperature of a 10.8 µm plane.

    Sea and cloud pixels sit well below land; restricting the percentile
    to the above-mean population keeps the estimate on land even when
    the scene is mostly sea (a Greek coastal frame is ~3/4 water).
    """
    plane = np.asarray(t108, dtype=np.float64)
    warm = plane[plane > plane.mean()]
    if warm.size == 0:  # constant plane — degenerate but well-defined
        warm = plane.reshape(-1)
    return float(np.percentile(warm, SCAR_BACKGROUND_PCT))


def static_scar_classifier(
    array: SciArray,
    db: Database,
    t108_threshold: float = STATIC_SCAR_T108_K,
    diff_max: float = SCAR_DIFF_MAX_K,
) -> np.ndarray:
    """Fixed-threshold scar test as a declarative SciQL UPDATE."""
    ensure_mask_attribute(array, "burnscar")
    db.execute(
        SCAR_SCIQL_TEMPLATE.format(
            array=array.name, t108=t108_threshold, diff=diff_max
        )
    )
    return array.attribute("burnscar") > 0.5


def relative_scar_classifier(
    array: SciArray,
    db: Database,
    delta: float = SCAR_DELTA_K,
    diff_max: float = SCAR_DIFF_MAX_K,
) -> np.ndarray:
    """Background-relative scar test (robust to acquisition time).

    The land background temperature is estimated with
    :func:`scar_background` (a high percentile of the warm pixel
    population), the threshold follows the diurnal cycle automatically,
    and the classification itself stays one SciQL UPDATE.
    """
    ensure_mask_attribute(array, "burnscar")
    background = scar_background(array.attribute("t108"))
    db.execute(
        SCAR_SCIQL_TEMPLATE.format(
            array=array.name, t108=background + delta, diff=diff_max
        )
    )
    return array.attribute("burnscar") > 0.5


#: Submodule registry of the burn-scar chain.
BURNSCAR_CLASSIFIERS = {
    "static": static_scar_classifier,
    "relative": relative_scar_classifier,
}


class BurnScarChain(ProcessingChain):
    """Burn-scar mapping through the generic chain machinery."""

    registry = BURNSCAR_CLASSIFIERS
    detection_kind = "burnscar"
    detection_class = "BurnScar"
    derived_suffix = "burnscars"

    def __init__(
        self,
        ingestor,
        classifier: str = "relative",
        crop_window=None,
        min_pixels: int = 4,
        retry=None,
        deadline=None,
    ):
        # Scars are broad regions; the min_pixels floor drops the odd
        # warm speck that clears the relative threshold.
        super().__init__(
            ingestor,
            classifier=classifier,
            crop_window=crop_window,
            min_pixels=min_pixels,
            retry=retry,
            deadline=deadline,
        )

    def _confidence(
        self,
        t039_pix: np.ndarray,
        t108_pix: np.ndarray,
        array: SciArray,
    ) -> float:
        """Severity: mean 10.8 µm anomaly over the background estimate,
        scaled by the simulator's maximum scar signal."""
        anomaly = float(t108_pix.mean()) - scar_background(
            array.attribute("t108")
        )
        return float(np.clip(anomaly / SCAR_T108_MAX_K, 0.05, 1.0))
