"""Image information mining and knowledge discovery (paper refs [3], [4]).

Classifies image patches into concepts from OWL ontologies (landcover,
environmental monitoring) to "close the semantic gap" between user
requests and archive metadata:

* :mod:`repro.mining.ontology` — the landcover and environmental
  monitoring ontologies as RDFS class hierarchies;
* :mod:`repro.mining.features` — patch-grid feature extraction over
  SciQL arrays (tile statistics through SciQL tiled reductions);
* :mod:`repro.mining.classify` — patch classifiers (kNN, Gaussian naive
  Bayes, nearest-centroid) over feature vectors, with JSON-able fitted
  state;
* :mod:`repro.mining.models` — named model persistence in the
  relational tier (WAL-durable on storage-engine-backed databases);
* :mod:`repro.mining.annotate` — semantic annotation: classified patches
  published as stRDF linked data with valid time and footprints;
* :mod:`repro.mining.pipeline` — the batchable extract → classify →
  annotate pipeline sharing the NOA chain's resilience machinery;
* :mod:`repro.mining.queries` — stSPARQL catalogue queries over
  annotations, including the hotspot-product join.
"""

from repro.mining.ontology import (
    CONCEPTS,
    landcover_ontology,
    monitoring_ontology,
)
from repro.mining.classify import (
    CLASSIFIER_KINDS,
    Classifier,
    GaussianNBClassifier,
    KNNClassifier,
    NearestCentroidClassifier,
    classifier_from_state,
    train_test_split,
)
from repro.mining.features import (
    MINING_FEATURE_NAMES,
    extract_patch_grid,
)
from repro.mining.models import ModelStore
from repro.mining.annotate import DEFAULT_VALIDITY, SemanticAnnotator
from repro.mining.pipeline import MiningPipeline, MiningResult

__all__ = [
    "CLASSIFIER_KINDS",
    "CONCEPTS",
    "Classifier",
    "DEFAULT_VALIDITY",
    "GaussianNBClassifier",
    "KNNClassifier",
    "MINING_FEATURE_NAMES",
    "MiningPipeline",
    "MiningResult",
    "ModelStore",
    "NearestCentroidClassifier",
    "SemanticAnnotator",
    "classifier_from_state",
    "extract_patch_grid",
    "landcover_ontology",
    "monitoring_ontology",
    "train_test_split",
]
