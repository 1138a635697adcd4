"""The end-to-end mining pipeline: vault → SciQL features → annotations.

The knowledge-discovery pillar on the shared
:class:`~repro.stages.StageRunner`: each acquisition runs extract →
classify → annotate as retried, deadline-checked stages with the
``mining.<stage>`` fault-injection sites, and
:meth:`MiningPipeline.run_batch` loads every annotation graph into the
store after the batch's last acquisition.  Failures degrade per acquisition to
:class:`~repro.stages.ChainFailure` — a faulted scene contributes
*zero* annotation triples (no orphans), the rest of the batch lands.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Dict, List, Optional, Sequence, Tuple

from repro import resilience
from repro.eo.products import Product
from repro.ingest.features import PatchGrid
from repro.mining.annotate import DEFAULT_VALIDITY, SemanticAnnotator
from repro.mining.classify import Classifier
from repro.mining.features import extract_patch_grid
from repro.rdf import Graph
from repro.stages import ChainFailure, Stages, StageRunner


class MiningResult:
    """One acquisition's mining output, with per-stage timings."""

    def __init__(self, product: Product, grid: PatchGrid):
        self.product = product
        self.grid = grid
        self.labels: List[str] = []
        self.rdf: Graph = Graph()
        self.timings: Dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return True

    def label_statistics(self) -> Dict[str, int]:
        stats: Dict[str, int] = {}
        for label in self.labels:
            stats[label] = stats.get(label, 0) + 1
        return stats

    def __repr__(self) -> str:
        return (
            f"<MiningResult {self.product.product_id} "
            f"patches={len(self.grid)} {self.label_statistics()}>"
        )


class MiningPipeline(StageRunner):
    """Batchable patch-mining over ingested acquisitions.

    ``classifier`` is a *fitted* :class:`Classifier` (train one with
    :func:`repro.mining.features.extract_patch_grid` +
    ``PatchGrid.truth_labels``, or load persisted state through
    :class:`repro.mining.models.ModelStore`).
    """

    site = "mining"
    metric = "mining"

    def __init__(
        self,
        ingestor,
        classifier: Classifier,
        patch_size: int = 8,
        retry: Optional[resilience.RetryPolicy] = None,
        deadline: Optional[float] = None,
        validity: timedelta = DEFAULT_VALIDITY,
        concept_map: Optional[Dict] = None,
    ):
        super().__init__(ingestor, retry=retry, deadline=deadline)
        self.classifier = classifier
        self.patch_size = patch_size
        self.annotator = SemanticAnnotator(
            classifier, concept_map=concept_map, validity=validity
        )

    # -- execution -----------------------------------------------------------

    def run_batch(
        self,
        paths: Sequence[str],
    ) -> List["MiningResult | ChainFailure"]:
        """Mine a whole acquisition series with one merged RDF emit.

        Results come back in ``paths`` order; an acquisition that fails
        (hard fault, bad file) occupies its slot as a
        :class:`ChainFailure` and contributes no annotations (see
        :meth:`~repro.stages.StageRunner._run_batch`).
        """
        return self._run_batch(paths)

    def _execute(self, path: str) -> MiningResult:
        stage = Stages(self)

        # (a) extraction — ingest + patch-grid features through SciQL.
        def extract() -> Tuple[Product, PatchGrid]:
            product = self.ingestor.ingest_file(path, lazy=True)
            array = self.ingestor.materialize_array(product)
            env = product.envelope
            window = (env.minx, env.miny, env.maxx, env.maxy)
            grid = extract_patch_grid(
                array, window, patch_size=self.patch_size
            )
            return product, grid

        product, grid = stage("extract", extract, locked=True, path=path)
        result = MiningResult(product, grid)

        # (b) classification — concepts from the fitted model.  Runs
        # unlocked: predict touches only this acquisition's features.
        result.labels = stage(
            "classify",
            lambda: self.classifier.predict(grid.feature_matrix()),
            path=path,
        )

        # (c) annotation — stRDF (valid time + footprints) for the
        # batch's one store write.  Runs unlocked: it reads only this
        # acquisition's labels.
        result.rdf = stage(
            "annotate",
            lambda: self.annotator.annotate(product, grid, result.labels),
            path=path,
        )
        result.timings = stage.timings
        return result
