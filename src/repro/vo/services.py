"""The service-processing tier (paper §3, tier 3).

Three in-process service objects expose the lower tiers to applications:
Rapid Mapping (the one the demo exercises), Data Mining and
Automatic/Interactive Semantic Annotation — plus the cross-cutting
:class:`MetricsService`, the observatory's window onto the
process-wide observability registry (:mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import faults, obs
from repro.eo.linkeddata import GreeceLikeWorld
from repro.eo.products import Product
from repro.ingest.features import extract_patches
from repro.ingest.harvest import Ingestor
from repro.mining.annotate import SemanticAnnotator
from repro.mining.classify import Classifier, KNNClassifier
from repro.mining.features import extract_patch_grid
from repro.mining.models import ModelStore
from repro.mining.pipeline import MiningPipeline, MiningResult
from repro.noa.burnscar import BurnScarChain
from repro.noa.chain import ChainFailure, ChainResult, ProcessingChain
from repro.noa.mapping import FireMap, FireMapBuilder
from repro.noa.refinement import RefinementReport, Refiner
from repro.strabon import StrabonStore


class RapidMappingService:
    """Runs the NOA chain, the refinement and the map generation.

    Mirrors the demo flow: "execute the processing chain of NOA using
    SciQL, improve the thematic accuracy of the generated products using
    stSPARQL, and interactively generate a map enhanced with auxiliary
    linked data sources."
    """

    def __init__(
        self,
        ingestor: Ingestor,
        world: GreeceLikeWorld,
        classifier: str = "static",
    ):
        self.ingestor = ingestor
        self.world = world
        self.classifier = classifier

    def run_chain(
        self,
        path: str,
        classifier: Optional[str] = None,
        output_dir: Optional[str] = None,
    ) -> ChainResult:
        chain = ProcessingChain(
            self.ingestor, classifier=classifier or self.classifier
        )
        return chain.run(path, output_dir=output_dir)

    def refine(self) -> RefinementReport:
        return Refiner(self.ingestor.store, self.world).apply()

    def refinement_statements(self) -> List:
        """The literal stSPARQL update statements (shown to the user)."""
        return Refiner(self.ingestor.store, self.world).statements()

    def build_map(self, title: str = "NOA fire map") -> FireMap:
        return FireMapBuilder(self.ingestor.store, self.world).build(title)

    def run_full(
        self, path: str, output_dir: Optional[str] = None
    ) -> Dict:
        """Chain → refinement → map, returning all three artifacts."""
        chain_result = self.run_chain(path, output_dir=output_dir)
        report = self.refine()
        fire_map = self.build_map()
        return {
            "chain": chain_result,
            "refinement": report,
            "map": fire_map,
        }


class DataMiningService:
    """Knowledge-discovery runs over archived scenes.

    The mining pillar's service facade: feature extraction runs through
    the SciQL tile-aggregate read path,
    fitted models persist by name in the relational tier
    (:class:`~repro.mining.models.ModelStore`, WAL-durable on
    storage-engine-backed observatories), and whole acquisition series
    mine through :class:`~repro.mining.pipeline.MiningPipeline` with one
    merged stRDF bulk emit.
    """

    def __init__(self, ingestor: Ingestor, patch_size: int = 8):
        self.ingestor = ingestor
        self.patch_size = patch_size
        self.models = ModelStore(ingestor.db)

    def _grid(self, path: str):
        """Ingest one archive file and extract its patch grid through
        the SciQL array tier."""
        product = self.ingestor.ingest_file(path, lazy=True)
        array = self.ingestor.materialize_array(product)
        env = product.envelope
        window = (env.minx, env.miny, env.maxx, env.maxy)
        return extract_patch_grid(
            array, window, patch_size=self.patch_size
        )

    def train_classifier(
        self,
        scene_paths: Sequence[str],
        classifier: Optional[Classifier] = None,
        model_name: Optional[str] = None,
    ) -> Classifier:
        """Train a patch classifier on ground-truth labels of scenes.

        ``model_name`` persists the fitted state in the model store so a
        later session (or a restarted durable observatory) can
        :meth:`load_model` it without retraining.
        """
        features = []
        labels: List[str] = []
        for path in scene_paths:
            grid = self._grid(path)
            features.append(grid.feature_matrix())
            labels.extend(grid.truth_labels())
        X = np.vstack(features)
        clf = classifier or KNNClassifier(5)
        clf = clf.fit(X, labels)
        if model_name is not None:
            self.models.save(model_name, clf)
        return clf

    def load_model(self, name: str) -> Classifier:
        """Reconstruct a persisted classifier from the model store."""
        return self.models.load(name)

    def _resolve(self, classifier: "Classifier | str") -> Classifier:
        if isinstance(classifier, str):
            return self.models.load(classifier)
        return classifier

    def mine_scene(
        self, path: str, classifier: "Classifier | str"
    ) -> Dict[str, int]:
        """Label every patch of one scene; returns label counts.

        ``classifier`` is a fitted instance or a persisted model name.
        """
        clf = self._resolve(classifier)
        grid = self._grid(path)
        labels = clf.predict(grid.feature_matrix())
        counts: Dict[str, int] = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def pipeline(self, classifier: "Classifier | str", **kwargs) -> MiningPipeline:
        """An extract → classify → annotate pipeline over this tier."""
        return MiningPipeline(
            self.ingestor,
            self._resolve(classifier),
            patch_size=self.patch_size,
            **kwargs,
        )

    def mine_batch(
        self,
        paths: Sequence[str],
        classifier: "Classifier | str",
        workers: Optional[int] = None,
        **kwargs,
    ) -> List["MiningResult | ChainFailure"]:
        """Mine an acquisition series; annotations land as one bulk."""
        return self.pipeline(classifier, **kwargs).run_batch(
            paths, workers=workers
        )


class MetricsService:
    """Serves metrics snapshots from the process-wide registry.

    The service tier's "ops endpoint": :meth:`snapshot` returns the
    structured (JSON-serialisable) state of every counter, gauge,
    histogram and registered cache, and :meth:`exposition` renders the
    same state as a text page (one metric per line) in the style of the
    usual scrape endpoints.
    """

    def __init__(self, registry: Optional[obs.MetricsRegistry] = None):
        self.registry = registry or obs.get_registry()

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def snapshot(self) -> Dict[str, Any]:
        """Structured dict: counters, gauges, histograms, cache stats."""
        return self.registry.snapshot()

    def exposition(self) -> str:
        """Text exposition of the current snapshot."""
        return self.registry.render()

    def reset(self) -> None:
        """Zero every metric (cache registrations survive)."""
        self.registry.reset()


class ResilienceService:
    """The observatory's window onto the failure-handling machinery.

    Companion to :class:`MetricsService`: where that one reports *what
    happened* (counters, histograms), this one reports the *current
    protective state* — each circuit breaker's position and the active
    fault-injection plan — and offers the one recovery lever an operator
    needs (:meth:`reset_breakers` after an outage has been cleared).
    """

    def __init__(self, ingestor: Ingestor):
        self.ingestor = ingestor

    @property
    def breakers(self) -> List:
        """Every circuit breaker guarding the observatory's tiers."""
        return [self.ingestor.vault.breaker]

    def snapshot(self) -> Dict[str, Any]:
        """Breaker states plus the active fault plan (None when off)."""
        return {
            "breakers": [b.describe() for b in self.breakers],
            "faults": faults.describe(),
        }

    def reset_breakers(self) -> int:
        """Force every breaker back to closed; returns how many moved."""
        moved = 0
        for breaker in self.breakers:
            if breaker.state != "closed":
                moved += 1
            breaker.reset()
        return moved


class QueryService:
    """Multi-tenant stSPARQL serving over the observatory's store.

    Thin facade over :class:`repro.server.QueryServer`: applications
    submit queries for a *tenant*, get back one page per time quantum
    with a continuation token, and are admission-controlled per tenant —
    the service-tier shape of the paper's "many scientists share one
    observatory" deployment.  Constructed lazily so observatories that
    never serve concurrent tenants pay nothing for it.
    """

    def __init__(
        self,
        store: StrabonStore,
        quantum_ms: Optional[float] = -1.0,
        quotas: Optional[Dict[str, float]] = None,
        max_pending: Optional[int] = None,
    ):
        from repro.server import QueryServer

        self.server = QueryServer(
            store,
            quantum_ms=quantum_ms,
            quotas=quotas,
            max_pending=max_pending,
        )

    async def submit(self, tenant: str, query=None, token=None, deadline=None):
        """One quantum of work: a :class:`repro.server.QueryPage`."""
        return await self.server.submit(
            tenant, query=query, token=token, deadline=deadline
        )

    async def fetch(self, tenant: str, query: str, deadline=None):
        """The complete result, yielding between quanta."""
        return await self.server.fetch(tenant, query, deadline=deadline)

    async def close(self) -> None:
        await self.server.close()


class AnnotationService:
    """Automatic semantic annotation published into Strabon."""

    def __init__(
        self,
        store: StrabonStore,
        classifier: Classifier,
        patch_size: int = 8,
    ):
        self.store = store
        self.annotator = SemanticAnnotator(classifier)
        self.patch_size = patch_size

    def annotate_product(self, product: Product, scene) -> int:
        """Classify the scene's patches and publish annotations;
        returns the number of triples added."""
        grid = extract_patches(scene, patch_size=self.patch_size)
        graph = self.annotator.annotate(product, grid)
        return self.store.load_graph(graph)
