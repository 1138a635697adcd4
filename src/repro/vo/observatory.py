"""The Virtual Earth Observatory facade.

One object that assembles Figure 2 end to end:

* **Ingestion tier** — the Data Vault and :class:`~repro.ingest.Ingestor`;
* **Database tier** — the MonetDB-style :class:`~repro.mdb.Database`
  (SciQL arrays + relational catalog) and
  :class:`~repro.strabon.StrabonStore` (stRDF metadata, annotations and
  auxiliary linked data);
* **Service tier** — rapid mapping, data mining, annotation services;
* **Application tier** — the fire-monitoring entry points used by the
  demo scenarios (:meth:`run_fire_monitoring`, :meth:`compare_chains`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.eo.linkeddata import GreeceLikeWorld
from repro.ingest.harvest import IngestionReport, Ingestor
from repro.mdb import Database
from repro.mdb.datavault import DataVault
from repro.mining.ontology import combined_ontology
from repro.noa.chain import ChainResult
from repro.noa.refinement import score_hotspots, truth_region
from repro.rdf.rdfs import RDFSReasoner
from repro.strabon import StrabonStore
from repro.vo.catalog import CatalogQuery, ProductCatalog
from repro.vo.services import (
    AnnotationService,
    DataMiningService,
    MetricsService,
    RapidMappingService,
    ResilienceService,
)


class VirtualEarthObservatory:
    """The assembled TELEIOS prototype."""

    def __init__(
        self,
        world: Optional[GreeceLikeWorld] = None,
        load_linked_data: bool = True,
        data_dir: Optional[str] = None,
    ):
        """``data_dir`` (or ``REPRO_DATA_DIR``) makes the database tier
        durable: the relational/SciQL state is recovered from and
        journaled to that directory, and the Strabon store's version
        counter is floored by a persisted *generation* number so
        continuation tokens minted before a restart can never resume
        against the reloaded store."""
        self.world = world or GreeceLikeWorld()
        if data_dir is None:
            data_dir = os.environ.get("REPRO_DATA_DIR")
        self.engine = None
        self.generation = 0
        if data_dir:
            from repro.mdb.storage import StorageEngine

            self.engine = StorageEngine(data_dir).open()
            self.db = self.engine.db
            self.generation = int(
                self.engine.get_meta("generation", 0)
            ) + 1
            self.engine.set_meta("generation", self.generation)
        else:
            self.db = Database()
        self.store = StrabonStore()
        if self.engine is not None:
            # Tokens embed store.version; a fresh process would restart
            # the counter at 0 and stale tokens could validate again.
            # The persisted generation makes every restart's version
            # range disjoint from all earlier ones.
            self.store.set_version_floor(self.generation << 32)
        self.vault = DataVault("eo-archive")
        self.ingestor = Ingestor(self.db, self.store, self.vault)
        self.catalog = ProductCatalog(self.store)
        self.rapid_mapping = RapidMappingService(
            self.ingestor, self.world
        )
        self.data_mining = DataMiningService(self.ingestor)
        self.metrics = MetricsService()
        self.resilience = ResilienceService(self.ingestor)
        self.ontology = combined_ontology()
        self.reasoner = RDFSReasoner(self.ontology)
        if load_linked_data:
            self.store.load_graph(self.world.to_rdf())

    # -- ingestion tier -------------------------------------------------------

    def ingest_archive(
        self, directory: str, lazy: bool = True
    ) -> IngestionReport:
        """Catalog and ingest every scene in a directory."""
        self.ingestor.catalog_directory(directory)
        return self.ingestor.ingest_directory(directory, lazy=lazy)

    # -- application tier --------------------------------------------------------

    def run_fire_monitoring(
        self,
        scene_path: str,
        classifier: str = "static",
        output_dir: Optional[str] = None,
    ) -> Dict:
        """Demo scenarios 1+2 end to end for one scene."""
        result = self.rapid_mapping.run_chain(
            scene_path, classifier=classifier, output_dir=output_dir
        )
        report = self.rapid_mapping.refine()
        fire_map = self.rapid_mapping.build_map(
            title=f"Fire map {result.source_product.product_id}"
        )
        return {"chain": result, "refinement": report, "map": fire_map}

    def run_burn_scar_mapping(
        self,
        scene_path: str,
        classifier: str = "relative",
        output_dir: Optional[str] = None,
    ) -> Dict:
        """Burn-scar damage mapping for one scene: the second NOA-style
        chain over the same machinery, plus its fire map."""
        from repro.noa.burnscar import BurnScarChain
        from repro.noa.mapping import FireMapBuilder

        chain = BurnScarChain(self.ingestor, classifier=classifier)
        result = chain.run(scene_path, output_dir=output_dir)
        scar_map = FireMapBuilder(self.store, self.world).build(
            f"Burn-scar map {result.source_product.product_id}"
        )
        return {"chain": result, "map": scar_map}

    def run_mining(
        self,
        scene_paths: List[str],
        classifier=None,
        train_paths: Optional[List[str]] = None,
        model_name: Optional[str] = None,
    ) -> List:
        """Knowledge discovery over an acquisition series.

        ``classifier`` may be a fitted instance or a persisted model
        name; when omitted, one is trained on ``train_paths`` (defaults
        to the series itself) and persisted under ``model_name`` if
        given.  Returns the per-acquisition
        :class:`~repro.mining.pipeline.MiningResult` list.
        """
        if classifier is None:
            classifier = self.data_mining.train_classifier(
                train_paths or scene_paths, model_name=model_name
            )
        return self.data_mining.mine_batch(scene_paths, classifier)

    def compare_chains(
        self, scene_path: str, classifiers: List[str]
    ) -> Dict[str, ChainResult]:
        """Scenario 1: run chains differing in the classification
        submodule on the same input and collect their products."""
        out: Dict[str, ChainResult] = {}
        for name in classifiers:
            out[name] = self.rapid_mapping.run_chain(
                scene_path, classifier=name
            )
        return out

    def score_result(self, result: ChainResult, scene) -> Dict[str, float]:
        """Thematic accuracy of a chain result against simulator truth."""
        truth = truth_region(scene, self.world)
        return score_hotspots(
            [h.geometry for h in result.hotspots], truth
        )

    # -- durability -----------------------------------------------------------

    def scene_catalog(self):
        """The TerraServer-style bulk scene catalog over this database
        (created on first use; durable when the observatory is)."""
        from repro.mdb.datavault.broker import SceneCatalog

        if not hasattr(self, "_scene_catalog"):
            self._scene_catalog = SceneCatalog(self.db)
        return self._scene_catalog

    def checkpoint(self) -> Optional[str]:
        """Fold the WAL into a snapshot (durable deployments only)."""
        if self.engine is None:
            return None
        return self.engine.checkpoint()

    def close(self) -> None:
        """Release the storage engine (no-op when in-memory)."""
        if self.engine is not None:
            self.engine.close()

    # -- catalog access -------------------------------------------------------------

    def search(self, query: CatalogQuery):
        return self.catalog.search(query)

    def new_query(self) -> CatalogQuery:
        return CatalogQuery()

    def annotation_service(self, classifier) -> AnnotationService:
        return AnnotationService(self.store, classifier)

    # -- introspection -----------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        """Tier-level content counts (useful for dashboards/tests)."""
        return {
            "vault_files": len(self.vault),
            "vault_cached": self.vault.cached_count,
            "relational_tables": len(self.db.tables()),
            "sciql_arrays": len(self.db.arrays()),
            "rdf_triples": len(self.store),
            "products": self.catalog.count_products(),
        }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"<VirtualEarthObservatory products={stats['products']} "
            f"triples={stats['rdf_triples']}>"
        )
