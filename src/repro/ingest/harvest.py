"""The ingestion pipeline: archive files → database tier.

The :class:`Ingestor` wires the three destinations of Figure 2's arrows:

* the file is cataloged in the **Data Vault** (lazy payload access),
* its pixels become a **SciQL array** in the MonetDB-style database,
* a **product record** plus **stRDF metadata** land in the relational
  catalog and in Strabon.
"""

from __future__ import annotations

import os
from datetime import datetime
from typing import Dict, List, Optional

from repro import faults, obs, resilience
from repro.eo.products import ProcessingLevel, Product
from repro.eo.seviri import read_header
from repro.geometry import Envelope, Polygon
from repro.ingest.handlers import seviri_format_handler
from repro.ingest.metadata import product_to_rdf, product_uri
from repro.mdb import Database
from repro.mdb.datavault import DataVault
from repro.mdb.sciql import SciArray
from repro.strabon import StrabonStore


class IngestFailure:
    """One archive file that failed to ingest inside a directory run.

    Mirrors :class:`repro.stages.ChainFailure`: the failure occupies
    the file's slot in the report instead of aborting the run, and the
    original exception is preserved for the caller.
    """

    __slots__ = ("path", "error")

    def __init__(self, path: str, error: BaseException):
        self.path = path
        self.error = error

    @property
    def ok(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"<IngestFailure {os.path.basename(self.path)!r} "
            f"{type(self.error).__name__}: {self.error}>"
        )


class IngestionReport:
    """What one ingestion run produced (and what it failed to)."""

    def __init__(self):
        self.products: List[Product] = []
        self.array_names: List[str] = []
        self.failures: List[IngestFailure] = []
        self.metadata_triples = 0

    @property
    def ok(self) -> bool:
        """True when every attempted file produced a product."""
        return not self.failures

    def __repr__(self) -> str:
        return (
            f"<IngestionReport products={len(self.products)} "
            f"failures={len(self.failures)} "
            f"triples={self.metadata_triples}>"
        )


class Ingestor:
    """Ingests SEVIRI archive files into the database tier."""

    def __init__(
        self,
        db: Database,
        store: StrabonStore,
        vault: Optional[DataVault] = None,
        retry: Optional[resilience.RetryPolicy] = None,
    ):
        self.db = db
        self.store = store
        self.retry = retry or resilience.DEFAULT_RETRY
        # `is not None` matters: an empty vault is falsy (it has __len__).
        self.vault = vault if vault is not None else DataVault("eo-archive")
        if "msg-seviri" not in self.vault.formats():
            self.vault.register_format(seviri_format_handler())
        if not self.db.catalog.has_table("products"):
            self.db.execute(
                "CREATE TABLE products ("
                "product_id STRING, mission STRING, sensor STRING, "
                "level INT, acquired TIMESTAMP, path STRING, "
                "array_name STRING, parent_id STRING)"
            )

    # -- cataloging -----------------------------------------------------------

    def catalog_directory(self, directory: str) -> int:
        """Register every scene file with the vault (headers only)."""
        return len(self.vault.attach_directory(directory, pattern="*.nat"))

    # -- ingestion ---------------------------------------------------------------

    def ingest_file(self, path: str, lazy: bool = True) -> Product:
        """Ingest one scene file.

        With ``lazy=True`` only the header is read now; the pixel array is
        materialised by the vault when first fetched.  ``lazy=False``
        forces immediate payload conversion (the eager-ETL baseline).

        The whole per-file transaction is retried on transient failures
        (the ``ingest.file`` injection point fires at each attempt) and
        is idempotent: the catalog row is only inserted when absent,
        stRDF loads have set semantics, and a failed attempt compensates
        by removing the partial catalog row, SciQL array and metadata it
        created — so a file either ingests completely or leaves no trace.
        """

        def attempt() -> Product:
            faults.maybe_fail("ingest.file")
            return self._ingest_once(path, lazy)

        return resilience.call_with_retry(
            attempt, self.retry, label="ingest.file"
        )

    def _ingest_once(self, path: str, lazy: bool) -> Product:
        self.vault.attach_file(path)
        header = read_header(path)
        acquired = datetime.fromisoformat(str(header["acquired"]))
        product_id = _product_id(path, acquired)
        lon0, lat0, lon1, lat1 = header["window"]  # type: ignore[misc]
        extent = Polygon.from_envelope(
            Envelope(lon0, lat0, lon1, lat1), srid=4326
        )
        product = Product(
            product_id=product_id,
            mission=str(header["mission"]),
            sensor=str(header["sensor"]),
            level=ProcessingLevel.L0_RAW,
            acquired=acquired,
            extent=extent,
            path=path,
            metadata={
                "hasWidth": int(header["width"]),
                "hasHeight": int(header["height"]),
            },
        )
        array_name = f"scene_{product_id}"
        try:
            if self.product_by_id(product_id) is None:
                self.db.insert_rows(
                    "products",
                    [
                        (
                            product.product_id,
                            product.mission,
                            product.sensor,
                            int(product.level),
                            product.acquired,
                            path,
                            array_name,
                            None,
                        )
                    ],
                )
            self.store.load_graph(product_to_rdf(product))
            if not lazy:
                self.materialize_array(product)
        except BaseException:
            self._compensate(product, array_name)
            raise
        return product

    def _compensate(self, product: Product, array_name: str) -> None:
        """Undo the partial artifacts of a failed ingest attempt.

        Removes the catalog row, the registered SciQL array and the
        product's stRDF metadata, so a retried (or abandoned) ingest
        starts from a clean slate and the catalog never advertises a
        product whose ingestion did not complete.
        """
        obs.counter("ingest.file.compensations").inc()
        self.db.execute(
            "DELETE FROM products "
            f"WHERE product_id = '{product.product_id}'"
        )
        if self.db.catalog.has_array(array_name):
            self.db.catalog.drop_array(array_name)
        self.store.apply(deletes=self.store.triples((product_uri(product), None, None)))

    def ingest_directory(
        self, directory: str, lazy: bool = True
    ) -> IngestionReport:
        """Ingest every ``.nat`` scene in a directory (sorted).

        Per-file failures *degrade* instead of aborting the run: a file
        whose ingestion fails (after the retry policy is exhausted) is
        recorded as an :class:`IngestFailure` on the report and the
        remaining files still ingest, mirroring
        :meth:`repro.noa.chain.ProcessingChain.run_batch`.  Every input
        file therefore lands in exactly one of ``report.products`` or
        ``report.failures``.
        """
        report = IngestionReport()
        before = len(self.store)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".nat"):
                continue
            path = os.path.join(directory, name)
            try:
                product = self.ingest_file(path, lazy=lazy)
            except Exception as exc:  # noqa: BLE001 — isolated per file
                obs.counter("ingest.file.failed").inc()
                report.failures.append(IngestFailure(path, exc))
                continue
            obs.counter("ingest.file.ok").inc()
            report.products.append(product)
            report.array_names.append(f"scene_{product.product_id}")
        report.metadata_triples = len(self.store) - before
        return report

    def materialize_array(self, product: Product) -> SciArray:
        """Fetch the product's pixel array (vault ingestion on first call)
        and register it in the database catalog."""
        array_name = f"scene_{product.product_id}"
        if self.db.catalog.has_array(array_name):
            return self.db.array(array_name)
        array = self.vault.fetch(product.path)
        registered = array.copy(array_name)
        self.db.catalog.add_array(registered)
        return registered

    def product_by_id(self, product_id: str) -> Optional[Dict]:
        rows = self.db.execute(
            f"SELECT * FROM products WHERE product_id = '{product_id}'"
        )
        found = list(rows.dicts())
        return found[0] if found else None


def _product_id(path: str, acquired: datetime) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return f"{stem}_{acquired:%Y%m%d%H%M}"
