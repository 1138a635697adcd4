"""The NOA hotspot processing chain.

Paper §4: "The processing chain utilized by the NOA fire monitoring
service consists of the following modules: (a) ingestion, (b) cropping,
(c) georeference, (d) classification, and (e) generation of shapefiles
containing the geometries of hotspots."

Each module is a timed stage of :class:`ProcessingChain`; pixels flow
through a SciQL array (crop = array slicing, classification = a SciQL
UPDATE or the contextual window operator), and the output is a Level-2
product: hotspot polygons with confidences, optionally written as a real
shapefile, plus stRDF metadata for the catalog.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import resilience
from repro.eo.products import ProcessingLevel, Product
from repro.geometry import Polygon
from repro.geometry.gridpoly import cells_to_geometry
from repro.geometry.multi import MultiPolygon, collect, flatten
from repro.geometry.overlay import union_all
from repro.geometry.srs import register_affine_grid
from repro.ingest.harvest import Ingestor
from repro.ingest.metadata import product_to_rdf, product_uri
from repro.mdb.sciql import SciArray
from repro.noa.classification import CLASSIFIERS
from repro.noa.shapefile import Feature, write_shapefile
from repro.rdf import Graph, Literal, URIRef
from repro.rdf.namespace import NOA, RDF, XSD
from repro.stages import ChainFailure, Stages, StageRunner
from repro.strabon.strdf import geometry_literal

_TYPE = URIRef(str(RDF) + "type")

#: SRIDs of per-product sensor grids, numbered process-wide: the SRS
#: registry they land in is process-wide too, so a per-chain counter
#: would let a second chain re-register an earlier product's SRID.
_GRID_SRIDS = itertools.count(910001)


class Hotspot:
    """One detected hotspot: a polygon with detection attributes."""

    def __init__(
        self,
        index: int,
        geometry: Polygon | MultiPolygon,
        confidence: float,
        pixel_count: int,
        product_id: str,
        kind: str = "hotspot",
    ):
        self.index = index
        self.geometry = geometry
        self.confidence = confidence
        self.pixel_count = pixel_count
        self.product_id = product_id
        # URI segment of the detection: "hotspot" for the fire chain,
        # "burnscar" for the burn-scar mapping chain, etc.
        self.kind = kind

    @property
    def uri(self) -> URIRef:
        return URIRef(
            f"{NOA}{self.kind}/{self.product_id}/{self.index}"
        )

    def __repr__(self) -> str:
        return (
            f"<Hotspot #{self.index} px={self.pixel_count} "
            f"conf={self.confidence:.2f}>"
        )


class GeoGrid:
    """Georeference of a (possibly cropped) scene array."""

    def __init__(
        self,
        window: Tuple[float, float, float, float],
        full_shape: Tuple[int, int],
        row_range: Tuple[int, int],
        col_range: Tuple[int, int],
        srid: int,
    ):
        self.window = window
        self.full_shape = full_shape
        self.row_range = row_range
        self.col_range = col_range
        self.srid = srid

    def corner_to_lonlat(self, row: int, col: int) -> Tuple[float, float]:
        """World position of the lattice corner (row, col) of the *full*
        grid (row 0 / col 0 = north-west corner)."""
        lon0, lat0, lon1, lat1 = self.window
        h, w = self.full_shape
        return (
            lon0 + col * (lon1 - lon0) / w,
            lat1 - row * (lat1 - lat0) / h,
        )

    def pixel_polygon(self, row: int, col: int) -> Polygon:
        nw = self.corner_to_lonlat(row, col)
        se = self.corner_to_lonlat(row + 1, col + 1)
        return Polygon(
            [(nw[0], se[1]), (se[0], se[1]), (se[0], nw[1]), (nw[0], nw[1])],
            srid=4326,
        )


class ChainResult:
    """Everything a chain run produced, with per-stage timings."""

    def __init__(self, product: Product, classifier: str):
        self.source_product = product
        self.classifier = classifier
        self.derived_product: Optional[Product] = None
        self.hotspots: List[Hotspot] = []
        self.hotspot_mask: Optional[np.ndarray] = None
        self.grid: Optional[GeoGrid] = None
        self.shapefile_path: Optional[str] = None
        self.rdf: Graph = Graph()
        self.timings: Dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return True

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def hotspot_union(self) -> Polygon | MultiPolygon:
        """All hotspot geometry as one (multi)polygon."""
        geoms = [g for h in self.hotspots for g in flatten(h.geometry)]
        merged = union_all([g for g in geoms if isinstance(g, Polygon)])
        return collect([m.with_srid(4326) for m in merged], srid=4326)

    def __repr__(self) -> str:
        return (
            f"<ChainResult {self.classifier} hotspots={len(self.hotspots)} "
            f"{self.total_seconds * 1000:.1f}ms>"
        )


class ProcessingChain(StageRunner):
    """The five-module NOA chain over the TELEIOS database tier.

    Stage envelopes and the batch loop come from
    :class:`~repro.stages.StageRunner`; this class supplies the five
    stage bodies and detection vectorisation.  A second NOA-style
    application (see :class:`repro.noa.burnscar.BurnScarChain`)
    subclasses it and overrides only the hooks below — the classifier
    registry, the detection identity, and the confidence model.
    """

    site = "chain"
    metric = "noa"
    #: Classifier-submodule registry this chain validates against.
    registry: Dict[str, Callable] = CLASSIFIERS
    #: URI segment of emitted detections (``noa:<kind>/<product>/<i>``).
    detection_kind = "hotspot"
    #: RDF class (``noa:`` local name) of emitted detections.
    detection_class = "Hotspot"
    #: Derived-product id suffix (``<product>_<suffix>_<classifier>``).
    derived_suffix = "hotspots"

    def __init__(
        self,
        ingestor: Ingestor,
        classifier: str = "static",
        crop_window: Optional[Tuple[float, float, float, float]] = None,
        min_pixels: int = 1,
        retry: Optional[resilience.RetryPolicy] = None,
        deadline: Optional[float] = None,
    ):
        if classifier not in self.registry:
            raise ValueError(
                f"unknown classifier {classifier!r}; "
                f"have {sorted(self.registry)}"
            )
        super().__init__(ingestor, retry=retry, deadline=deadline)
        self.classifier = classifier
        self.crop_window = crop_window
        self.min_pixels = min_pixels

    # -- the chain ------------------------------------------------------------

    def run_batch(
        self,
        paths: Sequence[str],
        output_dir: Optional[str] = None,
    ) -> List["ChainResult | ChainFailure"]:
        """Execute the chain over a whole acquisition series.

        The every-5-minutes batch shape of the NOA service: the
        acquisitions in path order and one stRDF write to the store (see
        :meth:`~repro.stages.StageRunner._run_batch`).  Results are in
        ``paths`` order and identical to sequential :meth:`run` calls
        (hotspots, confidences, RDF), except that a failing acquisition
        gets a :class:`ChainFailure` in its slot instead of raising.
        """
        return self._run_batch(paths, output_dir=output_dir)

    def _execute(
        self,
        path: str,
        output_dir: Optional[str] = None,
    ) -> ChainResult:
        """One chain execution; its stRDF is left in ``result.rdf`` for
        the batch's one store write.  The database lock guards the
        stages that mutate shared tiers.  Stage bodies are idempotent —
        ingestion upserts, cropping re-registers the crop array, SciQL
        attribute writes are write-then-swap — so a retried stage
        recomputes."""
        stage = Stages(self)

        # (a) ingestion — vault cataloging + array materialisation.
        def ingest() -> Tuple[Product, SciArray]:
            product = self.ingestor.ingest_file(path, lazy=True)
            return product, self.ingestor.materialize_array(product)

        product, array = stage("ingestion", ingest, locked=True, path=path)
        result = ChainResult(product, self.classifier)

        header_window = self._product_window(product)
        full_shape = array.shape

        # (b) cropping — SciQL array slicing on the area of interest.
        array, row_range, col_range = stage(
            "cropping",
            lambda: self._crop(array, header_window, full_shape),
            locked=True, path=path,
        )

        # (c) georeference — register the sensor grid CRS.
        grid = stage(
            "georeference",
            lambda: self._georeference(
                product, header_window, full_shape, row_range, col_range
            ),
            locked=True, path=path,
        )
        result.grid = grid

        # (d) classification — the selected submodule fills 'hotspot'.
        # Runs unlocked: submodules own their acquisition's array, and
        # SciQL UPDATEs serialise inside Database.execute.
        mask = stage(
            "classification",
            lambda: self.registry[self.classifier](array, self.ingestor.db),
            path=path, classifier=self.classifier,
        )
        result.hotspot_mask = mask

        # (e) shapefile generation — components → polygons → .shp + RDF.
        def shapefile() -> None:
            hotspots = self._vectorize(array, mask, grid, product)
            result.hotspots = hotspots
            derived = product.derive(
                f"{product.product_id}_{self.derived_suffix}_"
                f"{self.classifier}",
                ProcessingLevel.L2_DERIVED,
                metadata={"hasClassifier": self.classifier},
            )
            result.derived_product = derived
            if output_dir is not None:
                os.makedirs(output_dir, exist_ok=True)
                base = os.path.join(output_dir, derived.product_id)
                write_shapefile(base, self._features(hotspots))
                result.shapefile_path = base + ".shp"
                derived.path = result.shapefile_path
            result.rdf = self._emit_rdf(derived, hotspots)

        stage("shapefile", shapefile, path=path)

        result.timings = stage.timings
        return result

    # -- modules ------------------------------------------------------------------

    @staticmethod
    def _product_window(
        product: Product,
    ) -> Tuple[float, float, float, float]:
        env = product.envelope
        return (env.minx, env.miny, env.maxx, env.maxy)

    def _crop(
        self,
        array: SciArray,
        window: Tuple[float, float, float, float],
        full_shape: Tuple[int, int],
    ) -> Tuple[SciArray, Tuple[int, int], Tuple[int, int]]:
        h, w = full_shape
        if self.crop_window is None:
            return array, (0, h), (0, w)
        lon0, lat0, lon1, lat1 = window
        clon0, clat0, clon1, clat1 = self.crop_window
        col0 = max(0, int((clon0 - lon0) / (lon1 - lon0) * w))
        col1 = min(w, int(np.ceil((clon1 - lon0) / (lon1 - lon0) * w)))
        row0 = max(0, int((lat1 - clat1) / (lat1 - lat0) * h))
        row1 = min(h, int(np.ceil((lat1 - clat0) / (lat1 - lat0) * h)))
        if col1 <= col0 or row1 <= row0:
            raise ValueError(
                f"crop window {self.crop_window} misses product window "
                f"{window}"
            )
        cropped = array.slice(row=(row0, row1), col=(col0, col1))
        # Register the crop so SciQL statements can address it by name.
        cropped.name = f"{array.name}_crop"
        catalog = self.ingestor.db.catalog
        if catalog.has_array(cropped.name):
            catalog.drop_array(cropped.name)
        catalog.add_array(cropped)
        return cropped, (row0, row1), (col0, col1)

    def _georeference(
        self,
        product: Product,
        window: Tuple[float, float, float, float],
        full_shape: Tuple[int, int],
        row_range: Tuple[int, int],
        col_range: Tuple[int, int],
    ) -> GeoGrid:
        lon0, lat0, lon1, lat1 = window
        h, w = full_shape
        srid = next(_GRID_SRIDS)
        register_affine_grid(
            srid,
            f"grid-{product.product_id}",
            origin_lon=lon0,
            origin_lat=lat1,
            lon_per_col=(lon1 - lon0) / w,
            lat_per_row=(lat1 - lat0) / h,
        )
        return GeoGrid(window, full_shape, row_range, col_range, srid)

    def _vectorize(
        self,
        array: SciArray,
        mask: np.ndarray,
        grid: GeoGrid,
        product: Product,
    ) -> List[Hotspot]:
        components = _connected_components(mask)
        t039 = array.attribute("t039")
        t108 = array.attribute("t108")
        hotspots: List[Hotspot] = []
        row_off = grid.row_range[0]
        col_off = grid.col_range[0]
        for index, pixels in enumerate(components):
            if len(pixels) < self.min_pixels:
                continue
            # Exact outline of the pixel set via grid boundary tracing
            # (robust against the fully-degenerate shared-edge case).
            geometry = cells_to_geometry(
                [(row_off + r, col_off + c) for r, c in pixels],
                grid.corner_to_lonlat,
                srid=4326,
            )
            pix = np.asarray(pixels, dtype=np.intp)
            confidence = self._confidence(
                t039[pix[:, 0], pix[:, 1]].astype(np.float64),
                t108[pix[:, 0], pix[:, 1]].astype(np.float64),
                array,
            )
            hotspots.append(
                Hotspot(
                    index=index,
                    geometry=geometry,
                    confidence=confidence,
                    pixel_count=len(pixels),
                    product_id=product.product_id,
                    kind=self.detection_kind,
                )
            )
        return hotspots

    def _confidence(
        self,
        t039_pix: np.ndarray,
        t108_pix: np.ndarray,
        array: SciArray,
    ) -> float:
        """Detection confidence from the member-pixel band values.

        The fire model: mean 3.9-10.8 µm difference scaled into
        [0.05, 1.0].  Subclasses override with their own physics.
        """
        diffs = t039_pix - t108_pix
        return float(np.clip(diffs.mean() / 25.0, 0.05, 1.0))

    @staticmethod
    def _features(hotspots: List[Hotspot]) -> List[Feature]:
        return [
            Feature(
                h.geometry,
                {
                    "id": h.index,
                    "conf": round(h.confidence, 4),
                    "pixels": h.pixel_count,
                },
            )
            for h in hotspots
        ]

    def _emit_rdf(
        self, derived: Product, hotspots: List[Hotspot]
    ) -> Graph:
        g = product_to_rdf(derived)
        prod_node = product_uri(derived)
        for h in hotspots:
            node = h.uri
            g.add(
                (node, _TYPE, URIRef(str(NOA) + self.detection_class))
            )
            g.add(
                (node, URIRef(str(NOA) + "hasGeometry"),
                 geometry_literal(h.geometry))
            )
            g.add(
                (
                    node,
                    URIRef(str(NOA) + "hasConfidence"),
                    Literal(h.confidence),
                )
            )
            g.add(
                (
                    node,
                    URIRef(str(NOA) + "hasPixelCount"),
                    Literal(h.pixel_count),
                )
            )
            g.add(
                (node, URIRef(str(NOA) + "isProducedBy"), prod_node)
            )
            g.add(
                (
                    node,
                    URIRef(str(NOA) + "hasAcquisitionTime"),
                    Literal(
                        derived.acquired.isoformat(),
                        datatype=str(XSD) + "dateTime",
                    ),
                )
            )
        return g


def _connected_components(
    mask: np.ndarray,
) -> List[List[Tuple[int, int]]]:
    """4-connected components of a boolean mask.

    Labeling runs over the dense list of nonzero pixels with neighbor
    ids precomputed by numpy fancy indexing: the stack holds plain int
    pixel ids, so no per-neighbor coordinate tuples, bounds checks or
    ndarray scalar reads happen inside the fill loop.
    """
    rows, cols = np.nonzero(mask)
    n = rows.size
    if n == 0:
        return []
    h, w = mask.shape
    index = np.full((h, w), -1, dtype=np.intp)
    index[rows, cols] = np.arange(n, dtype=np.intp)
    # Neighbor pixel ids in each direction (-1 at the grid edge or where
    # the neighbor is off-mask).  Clamping keeps the gather in bounds;
    # np.where masks the clamped lanes out.
    down = np.where(rows + 1 < h, index[np.minimum(rows + 1, h - 1), cols], -1)
    up = np.where(rows > 0, index[np.maximum(rows - 1, 0), cols], -1)
    right = np.where(cols + 1 < w, index[rows, np.minimum(cols + 1, w - 1)], -1)
    left = np.where(cols > 0, index[rows, np.maximum(cols - 1, 0)], -1)
    neighbors = np.stack((down, up, right, left), axis=1).tolist()
    coords = list(zip(rows.tolist(), cols.tolist()))
    seen = bytearray(n)
    components: List[List[Tuple[int, int]]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        component: List[Tuple[int, int]] = []
        while stack:
            i = stack.pop()
            component.append(coords[i])
            for j in neighbors[i]:
                if j >= 0 and not seen[j]:
                    seen[j] = 1
                    stack.append(j)
        components.append(component)
    return components
