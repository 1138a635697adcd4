"""Refinement of hotspot products with stSPARQL updates.

Paper §4, scenario 2: "the thematic accuracy of these shapefiles is
improved automatically with an additional post processing step that
refines them, transforming them into RDF and comparing them with relevant
geospatial data also available in RDF.  Through this refinement step we
isolate parts of the geometries of the hotspots that are inconsistent
with the geospatial data available, but have been classified as hotspots
earlier due to the low spatial resolution of the MSG/SEVIRI sensor."

Three update steps, each a literal stSPARQL statement (the demo shows the
user exactly these):

1. **delete-in-sea** — hotspots disjoint from the landmass are sensor
   artifacts (sun glint); every triple about them is removed;
2. **clip-to-coast** — hotspots straddling the coastline have their
   geometry replaced by its intersection with the landmass;
3. **delete-in-lakes** — hotspots falling inside inland water bodies are
   removed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.eo.linkeddata import GreeceLikeWorld
from repro.eo.seviri import SeviriScene
from repro.geometry import Geometry, Polygon
from repro.geometry.multi import MultiPolygon, collect, flatten
from repro.geometry.overlay import union_all
from repro.ingest.metadata import NOA_PREFIXES
from repro.strabon import StrabonStore, geometry_literal
from repro.strabon.strdf import is_geometry_literal


class RefinementReport:
    """Per-step effect of one refinement run."""

    def __init__(self):
        self.steps: List[Tuple[str, int]] = []
        self.hotspots_before = 0
        self.hotspots_after = 0
        self.area_before = 0.0
        self.area_after = 0.0

    def step_count(self, name: str) -> int:
        for step, count in self.steps:
            if step == name:
                return count
        raise KeyError(name)

    def __repr__(self) -> str:
        return (
            f"<RefinementReport {self.hotspots_before}->"
            f"{self.hotspots_after} hotspots, "
            f"area {self.area_before:.4f}->{self.area_after:.4f}>"
        )


class Refiner:
    """Applies the three-step stSPARQL refinement to a Strabon store."""

    def __init__(self, store: StrabonStore, world: GreeceLikeWorld):
        self.store = store
        self.world = world
        self._land_wkt = geometry_literal(world.land).lexical
        lakes = world.water_bodies()
        self._lakes_wkt = (
            geometry_literal(
                MultiPolygon(lakes, srid=4326)
            ).lexical
            if lakes
            else None
        )

    # -- the literal statements (shown to the demo user) ------------------------

    def statements(self) -> List[Tuple[str, str]]:
        """The (name, stSPARQL text) pairs executed by :meth:`apply`."""
        land = f'"{self._land_wkt}"^^strdf:WKT'
        steps = [
            (
                "delete-in-sea",
                NOA_PREFIXES
                + "DELETE { ?h ?p ?o }\n"
                "WHERE {\n"
                "  ?h a noa:Hotspot ; noa:hasGeometry ?g ; ?p ?o .\n"
                f"  FILTER(!strdf:intersects(?g, {land}))\n"
                "}",
            ),
            (
                "clip-to-coast",
                NOA_PREFIXES
                + "DELETE { ?h noa:hasGeometry ?g }\n"
                "INSERT { ?h noa:hasGeometry ?clipped }\n"
                "WHERE {\n"
                "  ?h a noa:Hotspot ; noa:hasGeometry ?g .\n"
                f"  FILTER(strdf:intersects(?g, {land}))\n"
                f"  FILTER(!strdf:within(?g, {land}))\n"
                f"  BIND(strdf:intersection(?g, {land}) AS ?clipped)\n"
                "}",
            ),
        ]
        if self._lakes_wkt is not None:
            lakes = f'"{self._lakes_wkt}"^^strdf:WKT'
            steps.append(
                (
                    "delete-in-lakes",
                    NOA_PREFIXES
                    + "DELETE { ?h ?p ?o }\n"
                    "WHERE {\n"
                    "  ?h a noa:Hotspot ; noa:hasGeometry ?g ; ?p ?o .\n"
                    f"  FILTER(strdf:within(?g, {lakes}))\n"
                    "}",
                )
            )
        return steps

    # -- execution -----------------------------------------------------------------

    def hotspot_geometries(self) -> List[Geometry]:
        """Current hotspot geometries in the store."""
        result = self.store.query(
            NOA_PREFIXES
            + "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g }"
        )
        geometry = self.store.geometries.geometry
        return [
            geometry(lit)
            for (lit,) in result.rows()
            if lit is not None and is_geometry_literal(lit)
        ]

    def _hotspot_count(self) -> int:
        result = self.store.query(
            NOA_PREFIXES
            + "SELECT (count(*) AS ?n) WHERE { ?h a noa:Hotspot }"
        )
        return int(result.values()[0][0])

    def _total_area(self) -> float:
        return float(
            sum(g.area for g in self.hotspot_geometries())
        )

    def apply(self) -> RefinementReport:
        """Run all steps; returns the per-step report."""
        report = RefinementReport()
        report.hotspots_before = self._hotspot_count()
        report.area_before = self._total_area()
        for name, statement in self.statements():
            affected = self.store.update(statement)
            report.steps.append((name, affected))
        report.hotspots_after = self._hotspot_count()
        report.area_after = self._total_area()
        return report


# ---------------------------------------------------------------------------
# scoring against the simulator's ground truth
# ---------------------------------------------------------------------------


def truth_region(
    scene: SeviriScene, world: GreeceLikeWorld
) -> Geometry:
    """The true burning area: fire-pixel footprints clipped to the
    landmass (the 'higher-resolution truth' the sensor cannot see)."""
    from repro.geometry.gridpoly import mask_to_geometry

    lon0, lat0, lon1, lat1 = scene.spec.window
    h, w = scene.shape

    def corner(row: int, col: int):
        return (
            lon0 + col * (lon1 - lon0) / w,
            lat1 - row * (lat1 - lat0) / h,
        )

    region = mask_to_geometry(scene.fire_mask, corner, srid=4326)
    return region.intersection(world.land.with_srid(4326))


def score_hotspots(
    hotspots: List[Geometry],
    truth: Geometry,
) -> Dict[str, float]:
    """Area-based precision/recall/F1 of hotspot polygons vs the truth."""
    predicted_polys = [
        g
        for h in hotspots
        for g in flatten(h)
        if isinstance(g, Polygon)
    ]
    merged = union_all(predicted_polys)
    predicted = collect(
        [m.with_srid(4326) for m in merged], srid=4326
    )
    predicted_area = sum(g.area for g in flatten(predicted))
    truth_area = sum(g.area for g in flatten(truth))
    if predicted_area == 0.0 and truth_area == 0.0:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    intersection = predicted.intersection(truth.with_srid(4326))
    hit_area = sum(g.area for g in flatten(intersection))
    precision = hit_area / predicted_area if predicted_area > 0 else 0.0
    recall = hit_area / truth_area if truth_area > 0 else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
