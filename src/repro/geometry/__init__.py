"""OGC Simple Features geometry engine.

A from-scratch computational-geometry substrate providing the spatial
semantics that TELEIOS obtains from PostGIS/JTS: the simple-features type
hierarchy, WKT and GML serialisation, topological predicates, overlay
operations, measurement, simplification, buffering, packed envelope
columns for vectorised spatial pre-filters and coordinate-reference-system
transforms.

Quick example::

    from repro.geometry import Point, Polygon, from_wkt

    poly = from_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
    assert poly.contains(Point(5, 5))
    assert abs(poly.area - 100.0) < 1e-9
"""

from repro.geometry.envelope import Envelope, PackedEnvelopes
from repro.geometry.base import Geometry, GeometryError
from repro.geometry.point import Point
from repro.geometry.linestring import LineString, LinearRing
from repro.geometry.polygon import Polygon
from repro.geometry.multi import (
    GeometryCollection,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
)
from repro.geometry.wkt import WKTParseError, from_wkt, to_wkt
from repro.geometry.gml import from_gml, to_gml
from repro.geometry.geojson import from_geojson, to_geojson
from repro.geometry.srs import (
    CRS,
    SRID_CRS84,
    SRID_WEB_MERCATOR,
    SRID_WGS84,
    get_crs,
    register_crs,
    transform,
)

__all__ = [
    "CRS",
    "Envelope",
    "Geometry",
    "GeometryCollection",
    "GeometryError",
    "LineString",
    "LinearRing",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "PackedEnvelopes",
    "Point",
    "Polygon",
    "SRID_CRS84",
    "SRID_WEB_MERCATOR",
    "SRID_WGS84",
    "WKTParseError",
    "from_geojson",
    "from_gml",
    "from_wkt",
    "get_crs",
    "to_geojson",
    "register_crs",
    "to_gml",
    "to_wkt",
    "transform",
]
