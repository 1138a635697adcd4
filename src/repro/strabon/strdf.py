"""stRDF: spatial and temporal literals.

stRDF (Koubarakis & Kyzirakos, ESWC 2010) extends RDF with two literal
datatypes:

* ``strdf:WKT`` — geometry values in OGC Well-Known Text, optionally with a
  trailing ``;<SRID_IRI>``;
* ``strdf:period`` — half-open validity periods ``[start, end)`` over
  ISO-8601 instants.

GeoSPARQL's ``geo:wktLiteral`` is accepted as an alias (the paper notes
stSPARQL and GeoSPARQL were converging).
"""

from __future__ import annotations

import re
from datetime import datetime
from typing import Tuple

from repro.cache import CacheStats, LRUCache
from repro.geometry import Envelope, Geometry, from_wkt, to_wkt
from repro.geometry.wkt import WKTParseError
from repro.rdf.namespace import GEO, STRDF
from repro.rdf.term import Literal, RDFTerm, URIRef

#: Datatype IRI of stRDF geometry literals.
WKT_DATATYPE = URIRef(str(STRDF) + "WKT")

#: GeoSPARQL alias accepted on input and for geof:* functions.
GEO_WKT_DATATYPE = URIRef(str(GEO) + "wktLiteral")

#: Datatype IRI of stRDF period literals.
PERIOD_DATATYPE = URIRef(str(STRDF) + "period")

_GEOMETRY_DATATYPES = {str(WKT_DATATYPE), str(GEO_WKT_DATATYPE)}

_CRS_SUFFIX_RE = re.compile(
    r";\s*<?http://www\.opengis\.net/def/crs/EPSG/[\d.]*/(\d+)>?\s*$"
)
_CRS_PREFIX_RE = re.compile(
    r"^\s*<http://www\.opengis\.net/def/crs/EPSG/[\d.]*/(\d+)>\s*"
)


class StRDFError(ValueError):
    """Raised for malformed stRDF literals."""


def geometry_literal(
    geom: Geometry, datatype: URIRef = WKT_DATATYPE
) -> Literal:
    """Serialise a geometry as an stRDF WKT literal.

    A non-default SRID is carried in the literal via the EPSG CRS IRI
    suffix, as Strabon does.
    """
    text = to_wkt(geom)
    if geom.srid != 4326:
        text = (
            f"{text};http://www.opengis.net/def/crs/EPSG/0/{geom.srid}"
        )
    return Literal(text, datatype=str(datatype))


def is_geometry_literal(term: RDFTerm) -> bool:
    """Whether ``term`` is a WKT geometry literal."""
    return (
        isinstance(term, Literal)
        and term.datatype is not None
        and str(term.datatype) in _GEOMETRY_DATATYPES
    )


def literal_geometry(term: RDFTerm) -> Geometry:
    """Parse the geometry of a WKT literal (with optional CRS marker)."""
    if not is_geometry_literal(term):
        raise StRDFError(f"not a geometry literal: {term!r}")
    text = term.lexical.strip()
    srid = 4326
    suffix = _CRS_SUFFIX_RE.search(text)
    if suffix:
        srid = int(suffix.group(1))
        text = text[: suffix.start()]
    else:
        prefix = _CRS_PREFIX_RE.match(text)
        if prefix:
            srid = int(prefix.group(1))
            text = text[prefix.end():]
    try:
        return from_wkt(text, default_srid=srid)
    except WKTParseError as exc:
        raise StRDFError(f"bad WKT literal: {exc}") from exc


class GeometryInterner:
    """Memo from WKT literal → (parsed geometry, envelope).

    A WKT literal's geometry is a pure function of its lexical form, so
    entries can never go stale; the interner exists to stop spatial
    FILTERs and R-tree maintenance from re-parsing the same literal per
    row.  The owning store still drops entries when the last triple
    referencing a literal is removed (and on :meth:`clear`) to bound
    memory across workload shifts.
    """

    __slots__ = ("_cache",)

    def __init__(self, maxsize: int = 8192):
        self._cache = LRUCache(maxsize=maxsize, name="strabon.geometries")

    def geometry(self, term: RDFTerm) -> Geometry:
        """Parsed geometry of a WKT literal (cached)."""
        return self.entry(term)[0]

    def envelope(self, term: RDFTerm) -> Envelope:
        """Envelope of a WKT literal's geometry (cached)."""
        return self.entry(term)[1]

    def entry(self, term: RDFTerm) -> Tuple[Geometry, Envelope]:
        """``(geometry, envelope)`` of a WKT literal, both computed once
        (a polygon's ``envelope`` property walks every vertex)."""
        try:
            entry = self._cache.get(term)
        except TypeError:  # unhashable — parse without caching
            geom = literal_geometry(term)
            return geom, geom.envelope
        if entry is None:
            geom = literal_geometry(term)
            entry = (geom, geom.envelope)
            self._cache.put(term, entry)
        return entry

    def discard(self, term: RDFTerm) -> None:
        try:
            self._cache.invalidate(term)
        except TypeError:
            pass

    def clear(self, reset_stats: bool = False) -> None:
        self._cache.clear(reset_stats=reset_stats)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats


def period_literal(start: datetime, end: datetime) -> Literal:
    """Build an stRDF validity period literal ``[start, end)``."""
    if end <= start:
        raise StRDFError(f"empty period [{start}, {end})")
    return Literal(
        f"[{start.isoformat()}, {end.isoformat()})",
        datatype=str(PERIOD_DATATYPE),
    )


_PERIOD_RE = re.compile(
    r"^\s*\[\s*([^,\]]+?)\s*,\s*([^)\]]+?)\s*\)\s*$"
)


def literal_period(term: RDFTerm) -> Tuple[datetime, datetime]:
    """Parse a period literal into ``(start, end)`` datetimes."""
    if not (
        isinstance(term, Literal)
        and term.datatype is not None
        and str(term.datatype) == str(PERIOD_DATATYPE)
    ):
        raise StRDFError(f"not a period literal: {term!r}")
    m = _PERIOD_RE.match(term.lexical)
    if not m:
        raise StRDFError(f"bad period literal: {term.lexical!r}")
    try:
        start = datetime.fromisoformat(m.group(1))
        end = datetime.fromisoformat(m.group(2))
    except ValueError as exc:
        raise StRDFError(f"bad period instants: {exc}") from exc
    if end <= start:
        raise StRDFError(f"empty period {term.lexical!r}")
    return start, end


def periods_overlap(
    a: Tuple[datetime, datetime], b: Tuple[datetime, datetime]
) -> bool:
    """Whether two half-open periods share an instant."""
    return a[0] < b[1] and b[0] < a[1]


def period_contains(
    period: Tuple[datetime, datetime], instant: datetime
) -> bool:
    """Whether an instant falls inside a half-open period."""
    return period[0] <= instant < period[1]
