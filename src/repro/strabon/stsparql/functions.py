"""stSPARQL builtin and extension functions.

Two registries:

* ``BUILTINS`` — SPARQL 1.1 builtins (``bound``, ``regex``, ``str``…),
  keyed by lower-case name;
* ``EXTENSIONS`` — functions keyed by full IRI: the stRDF spatial family
  (``strdf:intersects``, ``strdf:distance``, ``strdf:buffer``…) and their
  GeoSPARQL ``geof:*`` aliases.

Functions operate on RDF terms and return RDF terms (or Python bool/num
which the evaluator wraps).  Their ``ctx`` argument is the store's
:class:`repro.strabon.strdf.GeometryInterner`, so a geometry literal is
parsed once per store.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict

from repro.geometry import Geometry
from repro.geometry.srs import geodesic_distance_m
from repro.rdf.namespace import GEO, STRDF, XSD
from repro.rdf.term import BNode, Literal, URIRef
from repro.strabon import strdf
from repro.strabon.stsparql.errors import StSPARQLError


def term_value(term) -> Any:
    """RDF term → comparable Python value."""
    if isinstance(term, Literal):
        return term.to_python()
    return term


def numeric(term) -> float:
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, bool):
            raise StSPARQLError("boolean where a number is required")
        if isinstance(value, (int, float)):
            return value
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise StSPARQLError(f"not a numeric value: {term!r}")


def ebv(value: Any) -> bool:
    """Effective boolean value (SPARQL §17.2.2)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not (
            isinstance(value, float) and math.isnan(value)
        )
    if isinstance(value, Literal):
        py = value.to_python()
        if isinstance(py, bool):
            return py
        if isinstance(py, (int, float)):
            return ebv(py)
        return len(value.lexical) > 0
    if isinstance(value, str):
        return len(value) > 0
    raise StSPARQLError(f"no effective boolean value for {value!r}")


# ---------------------------------------------------------------------------
# SPARQL builtins
# ---------------------------------------------------------------------------


def _str_of(term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


def _bi_regex(ctx, args):
    text = _str_of(args[0])
    pattern = _str_of(args[1])
    flags = 0
    if len(args) > 2 and "i" in _str_of(args[2]):
        flags |= re.IGNORECASE
    return re.search(pattern, text, flags) is not None


def _bi_if(ctx, args):
    return args[1] if ebv(args[0]) else args[2]


def _bi_coalesce(ctx, args):
    for a in args:
        if a is not None:
            return a
    raise StSPARQLError("COALESCE exhausted its arguments")


BUILTINS: Dict[str, Callable] = {
    "str": lambda ctx, a: Literal(_str_of(a[0])),
    "lang": lambda ctx, a: Literal(
        a[0].language or "" if isinstance(a[0], Literal) else ""
    ),
    "datatype": lambda ctx, a: (
        a[0].datatype or URIRef(str(XSD) + "string")
        if isinstance(a[0], Literal)
        else URIRef(str(XSD) + "string")
    ),
    "iri": lambda ctx, a: URIRef(_str_of(a[0])),
    "uri": lambda ctx, a: URIRef(_str_of(a[0])),
    "isiri": lambda ctx, a: isinstance(a[0], URIRef),
    "isuri": lambda ctx, a: isinstance(a[0], URIRef),
    "isblank": lambda ctx, a: isinstance(a[0], BNode),
    "isliteral": lambda ctx, a: isinstance(a[0], Literal),
    "isnumeric": lambda ctx, a: isinstance(a[0], Literal)
    and a[0].is_numeric,
    "regex": _bi_regex,
    "contains": lambda ctx, a: _str_of(a[1]) in _str_of(a[0]),
    "strstarts": lambda ctx, a: _str_of(a[0]).startswith(_str_of(a[1])),
    "strends": lambda ctx, a: _str_of(a[0]).endswith(_str_of(a[1])),
    "strlen": lambda ctx, a: Literal(len(_str_of(a[0]))),
    "substr": lambda ctx, a: Literal(
        _str_of(a[0])[int(numeric(a[1])) - 1 :]
        if len(a) == 2
        else _str_of(a[0])[
            int(numeric(a[1])) - 1 : int(numeric(a[1])) - 1 + int(numeric(a[2]))
        ]
    ),
    "ucase": lambda ctx, a: Literal(_str_of(a[0]).upper()),
    "lcase": lambda ctx, a: Literal(_str_of(a[0]).lower()),
    "concat": lambda ctx, a: Literal("".join(_str_of(x) for x in a)),
    "replace": lambda ctx, a: Literal(
        re.sub(_str_of(a[1]), _str_of(a[2]), _str_of(a[0]))
    ),
    "abs": lambda ctx, a: Literal(abs(numeric(a[0]))),
    "ceil": lambda ctx, a: Literal(math.ceil(numeric(a[0]))),
    "floor": lambda ctx, a: Literal(math.floor(numeric(a[0]))),
    "round": lambda ctx, a: Literal(round(numeric(a[0]))),
    "sameterm": lambda ctx, a: a[0] == a[1],
    "if": _bi_if,
    "coalesce": _bi_coalesce,
}


# ---------------------------------------------------------------------------
# Spatial extension functions (strdf:* with geof:* aliases)
# ---------------------------------------------------------------------------


def _geom(ctx: strdf.GeometryInterner, term) -> Geometry:
    return ctx.geometry(term)


def _predicate(fn: Callable[[Geometry, Geometry], bool]):
    def wrapper(ctx, args):
        a = _geom(ctx, args[0])
        b = _geom(ctx, args[1])
        if a.srid != b.srid:
            b = b.transform(a.srid)
        return fn(a, b)

    return wrapper


def _constructor(fn: Callable[..., Geometry]):
    def wrapper(ctx, args):
        return strdf.geometry_literal(fn(ctx, args))

    return wrapper


def _fn_distance(ctx, args):
    a = _geom(ctx, args[0])
    b = _geom(ctx, args[1])
    if a.srid != b.srid:
        b = b.transform(a.srid)
    return Literal(a.distance(b))


def _fn_distance_m(ctx, args):
    """Metric distance for WGS84 data (Strabon's distance with metre units)."""
    return Literal(
        geodesic_distance_m(_geom(ctx, args[0]), _geom(ctx, args[1]))
    )


def _fn_buffer(ctx, args):
    geom = _geom(ctx, args[0])
    return strdf.geometry_literal(geom.buffer(numeric(args[1])))


def _fn_transform(ctx, args):
    geom = _geom(ctx, args[0])
    target = args[1]
    if isinstance(target, Literal):
        srid = int(numeric(target))
    else:
        m = re.search(r"(\d+)\s*$", str(target))
        if not m:
            raise StSPARQLError(f"cannot extract SRID from {target!r}")
        srid = int(m.group(1))
    return strdf.geometry_literal(geom.transform(srid))


def _fn_dwithin(ctx, args):
    a = _geom(ctx, args[0])
    b = _geom(ctx, args[1])
    if a.srid != b.srid:
        b = b.transform(a.srid)
    return a.dwithin(b, numeric(args[2]))


EXTENSIONS: Dict[str, Callable] = {}


def _register(local: str, fn: Callable, geof_alias: str = None) -> None:
    EXTENSIONS[str(STRDF) + local] = fn
    alias = geof_alias if geof_alias is not None else local
    if alias:
        EXTENSIONS[str(GEO.replace("ont/geosparql#", "def/function/geosparql/"))
                   + alias] = fn
        EXTENSIONS[str(GEO) + alias] = fn


_register("intersects", _predicate(lambda a, b: a.intersects(b)), "sfIntersects")
_register("disjoint", _predicate(lambda a, b: a.disjoint(b)), "sfDisjoint")
_register("contains", _predicate(lambda a, b: a.contains(b)), "sfContains")
_register("within", _predicate(lambda a, b: a.within(b)), "sfWithin")
_register("touches", _predicate(lambda a, b: a.touches(b)), "sfTouches")
_register("crosses", _predicate(lambda a, b: a.crosses(b)), "sfCrosses")
_register("overlaps", _predicate(lambda a, b: a.overlaps(b)), "sfOverlaps")
_register("equals", _predicate(lambda a, b: a.equals(b)), "sfEquals")
_register(
    "covers",
    _predicate(
        lambda a, b: __import__(
            "repro.geometry.predicates", fromlist=["covers"]
        ).covers(a, b)
    ),
    "ehCovers",
)
_register("distance", _fn_distance, "distance")
_register("distanceM", _fn_distance_m, "")
_register("dwithin", _fn_dwithin, "")
_register("buffer", _fn_buffer, "buffer")
_register(
    "envelope",
    _constructor(lambda ctx, a: _geom(ctx, a[0]).envelope_geometry()),
    "envelope",
)
_register(
    "convexHull",
    _constructor(lambda ctx, a: _geom(ctx, a[0]).convex_hull()),
    "convexHull",
)
_register(
    "union2",
    _constructor(lambda ctx, a: _geom(ctx, a[0]).union(_geom(ctx, a[1]))),
    "union",
)
_register(
    "intersection",
    _constructor(
        lambda ctx, a: _geom(ctx, a[0]).intersection(_geom(ctx, a[1]))
    ),
    "intersection",
)
_register(
    "difference",
    _constructor(
        lambda ctx, a: _geom(ctx, a[0]).difference(_geom(ctx, a[1]))
    ),
    "difference",
)
_register(
    "symDifference",
    _constructor(
        lambda ctx, a: _geom(ctx, a[0]).symmetric_difference(_geom(ctx, a[1]))
    ),
    "symDifference",
)
_register("area", lambda ctx, a: Literal(_geom(ctx, a[0]).area), "")
_register(
    "centroid",
    _constructor(lambda ctx, a: _geom(ctx, a[0]).centroid),
    "centroid",
)
_register(
    "simplify",
    _constructor(
        lambda ctx, a: _geom(ctx, a[0]).simplify(numeric(a[1]))
    ),
    "",
)
_register("transform", _fn_transform, "")
_register(
    "srid", lambda ctx, a: Literal(_geom(ctx, a[0]).srid), "getSRID"
)
_register(
    "geometryType",
    lambda ctx, a: Literal(_geom(ctx, a[0]).geom_type),
    "",
)
_register(
    "asText", lambda ctx, a: Literal(_geom(ctx, a[0]).wkt), "asWKT"
)
_register(
    "asGML", lambda ctx, a: Literal(_geom(ctx, a[0]).gml), "asGML"
)

# ---------------------------------------------------------------------------
# Temporal extension functions (stRDF valid time)
# ---------------------------------------------------------------------------


def _as_period(term):
    from datetime import datetime

    if isinstance(term, Literal):
        dt = str(term.datatype) if term.datatype else ""
        if dt.endswith("#period"):
            return strdf.literal_period(term)
        value = term.to_python()
        if isinstance(value, datetime):
            return (value, value)
    raise StSPARQLError(f"not a period or instant: {term!r}")


def _fn_period_overlaps(ctx, args):
    a, b = _as_period(args[0]), _as_period(args[1])
    # Instants are degenerate [t, t] periods; use closed comparison there.
    if a[0] == a[1] or b[0] == b[1]:
        return a[0] <= b[1] and b[0] <= a[1]
    return strdf.periods_overlap(a, b)


def _fn_during(ctx, args):
    inner, outer = _as_period(args[0]), _as_period(args[1])
    if outer[0] == outer[1]:
        return inner == outer
    if inner[0] == inner[1]:
        return strdf.period_contains(outer, inner[0])
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _fn_period_before(ctx, args):
    a, b = _as_period(args[0]), _as_period(args[1])
    return a[1] <= b[0]


def _fn_period_after(ctx, args):
    a, b = _as_period(args[0]), _as_period(args[1])
    return b[1] <= a[0]


def _fn_period_start(ctx, args):
    from repro.rdf.namespace import XSD

    return Literal(
        _as_period(args[0])[0].isoformat(), datatype=str(XSD) + "dateTime"
    )


def _fn_period_end(ctx, args):
    from repro.rdf.namespace import XSD

    return Literal(
        _as_period(args[0])[1].isoformat(), datatype=str(XSD) + "dateTime"
    )


EXTENSIONS[str(STRDF) + "periodOverlaps"] = _fn_period_overlaps
EXTENSIONS[str(STRDF) + "during"] = _fn_during
EXTENSIONS[str(STRDF) + "periodBefore"] = _fn_period_before
EXTENSIONS[str(STRDF) + "periodAfter"] = _fn_period_after
EXTENSIONS[str(STRDF) + "periodStart"] = _fn_period_start
EXTENSIONS[str(STRDF) + "periodEnd"] = _fn_period_end


# ---------------------------------------------------------------------------
# Directional extension functions (envelope-based, stSPARQL's directional
# relations: the whole of A lies strictly in the given direction of B)
# ---------------------------------------------------------------------------


def _directional(check):
    def wrapper(ctx, args):
        a = _geom(ctx, args[0]).envelope
        b = _geom(ctx, args[1]).envelope
        return check(a, b)

    return wrapper


EXTENSIONS[str(STRDF) + "left"] = _directional(
    lambda a, b: a.maxx <= b.minx
)
EXTENSIONS[str(STRDF) + "right"] = _directional(
    lambda a, b: a.minx >= b.maxx
)
EXTENSIONS[str(STRDF) + "above"] = _directional(
    lambda a, b: a.miny >= b.maxy
)
EXTENSIONS[str(STRDF) + "below"] = _directional(
    lambda a, b: a.maxy <= b.miny
)


#: Full IRIs of the planar distance function (``strdf:distance`` plus
#: its ``geof`` aliases).  Comparisons over these calls batch through
#: the spatial FILTER kernel (:func:`repro.kernels.compile_spatial_filter`):
#: envelope distance lower-bounds geometry distance, so far-away rows
#: are decided without the exact measure.
DISTANCE_FUNCTIONS = {
    str(STRDF) + "distance",
    str(GEO.replace("ont/geosparql#", "def/function/geosparql/"))
    + "distance",
    str(GEO) + "distance",
}

#: Spatial predicate IRIs usable for R-tree pre-filtering and the
#: batched spatial FILTER lane: envelope intersection is a necessary
#: condition for all of these.
INDEXABLE_PREDICATES = {
    str(STRDF) + name
    for name in (
        "intersects", "contains", "within", "touches", "crosses",
        "overlaps", "equals", "covers",
    )
} | {
    str(GEO) + name
    for name in (
        "sfIntersects", "sfContains", "sfWithin", "sfTouches",
        "sfCrosses", "sfOverlaps", "sfEquals", "ehCovers",
    )
}


#: Aggregate names (handled by the evaluator's grouping stage).
AGGREGATES = {
    "count", "sum", "avg", "min", "max", "sample", "group_concat",
    str(STRDF) + "union", str(STRDF) + "extent",
}


def is_aggregate_name(name: str) -> bool:
    base = name.split("#distinct")[0]
    return base in AGGREGATES
