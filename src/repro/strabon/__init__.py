"""Strabon: a semantic geospatial database (stRDF + stSPARQL).

The reproduction of the system at http://www.strabon.di.uoa.gr — an RDF
store for *stRDF* (RDF extended with geospatial geometries and valid time)
queried with *stSPARQL* (SPARQL 1.1 extended with spatial filter functions,
spatial aggregates and updates).  The store keeps its triples in
in-memory permutation indexes and accelerates spatial selections with a
packed envelope column over geometry literals; they are not yet
MonetDB-style dictionary-encoded id columns, as in the paper's Strabon.

Quick example::

    from repro.strabon import StrabonStore

    store = StrabonStore()
    store.load_turtle('''
        @prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
        @prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
        noa:h1 a noa:Hotspot ;
            noa:hasGeometry "POINT (23.5 38.0)"^^strdf:WKT .
    ''')
    rows = store.query('''
        PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
        PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
        SELECT ?h WHERE {
          ?h a noa:Hotspot ; noa:hasGeometry ?g .
          FILTER(strdf:intersects(?g, "POINT (23.5 38.0)"^^strdf:WKT))
        }
    ''')
"""

from repro.strabon.strdf import (
    StRDFError,
    geometry_literal,
    is_geometry_literal,
    literal_geometry,
    period_literal,
    literal_period,
)
from repro.strabon.store import StrabonStore
from repro.strabon.stsparql.results import AskResult, SelectResult

__all__ = [
    "AskResult",
    "SelectResult",
    "StRDFError",
    "StrabonStore",
    "geometry_literal",
    "is_geometry_literal",
    "literal_geometry",
    "literal_period",
    "period_literal",
]
