"""The ``serve_mixed`` benchmark's join in miniature, shared by the
server tests: one product, ``n`` hotspots with a polygon and a
confidence each, and the six-pattern hotspot × hotspot × geometry join
whose FILTER passes every row (``n * n`` solutions)."""

from repro.strabon import StrabonStore

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

LONG_JOIN = PREFIXES + (
    'SELECT ?a ?b ?ga WHERE { ?p ex:acquired "t0" ; ex:derivedFrom ?src . '
    "?a ex:producedBy ?p ; ex:geom ?ga . "
    "?b ex:producedBy ?p ; ex:confidence ?cb . "
    "FILTER(?cb > 0.01) }"
)


def make_hotspot_store(n: int) -> StrabonStore:
    lines = [
        "@prefix ex: <http://example.org/> .",
        "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .",
        'ex:p ex:acquired "t0" ; ex:derivedFrom ex:raw .',
    ]
    for i in range(n):
        x = i * 0.01
        lines.append(
            f"ex:h{i} ex:producedBy ex:p ; ex:confidence {0.5 + i / 1000} ; "
            f'ex:geom "POLYGON(({x} 0, {x + 1} 0, {x + 1} 1, {x} 1, {x} 0))"'
            "^^strdf:WKT ."
        )
    store = StrabonStore()
    store.load_turtle("\n".join(lines))
    return store
