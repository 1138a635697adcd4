"""Resumable pipeline: identical results to the one-shot evaluator,
exact resume from any suspension point, constant-size continuations."""

import pytest

from repro.server import decode_token, encode_token
from repro.strabon import StrabonStore
from repro.strabon.stsparql.iterators import (
    FILTER_BATCH_ROWS,
    ContinuationError,
    build_select_pipeline,
    pipeline_variables,
    restore_pipeline,
    supports_query,
)
from repro.strabon.stsparql.parser import parse_query
from tests.server.hotspots import LONG_JOIN, make_hotspot_store

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

TTL = """
@prefix ex: <http://example.org/> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
ex:a ex:type ex:Fire ; ex:name "alpha" ; ex:size 4 ;
     ex:geom "POINT(1 1)"^^strdf:WKT .
ex:b ex:type ex:Fire ; ex:name "beta" ; ex:size 9 ;
     ex:geom "POINT(5 5)"^^strdf:WKT .
ex:c ex:type ex:Lake ; ex:name "gamma" ; ex:size 2 ;
     ex:geom "POINT(2 2)"^^strdf:WKT .
ex:d ex:type ex:Fire ; ex:name "delta" ; ex:size 7 ;
     ex:geom "POINT(9 9)"^^strdf:WKT .
ex:e ex:type ex:Fire ; ex:name "alpha" ; ex:size 4 ;
     ex:geom "POINT(1 2)"^^strdf:WKT .
ex:a ex:near ex:a , ex:b .
ex:d ex:near ex:d .
"""

BOX = '"POLYGON((0 0, 6 0, 6 6, 0 6, 0 0))"^^strdf:WKT'

QUERIES = [
    # no FILTER
    PREFIXES + "SELECT ?s ?n WHERE { ?s ex:name ?n }",
    PREFIXES + "SELECT ?s WHERE { ?s ex:type ex:Fire . ?s ex:size ?z }",
    PREFIXES + "SELECT DISTINCT ?n WHERE { ?s ex:name ?n }",
    PREFIXES + "SELECT ?s ?n WHERE { ?s ex:name ?n } LIMIT 2",
    PREFIXES + "SELECT ?s ?n WHERE { ?s ex:name ?n } OFFSET 1 LIMIT 3",
    PREFIXES + "SELECT * WHERE { ?s ex:type ?t . ?s ex:size ?z }",
    # a repeated variable inside one pattern, alone and joined
    PREFIXES + "SELECT ?x ?p WHERE { ?x ?p ?x }",
    PREFIXES + "SELECT ?x ?n WHERE { ?x ex:near ?x . ?x ex:name ?n }",
    # one FILTER
    PREFIXES + (
        "SELECT ?s ?z WHERE { ?s ex:type ex:Fire . ?s ex:size ?z . "
        "FILTER(?z > 5) }"
    ),
    # one spatial FILTER: the ?g scan runs over sorted index hints
    PREFIXES + (
        "SELECT ?s ?g WHERE { ?s ex:type ex:Fire . ?s ex:geom ?g . "
        f"FILTER(strdf:contains({BOX}, ?g)) }}"
    ),
    # two stacked FILTERs, with DISTINCT and with OFFSET/LIMIT cutting
    # into the rows a suspension drains
    PREFIXES + (
        "SELECT ?s ?z WHERE { ?s ex:size ?z . ?s ex:geom ?g . "
        f"FILTER(?z > 2) FILTER(strdf:contains({BOX}, ?g)) }}"
    ),
    PREFIXES + (
        "SELECT DISTINCT ?n WHERE { ?s ex:name ?n . ?s ex:size ?z . "
        "FILTER(?z > 2) FILTER(?z < 9) }"
    ),
    PREFIXES + (
        "SELECT ?s ?n WHERE { ?s ex:name ?n . ?s ex:size ?z . "
        "FILTER(?z > 2) FILTER(?z < 10) } OFFSET 1 LIMIT 2"
    ),
]


@pytest.fixture()
def store():
    s = StrabonStore()
    s.load_turtle(TTL)
    return s


def _evaluator_rows(store, text):
    result = store.query(text)
    variables = result.variables
    return variables, sorted(
        tuple(t.n3() if t is not None else None for t in row)
        for row in result.rows()
    )


def _drain(pipe, variables):
    rows = []
    while True:
        sol = pipe.next()
        if sol is None:
            return sorted(
                tuple(
                    sol[v].n3() if sol.get(v) is not None else None
                    for v in variables
                )
                for sol in rows
            )
        rows.append(sol)


@pytest.mark.parametrize("text", QUERIES)
def test_pipeline_matches_evaluator(store, text):
    parsed = parse_query(text)
    assert supports_query(parsed)
    variables, expected = _evaluator_rows(store, text)
    assert pipeline_variables(parsed) == variables
    pipe = build_select_pipeline(parsed, store)
    assert _drain(pipe, variables) == expected


def _suspend(text, parsed, store, pipe, batch_rows):
    """What the serving tier does at a quantum boundary: drain the rows
    already computed, save positions, and carry them through a token
    into a pipeline rebuilt from scratch."""
    drained = pipe.drain()
    token = encode_token(text, store.version, pipe.save())
    _text, _version, state = decode_token(token)
    return drained, restore_pipeline(
        parsed, store, state, batch_rows=batch_rows
    )


def _run_suspending(text, store, batch_rows):
    """Every solution, suspending after each pulled row."""
    parsed = parse_query(text)
    pipe = build_select_pipeline(parsed, store, batch_rows=batch_rows)
    out = []
    while True:
        sol = pipe.next()
        if sol is None:
            return out
        out.append(sol)
        drained, pipe = _suspend(text, parsed, store, pipe, batch_rows)
        out.extend(drained)


def _keyed(sols, variables):
    return [
        tuple(
            sol[v].n3() if sol.get(v) is not None else None
            for v in variables
        )
        for sol in sols
    ]


# batch_rows=1 is a true every-row boundary (nothing to drain);
# the default batch makes each suspension drain a filter's survivors.
@pytest.mark.parametrize("batch_rows", [1, 2, FILTER_BATCH_ROWS])
@pytest.mark.parametrize("text", QUERIES)
def test_suspend_every_row_resumes_exactly(store, text, batch_rows):
    """Pull one row, drain, save, encode, decode, rebuild, restore: no
    solution is lost, duplicated, or reordered relative to one
    uninterrupted run."""
    parsed = parse_query(text)
    variables = pipeline_variables(parsed)
    uninterrupted = []
    pipe = build_select_pipeline(parsed, store)
    while True:
        sol = pipe.next()
        if sol is None:
            break
        uninterrupted.append(sol)
    assert uninterrupted or "near" in text

    resumed = _run_suspending(text, store, batch_rows)
    assert _keyed(resumed, variables) == _keyed(uninterrupted, variables)


def test_drain_pulls_no_new_scan_input(store):
    """A drain returns the filter's judged survivors and leaves every
    scan cursor where it was."""
    text = QUERIES[8]  # Fire sizes 4, 9, 7, 4 → survivors 9 and 7
    parsed = parse_query(text)
    pipe = build_select_pipeline(parsed, store)
    first = pipe.next()
    with pytest.raises(ContinuationError):
        pipe.save()  # a computed row would be lost
    cursors_before = [frame[2] for frame in _join(pipe)._frames]
    drained = pipe.drain()
    assert [frame[2] for frame in _join(pipe)._frames] == cursors_before
    assert len([first] + drained) == 2
    assert pipe.drain() == []
    assert set(pipe.save()) == {"scan"}
    assert pipe.next() is None


def _join(pipe):
    while hasattr(pipe, "child"):
        pipe = pipe.child
    return pipe


def test_save_at_start_and_at_exhaustion(store):
    text = QUERIES[0]
    parsed = parse_query(text)
    variables = pipeline_variables(parsed)
    _, expected = _evaluator_rows(store, text)

    pipe = build_select_pipeline(parsed, store)
    fresh = restore_pipeline(parsed, store, pipe.save())
    assert _drain(fresh, variables) == expected

    while pipe.next() is not None:
        pass
    done = restore_pipeline(parsed, store, pipe.save())
    assert done.next() is None


def test_unsupported_queries_return_none(store):
    for text in [
        PREFIXES + "SELECT ?s WHERE { ?s ex:name ?n } ORDER BY ?n",
        PREFIXES + (
            "SELECT ?t (COUNT(?s) AS ?c) WHERE { ?s ex:type ?t } "
            "GROUP BY ?t"
        ),
        PREFIXES + (
            "SELECT ?s WHERE { { ?s ex:type ex:Fire } UNION "
            "{ ?s ex:type ex:Lake } }"
        ),
        PREFIXES + "SELECT ?s WHERE { ?s ex:type/ex:sub ?t }",
        PREFIXES + "SELECT * WHERE { }",
    ]:
        parsed = parse_query(text)
        assert not supports_query(parsed)
        assert build_select_pipeline(parsed, store) is None


def test_restore_unstreamable_query_raises(store):
    parsed = parse_query(
        PREFIXES + "SELECT ?s WHERE { ?s ex:name ?n } ORDER BY ?n"
    )
    with pytest.raises(ContinuationError):
        restore_pipeline(parsed, store, {"scan": [0]})


def test_restore_rejects_mismatched_state(store):
    """State saved by one operator tree does not fit another's."""
    plain = parse_query(QUERIES[0])
    distinct = parse_query(QUERIES[2])
    sliced = parse_query(QUERIES[3])
    pipe = build_select_pipeline(plain, store)
    pipe.next()
    state = pipe.save()
    for other in (distinct, sliced):
        with pytest.raises(ContinuationError):
            restore_pipeline(other, store, state)  # field missing
    pipe = build_select_pipeline(sliced, store)
    pipe.next()
    with pytest.raises(ContinuationError):
        restore_pipeline(plain, store, pipe.save())  # field unexpected
    for junk in (None, [], "scan", {"kind": "scan"}):
        with pytest.raises(ContinuationError):
            restore_pipeline(plain, store, junk)


JOIN = PREFIXES + "SELECT ?s WHERE { ?s ex:type ex:Fire . ?s ex:size ?z }"


@pytest.mark.parametrize(
    "cursors",
    [
        [10_000, 1],  # outside the match list
        [1, 10_000],
        [1, 1, 1],  # more cursors than patterns
        [0, 1],  # a deeper frame under a parent that bound nothing
        [-1],
        [1.0, 1],
        [True, 1],
        ["1", "1"],
        [None],
        "11",
        {"0": 1},
        None,
    ],
)
def test_restore_rejects_bad_cursor_vector(store, cursors):
    parsed = parse_query(JOIN)
    pipe = build_select_pipeline(parsed, store)
    pipe.next()
    good = pipe.save()
    assert good == {"scan": [1, 1]}
    restore_pipeline(parsed, store, good)
    with pytest.raises(ContinuationError):
        restore_pipeline(parsed, store, {"scan": cursors})


def test_restore_rejects_cursor_at_unjoinable_match(store):
    """A deeper frame cannot hang under a match its parent rejected
    (``?x ?p ?x`` drops most triples it scans)."""
    text = PREFIXES + "SELECT ?x ?y WHERE { ?x ?p ?x . ?y ?q ?y }"
    parsed = parse_query(text)
    assert len(_run_suspending(text, store, 1)) == 2 * 2
    # The first triple in store order is ex:a ex:type ex:Fire.
    with pytest.raises(ContinuationError):
        restore_pipeline(parsed, store, {"scan": [1, 0]})


@pytest.mark.parametrize(
    "state",
    [
        {"scan": [1], "slice": [0]},
        {"scan": [1], "slice": [0, 1, 2]},
        {"scan": [1], "slice": [2, 0]},  # skipped more than OFFSET
        {"scan": [1], "slice": [0, 4]},  # emitted more than LIMIT
        {"scan": [1], "slice": [0, -1]},
        {"scan": [1], "slice": "01"},
    ],
)
def test_restore_rejects_bad_slice_counters(store, state):
    parsed = parse_query(QUERIES[4])  # OFFSET 1 LIMIT 3
    restore_pipeline(parsed, store, {"scan": [1], "slice": [1, 0]})
    with pytest.raises(ContinuationError):
        restore_pipeline(parsed, store, state)


@pytest.mark.parametrize(
    "seen",
    [
        "alpha",
        [["a", "b"]],  # wrong width
        [[1]],
        ['"alpha"'],
        [{"n": "x"}],
    ],
)
def test_restore_rejects_bad_distinct_keys(store, seen):
    parsed = parse_query(QUERIES[2])
    restore_pipeline(parsed, store, {"scan": [1], "seen": [['"alpha"']]})
    with pytest.raises(ContinuationError):
        restore_pipeline(parsed, store, {"scan": [1], "seen": seen})


def test_distinct_suppression_survives_resume(store):
    text = PREFIXES + "SELECT DISTINCT ?n WHERE { ?s ex:name ?n }"
    seen = [sol["n"].n3() for sol in _run_suspending(text, store, 1)]
    assert len(seen) == len(set(seen))  # no duplicate re-emitted
    _, expected = _evaluator_rows(store, text)
    assert sorted((n,) for n in seen) == expected


@pytest.mark.parametrize("batch_rows", [1, FILTER_BATCH_ROWS])
def test_limit_not_exceeded_across_resumes(store, batch_rows):
    text = PREFIXES + (
        "SELECT ?s ?n WHERE { ?s ex:name ?n . ?s ex:size ?z . "
        "FILTER(?z > 0) } LIMIT 3"
    )
    assert len(_run_suspending(text, store, batch_rows)) == 3


def test_token_is_small_and_does_not_grow_with_rows_produced():
    """The serve_mixed shape: six patterns, a polygon in every row, a
    filter that passes them all.  A token is the query text plus one
    integer per pattern and the LIMIT counters, whether it is minted
    after 1 row or after 1 500."""
    store = make_hotspot_store(40)
    text = LONG_JOIN + " LIMIT 100000"
    parsed = parse_query(text)
    pipe = build_select_pipeline(parsed, store)
    sizes, rows = [], 0
    while True:
        sol = pipe.next()
        if sol is None:
            break
        rows += 1
        assert "POLYGON" in sol["ga"].n3()
        rows += len(pipe.drain())
        token = encode_token(text, store.version, pipe.save())
        _text, _version, state = decode_token(token)
        assert set(state) == {"scan", "slice"}
        if state["scan"]:  # empty once the last batch drained the join
            assert len(state["scan"]) == 6
            sizes.append(len(token))
        pipe = restore_pipeline(parsed, store, state)
    assert rows == 40 * 40
    assert len(sizes) == rows // FILTER_BATCH_ROWS
    assert max(sizes) < 4096
    # Cursor and counter digits are all that varies.
    assert max(sizes) - min(sizes) <= 16
