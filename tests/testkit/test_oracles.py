"""The reference oracles on hand-checked inputs."""

import pytest

from repro.geometry import Envelope
from repro.rdf.term import Literal, URIRef, Variable
from repro.strabon import strdf
from repro.testkit import oracles


class TestTerms:
    def test_uri(self):
        assert oracles.term_from_json(["u", "s0"]) == URIRef(
            "http://example.org/s0"
        )

    def test_int_literal(self):
        term = oracles.term_from_json(["i", 5])
        assert isinstance(term, Literal) and term.to_python() == 5

    def test_wkt_literal(self):
        term = oracles.term_from_json(["w", "POINT (1 2)"])
        assert strdf.is_geometry_literal(term)

    def test_variable(self):
        term = oracles.term_from_json(["v", "g"])
        assert isinstance(term, Variable)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            oracles.term_from_json(["x", "?"])


class TestSpatialOracle:
    def test_all_pairs_scan(self):
        entries = [
            (Envelope(0, 0, 1, 1), "a"),
            (Envelope(2, 2, 3, 3), "b"),
            (Envelope(0.5, 0.5, 2.5, 2.5), "c"),
        ]
        assert oracles.naive_spatial_query(
            entries, Envelope(0.9, 0.9, 1.1, 1.1)
        ) == ["a", "c"]
        assert oracles.naive_spatial_query(
            entries, Envelope(10, 10, 11, 11)
        ) == []


def _triples(*specs):
    return oracles.triples_from_json(list(specs))


def _patterns(*specs):
    return [
        tuple(oracles.term_from_json(term) for term in pattern)
        for pattern in specs
    ]


class TestBGPOracle:
    def test_single_pattern(self):
        triples = _triples(
            [["u", "a"], ["u", "p"], ["i", 1]],
            [["u", "b"], ["u", "p"], ["i", 2]],
        )
        patterns = _patterns([["v", "s"], ["u", "p"], ["v", "n"]])
        rows = oracles.naive_bgp_rows(
            triples, patterns, None, ["n", "s"], False
        )
        assert len(rows) == 2
        assert rows[0][1] == "<http://example.org/a>"

    def test_join_multiplicity(self):
        # Two patterns over the same triple: the join multiplies.
        triples = _triples(
            [["u", "a"], ["u", "p"], ["u", "b"]],
            [["u", "b"], ["u", "p"], ["u", "c"]],
        )
        patterns = _patterns(
            [["v", "x"], ["u", "p"], ["v", "y"]],
            [["v", "y"], ["u", "p"], ["v", "z"]],
        )
        rows = oracles.naive_bgp_rows(
            triples, patterns, None, ["x", "y", "z"], False
        )
        assert rows == [
            (
                "<http://example.org/a>",
                "<http://example.org/b>",
                "<http://example.org/c>",
            )
        ]

    def test_distinct_dedups(self):
        triples = _triples(
            [["u", "a"], ["u", "p"], ["i", 1]],
            [["u", "a"], ["u", "q"], ["i", 2]],
        )
        patterns = _patterns([["v", "s"], ["v", "p"], ["v", "o"]])
        plain = oracles.naive_bgp_rows(
            triples, patterns, None, ["s"], False
        )
        deduped = oracles.naive_bgp_rows(
            triples, patterns, None, ["s"], True
        )
        assert len(plain) == 2 and len(deduped) == 1

    def test_cmp_filter_excludes_non_numeric(self):
        triples = _triples(
            [["u", "a"], ["u", "p"], ["i", 5]],
            [["u", "b"], ["u", "p"], ["u", "c"]],
        )
        patterns = _patterns([["v", "s"], ["u", "p"], ["v", "n"]])
        rows = oracles.naive_bgp_rows(
            triples,
            patterns,
            {"kind": "cmp", "var": "n", "op": ">", "value": 1},
            ["n", "s"],
            False,
        )
        # The URIRef binding cannot compare with an int: excluded, not
        # an error — the evaluator does the same.
        assert len(rows) == 1

    def test_spatial_filter(self):
        triples = _triples(
            [["u", "a"], ["u", "g"], ["w", "POINT (1 1)"]],
            [["u", "b"], ["u", "g"], ["w", "POINT (9 9)"]],
            [["u", "c"], ["u", "g"], ["i", 3]],
        )
        patterns = _patterns([["v", "s"], ["u", "g"], ["v", "geo"]])
        rows = oracles.naive_bgp_rows(
            triples,
            patterns,
            {
                "kind": "spatial",
                "pred": "within",
                "var": "geo",
                "wkt": "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
            },
            ["s"],
            False,
        )
        assert rows == [("<http://example.org/a>",)]

    REGION = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
    SHAPES_TRIPLES = (
        [["u", "a"], ["u", "g"], ["w", "POINT (1 1)"]],
        [["u", "b"], ["u", "g"], ["w", "POINT (9 9)"]],
        [["u", "c"], ["u", "g"], ["i", 3]],
        [["u", "b"], ["u", "v"], ["i", 7]],
        [["u", "c"], ["u", "v"], ["i", 8]],
        [["u", "z"], ["u", "g"], ["w", REGION]],
    )

    def _subjects(self, filter_spec, *patterns):
        rows = oracles.naive_bgp_rows(
            _triples(*self.SHAPES_TRIPLES),
            _patterns([["v", "s"], ["u", "g"], ["v", "geo"]], *patterns),
            filter_spec,
            ["s"],
            True,
        )
        return {row[0].rsplit("/", 1)[1].rstrip(">") for row in rows}

    def test_negated_spatial_filter_keeps_errors_out(self):
        # !within: b is outside the region, a and z are within it; the
        # integer bound to ?geo for c is an error, and !error is too.
        negated = {
            "kind": "spatial", "pred": "within", "var": "geo",
            "wkt": self.REGION, "negate": True,
        }
        assert self._subjects(negated) == {"b"}

    def test_disjunct_rescues_failed_and_erroring_rows(self):
        either = {
            "kind": "spatial", "pred": "within", "var": "geo",
            "wkt": self.REGION,
            "or": {"kind": "cmp", "var": "n", "op": ">", "value": 5},
        }
        pattern = [["v", "s"], ["u", "v"], ["v", "n"]]
        # c's spatial side errors and its ?n = 8 rescues it; b fails
        # spatially and ?n = 7 rescues it.
        assert self._subjects(either, pattern) == {"b", "c"}

    def test_second_geometry_variable(self):
        join = {
            "kind": "spatial", "pred": "within", "var": "geo",
            "other": "h",
        }
        pattern = [["u", "z"], ["u", "g"], ["v", "h"]]
        assert self._subjects(join, pattern) == {"a", "z"}
        near = {
            "kind": "dist", "var": "h", "other": "geo", "op": "<=",
            "bound": 0.0,
        }
        assert self._subjects(near, pattern) == {"a", "z"}

    def test_optional_tail_keeps_unextended_solutions(self):
        # b and c have a ?n, extended once each; a and z keep their row
        # with ?n unbound.
        rows = oracles.naive_bgp_rows(
            _triples(*self.SHAPES_TRIPLES),
            _patterns([["v", "s"], ["u", "g"], ["v", "geo"]]),
            None,
            ["n", "s"],
            False,
            optional=_patterns([["v", "s"], ["u", "v"], ["v", "n"]])[0],
        )
        assert sorted((s.rsplit("/", 1)[1], n) for n, s in rows) == [
            ("a>", None),
            ("b>", '"7"^^<http://www.w3.org/2001/XMLSchema#integer>'),
            ("c>", '"8"^^<http://www.w3.org/2001/XMLSchema#integer>'),
            ("z>", None),
        ]


class TestSciQLOracle:
    def test_map_and_count(self):
        spec = {
            "shape": [2, 2],
            "dtype": "int",
            "cells": [[1, 2], [3, 4]],
            "program": [
                {"op": "map", "mul": 2, "add": 1},
                {"op": "count", "gt": 5},
            ],
        }
        assert oracles.naive_sciql_run(spec) == ("count", 2)

    def test_tile_mean_int_truncates_toward_zero(self):
        spec = {
            "shape": [2, 2],
            "dtype": "int",
            "cells": [[-3, -4], [0, 0]],
            "program": [{"op": "tile", "t": [2, 2], "func": "mean"}],
        }
        kind, cells = oracles.naive_sciql_run(spec)
        assert (kind, cells) == ("cells", [[-1]])  # -1.75 → -1

    def test_update_then_slice(self):
        spec = {
            "shape": [3, 2],
            "dtype": "float",
            "cells": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            "program": [
                {
                    "op": "update",
                    "mul": 2,
                    "add": 0,
                    "dim": "x",
                    "cmp": ">",
                    "bound": 0,
                },
                {"op": "slice", "x": [1, 3], "y": [0, 2]},
            ],
        }
        assert oracles.naive_sciql_run(spec) == (
            "cells",
            [[6.0, 8.0], [10.0, 12.0]],
        )
