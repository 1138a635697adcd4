"""Generator determinism: the same seed must yield the same inputs."""

import json
import random

import pytest

from repro.geometry import from_wkt, to_wkt
from repro.testkit.generators import (
    SPEC_DOMAINS,
    case_seed,
    gen_geometry,
    gen_spec,
    gen_wkt,
)

SEEDS = [0, 1, 7, 42, 1337, 2**31 - 1]


class TestDeterminism:
    @pytest.mark.parametrize("domain", SPEC_DOMAINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_spec(self, domain, seed):
        a = gen_spec(domain, seed)
        b = gen_spec(domain, seed)
        assert a == b
        # Specs are plain JSON values: serialisable and stable.
        assert json.loads(json.dumps(a)) == a

    @pytest.mark.parametrize("domain", SPEC_DOMAINS)
    def test_different_seeds_differ(self, domain):
        specs = [
            json.dumps(gen_spec(domain, seed), sort_keys=True)
            for seed in range(40)
        ]
        # Not every pair differs, but collapse to a handful would mean
        # the seed is being ignored.
        assert len(set(specs)) > 20

    def test_geometry_generator_deterministic(self):
        a = [to_wkt(gen_geometry(random.Random(99))) for _ in range(1)]
        b = [to_wkt(gen_geometry(random.Random(99))) for _ in range(1)]
        assert a == b

    def test_case_seed_is_pure_and_spread(self):
        seeds = [case_seed(1234, i) for i in range(200)]
        assert seeds == [case_seed(1234, i) for i in range(200)]
        assert len(set(seeds)) == 200
        assert all(0 <= s < 2**31 for s in seeds)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            gen_spec("nope", 1)


class TestSpecShapes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spatial_spec_wkt_parses(self, seed):
        spec = gen_spec("spatial", seed)
        for text in spec["geometries"] + spec["probes"]:
            assert from_wkt(text) is not None
        assert all(
            0 <= r < len(spec["geometries"]) for r in spec["removals"]
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stsparql_spec_shape(self, seed):
        spec = gen_spec("stsparql", seed)
        assert spec["patterns"]
        # Every pattern carries at least one variable, so the rendered
        # query always has a projection.
        assert any(
            term[0] == "v" for p in spec["patterns"] for term in p
        )

    def test_stsparql_emits_hint_sensitive_filter_shapes(self):
        # Negated and or-ed spatial FILTERs are where an R-tree hint
        # must not be taken; a second geometry variable makes a join; an
        # OPTIONAL tail runs the join seeded with bound variables; an
        # arithmetic FILTER exercises the interpreter's number values.
        from repro.strabon.stsparql.parser import parse_query
        from repro.testkit.differential import render_query

        seen = set()
        for seed in range(400):
            spec = gen_spec("stsparql", seed)
            filter_spec = spec["filter"] or {}
            seen.update(
                key for key in ("negate", "or", "other") if key in filter_spec
            )
            if filter_spec.get("kind") == "arith":
                seen.add("arith")
            if spec["optional"]:
                seen.add("optional")
            if "other" in filter_spec:
                bound = {
                    t[1] for p in spec["patterns"] for t in p if t[0] == "v"
                }
                assert {filter_spec["var"], filter_spec["other"]} <= bound
            parse_query(render_query(spec)[0])
        assert seen == {"negate", "or", "other", "optional", "arith"}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sciql_spec_cells_match_shape(self, seed):
        spec = gen_spec("sciql", seed)
        height, width = spec["shape"]
        assert len(spec["cells"]) == height
        assert all(len(row) == width for row in spec["cells"])
        if spec["dtype"] == "int":
            assert all(
                isinstance(v, int) for row in spec["cells"] for v in row
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_spec_fault_rate_bounded(self, seed):
        spec = gen_spec("chain", seed)
        assert 1 <= len(spec["scenes"]) <= 3
        for part in spec["faults"].split(";"):
            if ":p=" in part:
                assert float(part.split(":p=")[1]) <= 0.1

    def test_degenerate_linework_survives(self):
        # Seeds that force duplicate/collinear vertices must still
        # produce parseable WKT (the constructor cleans them).
        for seed in range(300):
            text = gen_wkt(random.Random(seed), ["linestring"])
            geometry = from_wkt(text)
            assert geometry.geom_type == "LineString"
