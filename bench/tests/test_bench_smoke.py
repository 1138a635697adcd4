"""The benchmark's own tests: ``python3 -m pytest bench/tests -q``.

Not part of the tier-1 suite (``testpaths = ["tests"]``): the smoke run
starts eight subprocesses and takes about twenty seconds.
"""

import json
import os
import re
import subprocess
import sys

from bench import ROOT, WORKLOADS, load_spec
from bench.compare import verdict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_smoke_prints_every_declared_metric_and_passes_its_checks(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spec = load_spec()
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in WORKLOADS:
        printed = sorted(
            line.split()[0]
            for line in done.stdout.splitlines()
            if line.lstrip().startswith(f"{workload}/")
        )
        assert printed == sorted(f"{workload}/{name}" for name in declared)
    with open(tmp_path / "result.json") as fh:
        record = json.load(fh)
    assert record["config"]["smoke"] is True
    for workload, entry in record["runs"][0]["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            result = entry[kind]
            assert result["correct"] and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            assert sorted(result["metrics"]) == sorted(
                m["name"] for m in spec[kind]
            )
    for workload in WORKLOADS:
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0


def test_benchmark_json_meets_the_driver_contract():
    spec = load_spec()
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128 and len(spec["end_to_end"]) <= 16
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(base, [x * 1.01 for x in base], "lower", 0.07) == "same"
    assert verdict(base, [x * 1.20 for x in base], "lower", 0.07) == "worse"
    assert verdict(base, [x * 0.80 for x in base], "lower", 0.07) == "better"
    assert verdict(base, [x * 0.80 for x in base], "higher", 0.07) == "worse"
    noisy = [10.0, 12.0, 8.0, 11.5, 8.5]
    assert verdict(noisy, noisy, "lower", 0.07) == "unresolved"
