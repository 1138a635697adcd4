"""``python3 -m bench`` — run the benchmark, or compare result files.

* ``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload and prints one JSON object as the last line (the
  form the benchmark driver uses);
* ``python3 -m bench [--trace] [--runs N] [--out FILE]`` runs all four
  workloads, prints every metric by name, and writes one result file;
* ``python3 -m bench --smoke`` runs every workload at 1/8 size for one
  round, traced and untraced: checks only, no metric is a measurement;
* ``python3 -m bench compare A.json B.json [...]`` compares result files.

Every workload runs in a fresh subprocess under the pinned environment
below, so the numbers do not depend on the caller's shell.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench import ADDR_NO_RANDOMIZE, ROOT, SRC, WORKLOADS, load_spec

#: Recorded in the result file's ``config``.  Workers are fixed at 1
#: because pool scaling on two shared cores measures the scheduler.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_WORKERS": "1",
    "REPRO_KERNELS": "1",
    "REPRO_OBS": "0",
    "REPRO_QUANTUM_MS": "25",
    "REPRO_WAL_SYNC": "batch",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc grows these two thresholds on its own, up to these limits,
    # depending on the order of early frees; left alone, peak RSS of one
    # workload lands on one of two plateaus 10 % apart from seed to seed.
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "67108864",
}
UNSET_ENV = ("REPRO_FAULTS", "REPRO_DATA_DIR", "REPRO_TENANT_QUOTA")

#: A run that takes longer than this is killed and reported as failed.
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 12


def _pin_address_space() -> None:
    """In the forked child, before exec: one address-space layout for
    every run.  With it randomised, identity hashes, set orders and
    malloc's mmap plateaus differ from process to process; pinned, the
    same seed gives the same peak RSS to the byte and a narrower spread
    of every time.  Where the kernel refuses, the run goes on unpinned
    (the worker reports which it was)."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One workload in a fresh pinned subprocess; returns its result
    object plus the worker's ``detail`` record."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join((ROOT, SRC))
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", workdir,
    ]
    if smoke:
        command.append("--smoke")
    if trace and out_dir:
        command += ["--spans", os.path.join(out_dir, f"spans-{name}.jsonl")]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, preexec_fn=_pin_address_space,
        )
    finally:
        # The worker removes its own scratch; this covers a killed one.
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"{name}: worker exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def driver_mode(args: argparse.Namespace) -> int:
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace,
        smoke=args.smoke, out_dir=args.out_dir,
    )
    result.pop("detail")
    print(json.dumps(result))
    return 0


def _print_metrics(
    workload: str, result: Dict[str, Any], declared: List[dict],
    smoke: bool,
) -> None:
    detail = result["detail"]
    samples = ", ".join(f"{k}={v}" for k, v in detail["samples"].items())
    print(
        f"[{workload}] attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']} ({samples})"
    )
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        print(
            f"  {workload}/{metric['name']:<34} {value:>14.4f} "
            f"{metric['unit']:<6} {metric['better']} is better"
        )
    health = detail["health"]
    if not smoke and (
        abs(health["calib_drift_frac"]) > 0.05
        or health["cpu_over_wall"] < 0.9
    ):
        print(
            f"  {workload}: unsteady (calibration drift "
            f"{health['calib_drift_frac']:+.1%}, cpu/wall "
            f"{health['cpu_over_wall']:.2f})"
        )


def full_mode(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)
    record: Dict[str, Any] = {
        "config": {
            "env": PINNED_ENV,
            "unset": list(UNSET_ENV),
            "address_space": "personality(ADDR_NO_RANDOMIZE)",
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "python": sys.version.split()[0],
        },
        "runs": [],
    }
    failed = False
    modes = [(0, "end_to_end")]
    if args.trace or args.smoke:
        modes.append((1, "per_layer"))
    for index in range(args.runs):
        # Run i of every result file uses seed + i, so two files pair up.
        seed = args.seed + index
        run: Dict[str, Any] = {"seed": seed, "workloads": {}}
        for name in WORKLOADS:
            entry: Dict[str, Any] = {}
            for trace, kind in modes:
                result = run_workload(
                    name, seed, seconds, trace, smoke=args.smoke,
                    out_dir=args.out_dir,
                )
                _print_metrics(name, result, spec[kind], args.smoke)
                failed = failed or not result["correct"]
                entry[kind] = result
            run["workloads"][name] = entry
        record["runs"].append(run)
    out = args.out or os.path.join(args.out_dir, "result.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    note = " (smoke: checks only, no metric is a measurement)"
    print(f"wrote {out}{note if args.smoke else ''}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="full runs to make; run i uses seed + i",
    )
    parser.add_argument("--out", default=None, help="result file")
    parser.add_argument(
        "--out-dir", default=os.path.join(ROOT, ".bench_out"),
        help="where result.json and spans-*.jsonl go",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program to measure: {SRC}/repro is missing")
    if args.workload:
        if args.seconds is None:
            args.seconds = float(load_spec()["run_seconds"])
        return driver_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
