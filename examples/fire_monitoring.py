"""The two demonstration scenarios of the paper (§4), end to end.

Scenario 1 — *The NOA processing chain*: run the five-module chain with
two different classification submodules on the same acquisition and
compare the generated products (count, accuracy, runtime).

Scenario 2 — *Improving generated products*: show the literal stSPARQL
update statements of the refinement step, apply them while tracking the
thematic accuracy, and generate the linked-data-enriched fire map.

Scenario 3 — *Batch reprocessing*: run the chain over a whole morning of
acquisitions at once with ``ProcessingChain.run_batch``, which runs the
acquisitions in order and merges all RDF output into a single bulk
emit.

Every run ends with a metrics snapshot from the observability layer
(:mod:`repro.obs`): per-stage NOA timings, stSPARQL phase histograms
and every cache's hit rate.  Set
``REPRO_METRICS_DUMP=/path/to/file.json`` to also write the structured
snapshot as JSON; ``REPRO_OBS=0`` disables the layer entirely.

Chaos mode: set ``REPRO_FAULTS`` (e.g. ``REPRO_FAULTS="*:p=0.1;seed=7"``)
and the resilience layer absorbs the injected transient failures — the
demo still completes and the final snapshot shows the retry, breaker and
``faults.injected`` counters at work.

Run:  python examples/fire_monitoring.py
      REPRO_FAULTS="*:p=0.1;seed=7" python examples/fire_monitoring.py
"""

import json
import os
import tempfile
import time

from repro import faults
from repro.eo import SceneSpec, generate_scene, write_scene
from repro.eo.seviri import read_scene
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.noa import ProcessingChain
from repro.noa.refinement import Refiner, score_hotspots, truth_region
from repro.strabon import StrabonStore
from repro.vo import VirtualEarthObservatory

FIRE_SEEDS = [
    (21.63, 37.7),   # inland, near ancient Olympia
    (23.4, 38.05),   # coastal — will need clipping
    (22.5, 38.5),    # near Delphi
]


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main():
    if faults.enabled():
        print(f"fault injection ACTIVE: {faults.describe()}")
    vo = VirtualEarthObservatory()
    workdir = tempfile.mkdtemp(prefix="teleios_demo_")
    spec = SceneSpec(width=128, height=128, seed=11, n_fires=0, n_glints=3)
    scene = generate_scene(spec, vo.world.land, fire_seeds=FIRE_SEEDS)
    path = os.path.join(workdir, "scene_000.nat")
    write_scene(scene, path)
    vo.ingest_archive(workdir)
    truth = truth_region(scene, vo.world)

    banner("Scenario 1: the NOA processing chain "
           "(two classification submodules)")
    results = vo.compare_chains(path, ["static", "contextual"])
    print(f"{'chain':<12}{'hotspots':>9}{'precision':>11}{'recall':>8}"
          f"{'f1':>7}{'runtime':>10}")
    for name, result in results.items():
        scores = vo.score_result(result, read_scene(path))
        print(
            f"{name:<12}{len(result.hotspots):>9}"
            f"{scores['precision']:>11.3f}{scores['recall']:>8.3f}"
            f"{scores['f1']:>7.3f}{result.total_seconds * 1000:>8.1f}ms"
        )
    static = results["static"]
    print("\nper-stage timings of the static chain (ms):")
    for stage, seconds in static.timings.items():
        print(f"  {stage:<16}{seconds * 1000:8.2f}")

    banner("Scenario 2: improving generated products with stSPARQL")
    refiner = Refiner(vo.store, vo.world)
    before = score_hotspots(refiner.hotspot_geometries(), truth)
    print("the refinement executes these stSPARQL updates:\n")
    for name, statement in refiner.statements():
        print(f"--- {name} " + "-" * (60 - len(name)))
        print(statement)
        print()
    report = refiner.apply()
    after = score_hotspots(refiner.hotspot_geometries(), truth)
    print(f"{'step':<18}{'affected triples':>18}")
    for name, count in report.steps:
        print(f"{name:<18}{count:>18}")
    print(f"\nhotspots: {report.hotspots_before} -> {report.hotspots_after}")
    print(f"area:     {report.area_before:.4f} -> {report.area_after:.4f} deg^2")
    print(f"precision: {before['precision']:.3f} -> {after['precision']:.3f}")
    print(f"recall:    {before['recall']:.3f} -> {after['recall']:.3f}")

    banner("Scenario 2 (cont.): automatic fire-map generation")
    fire_map = vo.rapid_mapping.build_map("Peloponnese fire map, 2007-08-25")
    for name, features in fire_map.layers.items():
        print(f"\nlayer {name} ({len(features)} features)")
        for feature in features[:4]:
            summary = {
                k: (v[:50] + "..." if isinstance(v, str) and len(v) > 50 else v)
                for k, v in feature.items()
            }
            print(f"  {summary}")
    print(f"\ntotal features on the map: {fire_map.feature_count()}")

    banner("Scenario 3: batch reprocessing")
    batch_paths = []
    for k in range(3):
        batch_spec = SceneSpec(
            width=96, height=96, seed=30 + k, n_fires=0, n_glints=k
        )
        batch_scene = generate_scene(
            batch_spec, vo.world.land, fire_seeds=FIRE_SEEDS
        )
        batch_path = os.path.join(workdir, f"batch_{k:03d}.nat")
        write_scene(batch_scene, batch_path)
        batch_paths.append(batch_path)
    chain = ProcessingChain(Ingestor(Database(), StrabonStore()))
    t0 = time.perf_counter()
    results = chain.run_batch(batch_paths)
    elapsed = time.perf_counter() - t0
    for batch_path, result in zip(batch_paths, results):
        print(
            f"  {os.path.basename(batch_path):<16}"
            f"{len(result.hotspots):>3} hotspots  "
            f"{result.total_seconds * 1000:7.1f}ms chain time"
        )
    print(
        f"\n{len(batch_paths)} acquisitions, one bulk RDF emit, "
        f"{len(chain.ingestor.store)} triples published "
        f"in {elapsed * 1000:.1f}ms wall time"
    )

    banner("Resilience state (repro.resilience)")
    for described in vo.resilience.snapshot()["breakers"]:
        print(f"  breaker {described['name']:<16} state={described['state']}")
    if faults.enabled():
        print(f"  fault plan: {faults.describe()}")

    banner("Metrics snapshot (repro.obs)")
    print(vo.metrics.exposition())
    dump_path = os.environ.get("REPRO_METRICS_DUMP", "").strip()
    if dump_path:
        with open(dump_path, "w") as fh:
            json.dump(vo.metrics.snapshot(), fh, indent=2, sort_keys=True)
        print(f"\nstructured snapshot written to {dump_path}")


if __name__ == "__main__":
    main()
