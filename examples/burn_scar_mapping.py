"""The knowledge-discovery pillar and the burn-scar chain, end to end.

Part 1 — *Image information mining*: simulate a short acquisition series
carrying both active fire fronts and old burn scars, extract
georeferenced patch grids through the SciQL ``tile_aggregate`` read
path, train a patch classifier on the simulator's ground truth, persist
it in the ``mining_models`` registry, and mine the series with
``MiningPipeline.run_batch`` — annotations land in the Strabon store as
stRDF (concept, footprint geometry, valid time) in a single bulk emit.

Part 2 — *Semantic catalogue queries*: ask the content-based questions
of the paper — patches by concept, annotations valid during a window,
and the cross-pillar join pairing mining annotations with the fire
chain's hotspot products.

Part 3 — *Burn-scar damage mapping*: run the second NOA-style chain
(same stage machinery, different classifier registry) over the same
scenes and build the damage map.

Run:  python examples/burn_scar_mapping.py
"""

import os
import tempfile
from datetime import timedelta

from repro.eo import SceneSpec, generate_scene, write_scene
from repro.mining import queries
from repro.vo import VirtualEarthObservatory


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main():
    vo = VirtualEarthObservatory()
    workdir = tempfile.mkdtemp(prefix="teleios_mining_")
    paths = []
    for k in range(3):
        spec = SceneSpec(
            width=96, height=96, seed=30 + k, n_fires=2, n_burn_scars=2
        )
        scene = generate_scene(spec, vo.world.land)
        path = os.path.join(workdir, f"scene_{k:03d}.nat")
        write_scene(scene, path)
        paths.append(path)

    banner("Part 1: mining the series")
    results = vo.run_mining(paths, model_name="demo-season")
    print(f"{'scene':<16}{'patches':>8}  labels")
    for path, result in zip(paths, results):
        print(
            f"{os.path.basename(path):<16}{len(result.grid):>8}  "
            f"{result.label_statistics()}"
        )
    print(f"\npersisted models: {vo.data_mining.models.names()}")
    print(f"triples in the store: {len(vo.store)}")

    banner("Part 2: semantic catalogue queries")
    chain_results = [vo.run_fire_monitoring(p)["chain"] for p in paths]
    census = vo.store.query(queries.concept_census())
    print("concept census:")
    for label, count in census.rows():
        print(f"  {str(label):<10}{count.to_python():>6} patches")
    acquired = results[0].product.acquired
    window = vo.store.query(
        queries.annotations_valid_during(
            "fire", acquired, acquired + timedelta(minutes=15)
        )
    )
    print(f"fire annotations valid in the acquisition window: {len(window)}")
    join = vo.store.query(queries.annotation_hotspot_join("fire"))
    print(f"patch/hotspot consistency pairs (same product, "
          f"intersecting, co-valid): {len(join)}")
    for patch, hotspot, conf in join.rows()[:3]:
        print(f"  {str(patch).rsplit('#', 1)[-1]}")
        print(f"    <-> {str(hotspot).rsplit('#', 1)[-1]} "
              f"(confidence {conf.to_python():.2f})")

    banner("Part 3: burn-scar damage mapping (second NOA chain)")
    total_fire = sum(len(r.hotspots) for r in chain_results)
    print(f"fire chain found {total_fire} hotspots over the series")
    for path in paths:
        out = vo.run_burn_scar_mapping(path)
        scars = out["chain"].hotspots
        print(
            f"  {os.path.basename(path):<16}{len(scars)} scar regions, "
            f"{sum(h.pixel_count for h in scars)} pixels, "
            f"max severity {max((h.confidence for h in scars), default=0):.2f}"
        )
    burnscars = vo.store.query(
        "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
        "SELECT ?s WHERE { ?s a noa:BurnScar }"
    )
    print(f"\nburn-scar products published as stRDF: {len(burnscars)}")
    print(f"final store size: {len(vo.store)} triples")


if __name__ == "__main__":
    main()
