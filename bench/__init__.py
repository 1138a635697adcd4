"""The observatory's end-to-end benchmark (see ``bench/README.md``).

``python3 -m bench`` runs four scenario workloads over the checkout's
``src/repro``; ``BENCHMARK.json`` at the repository root fixes the
metric names, units, directions and bounds this package must emit.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``personality(2)`` flag: no address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000

WORKLOADS = ("s1_chain", "s2_refine_map", "durable_mine", "serve_mixed")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
