"""The four scenario workloads (names are fixed; later issues cite them)."""

from __future__ import annotations

import importlib
import os
import shutil
from typing import Dict, Protocol


class Context:
    """What a workload is given: the seed, the size divisor and scratch."""

    def __init__(self, seed: int, divisor: int, workdir: str):
        self.seed = seed
        self.divisor = divisor
        self.workdir = workdir
        self._serial: Dict[str, int] = {}

    def scaled(self, full: int, floor: int = 1) -> int:
        """``full`` at the default size, ``full // 8`` under ``--smoke``."""
        return max(floor, full // self.divisor)

    def fresh_dir(self, label: str) -> str:
        """A new empty directory; the previous one of this label is
        removed, so scratch stays bounded over many rounds."""
        serial = self._serial.get(label, 0)
        shutil.rmtree(
            os.path.join(self.workdir, f"{label}-{serial}"),
            ignore_errors=True,
        )
        self._serial[label] = serial + 1
        path = os.path.join(self.workdir, f"{label}-{serial + 1}")
        os.makedirs(path)
        return path


class Workload(Protocol):
    """``setup`` builds inputs and preloaded state from the seed and may
    be called repeatedly (each call is one ``setup_s`` sample); ``round``
    runs one round on fresh mutable state and reports into the recorder."""

    def setup(self) -> None: ...

    def round(self, rec) -> None: ...


def create(name: str, ctx: Context) -> Workload:
    module = importlib.import_module(f"bench.workloads.{name}")
    return module.WORKLOAD(ctx)
