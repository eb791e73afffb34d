"""The benchmark's workloads and the cells each one simulates.

Every workload is a fixed set of grid cells; ``--seed`` only shuffles
the order in which they run (simulator workloads) or seeds the request
stream (the service workload), so the program under test never sees
the seed itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.runner import DEFAULT_MATRICES, Cell, expand_grid
from repro.serve.load import default_cells


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "sim" or "serve"
    cells: Tuple[Cell, ...]
    #: "cold": every worker process starts from an empty prep store;
    #: "warm": the store is filled once, outside timing, and every
    #: worker loads the artifacts from disk.
    prep: str = "warm"


def _grid(machine: str, matrices, solver: str, iterations: int, **kw):
    return tuple(expand_grid(machines=[machine], matrices=list(matrices),
                             solvers=[solver], iterations=iterations, **kw))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "lanczos-bdw-cold", "sim",
        _grid("broadwell", DEFAULT_MATRICES, "lanczos", 2), prep="cold"),
    Workload(
        "lobpcg-bdw-warm", "sim",
        _grid("broadwell", DEFAULT_MATRICES, "lobpcg", 2)),
    # Without libcsr: its BSP path never calls pick, which this workload
    # is for, and its two cells took half the sweep in the longest calls
    # (0.7-1.1 s), which between-call clock readings scale least well.
    Workload(
        "lanczos-epyc-iter8", "sim",
        _grid("epyc", ("inline1", "Queen4147"), "lanczos", 8,
              versions=("libcsb", "deepsparse", "hpx", "regent"))),
    # The traffic of the CI serve-smoke job (.github/workflows/ci.yml):
    # the cell pool and request stream of repro.serve.load.run_load.
    Workload(
        "serve-mixed", "serve",
        tuple(Cell(**doc) for doc in default_cells())),
)}

#: ``run_load`` settings of the CI serve-smoke job: 48 requests, half
#: of them duplicates of already-scheduled cells, from 16 closed-loop
#: client threads.
LOAD_REQUESTS = 48
LOAD_DUP_FRACTION = 0.5
LOAD_THREADS = 16


def shuffled(cells, rng: random.Random) -> List[Cell]:
    out = list(cells)
    rng.shuffle(out)
    return out


def summary_digest(summary: dict) -> str:
    """sha256 of one cell's summary dict, minus ``steady_state_at``
    (simulator bookkeeping, reported as a layer metric instead)."""
    doc = {k: v for k, v in summary.items() if k != "steady_state_at"}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def workload_digest(cell_digests: Dict[str, str]) -> str:
    """sha256 over the per-cell digests, sorted by cell label."""
    text = "\n".join(f"{k} {cell_digests[k]}" for k in sorted(cell_digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
