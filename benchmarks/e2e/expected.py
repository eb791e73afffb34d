"""Regenerate ``expected.json``: the correctness gate of the benchmark.

::

    PYTHONPATH=src:. python -m benchmarks.e2e.expected

Runs every cell of every workload once through the public
``run_cell_config`` and records the sha256 of its summary (without
``steady_state_at``) per cell label, plus one digest per workload over
its cells sorted by label.  Regenerate only for an intended change of
simulated results, such as a ``COST_MODEL_VERSION`` bump.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from benchmarks.e2e.workloads import (
    WORKLOADS,
    summary_digest,
    workload_digest,
)

HERE = Path(__file__).resolve().parent
PATH = HERE / "expected.json"


def main() -> int:
    from repro.bench.runner import run_cell_config

    prep = HERE.parents[1] / ".bench_work" / "expected-prep"
    os.environ["REPRO_PREP_DIR"] = str(prep)
    try:
        cells, workloads = {}, {}
        for name, wl in WORKLOADS.items():
            mine = {}
            for cell in wl.cells:
                lab = cell.label()
                if lab not in cells:
                    cells[lab] = summary_digest(
                        run_cell_config(cell.config()).to_dict())
                mine[lab] = cells[lab]
            workloads[name] = workload_digest(mine)
            print(f"{name}: {len(mine)} cells {workloads[name][:16]}")
    finally:
        shutil.rmtree(prep, ignore_errors=True)
    PATH.write_text(json.dumps({"workloads": workloads, "cells": cells},
                               indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
