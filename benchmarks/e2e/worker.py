"""One fresh simulator process: set up prep for its cells, then sweep.

Run as ``python -m benchmarks.e2e.worker`` with a JSON job on stdin::

    {"workload": str, "cells": [[label, config], ...], "sweep": bool,
     "trace": bool, "cpu": int}

and prints one JSON result line on stdout.  Setup calls the public
``prebuild_prep`` once per cell (a fresh process pays census/trace/
build or artifact load here); with ``sweep`` it then calls
``run_cell_config`` once per cell in the given order.  Without
``sweep`` the process only fills the prep store, which is how warm
stores are made.

The process pins itself to ``cpu`` and reads the reference clock
(:mod:`.refclock`) before the first timed call and after each one, so
each time is reported both as wall seconds and as reference seconds.
With ``trace`` the layer entry points are wrapped (:mod:`.spans`) and
the result carries the per-layer table and the stored spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.stdin.read())
    os.sched_setaffinity(0, {job["cpu"]})
    from repro.analysis.experiment import prebuild_prep
    from repro.bench.runner import run_cell_config

    from benchmarks.e2e import refclock
    from benchmarks.e2e.spans import Tracer
    from benchmarks.e2e.workloads import summary_digest

    tracer = Tracer(job["workload"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()
    readings = [refclock.measure()]

    def timed(root: str, lab: str, fn, *args):
        """-> (result, [wall seconds, reference seconds])."""
        if tracer is not None:
            tracer.cell = lab
            idx = tracer.open(root)
        t = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.close(idx)
        readings.append(refclock.measure())
        return result, [wall, wall * refclock.factor(*readings[-2:])]

    def prebuild(c):
        prebuild_prep(c["machine"], c["matrix"], c["solver"], c["version"],
                      block_count=int(c.get("block_count") or 64),
                      width=c.get("width"),
                      first_touch=bool(c.get("first_touch", True)))

    cells = job["cells"]
    setup = [timed("e2e.setup", lab, prebuild, c)[1] for lab, c in cells]

    sweep, digests, tasks, replayed = {}, {}, {}, {}
    for lab, c in cells if job["sweep"] else ():
        summary, sweep[lab] = timed("e2e.cell", lab, run_cell_config, c)
        digests[lab] = summary_digest(summary.to_dict())
        tasks[lab] = summary.counters.tasks_executed
        ss = summary.steady_state_at
        replayed[lab] = [0 if ss is None else int(c["iterations"]) - ss,
                         int(c["iterations"])]
    out = {"setup": [sum(col) for col in zip(*setup)], "sweep": sweep,
           "digests": digests, "tasks": tasks, "replayed": replayed,
           "rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layers()
        out["prep_bytes_read"] = tracer.prep_bytes_read
        out["events"] = tracer.chrome_events()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
