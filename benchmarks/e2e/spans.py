"""Wall-clock spans around the simulator's layer entry points.

Spans are recorded from benchmark code only: :func:`install` replaces
each entry point (a module function binding or a class attribute) with
a timing wrapper and :func:`uninstall` restores the originals.  Nothing
under ``src/`` knows it is being traced.

Two kinds of span:

* **Regular** spans (census, trace, build, freeze, prep get/put, plan
  compile, scheduler prepare, engine run, summary, and the benchmark's
  own ``e2e.setup`` / ``e2e.cell`` roots) are kept in memory, one record
  each: name, start, end, parent index, workload and cell.
* **Hot** spans (``CostModel.charge``, ``Scheduler.pick``,
  ``FlowGraph.record``) fire once per simulated task -- hundreds of
  thousands per sweep -- so they are folded into per-layer counters and
  into their parent's child coverage instead of being stored.  They are
  leaves, so their self time equals their total.

A layer's self time is its span duration minus the time its child spans
cover; the roots' self time is whatever no wrapped layer claimed.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Callable, Dict, List, Optional

#: (layer name, module, attribute path) of every regular span.  Module
#: function bindings are patched where the caller looks them up
#: (``repro.analysis.experiment`` imports ``census_for`` by name).
REGULAR = (
    ("matrices.census", "repro.analysis.experiment", "census_for"),
    ("solvers.trace", "repro.analysis.experiment", "lanczos_trace"),
    ("solvers.trace", "repro.analysis.experiment", "lobpcg_trace"),
    ("graph.build", "repro.analysis.experiment", "build_solver_dag"),
    ("graph.freeze", "repro.graph.dag", "TaskDAG.freeze"),
    ("bench.prep.get", "repro.bench.prep", "PrepStore.get"),
    ("bench.prep.put", "repro.bench.prep", "PrepStore.put"),
    ("sim.cost.prepare", "repro.sim.cost", "CostModel.prepare"),
    ("sim.schedulers.prepare", "repro.sim.schedulers", "Scheduler.prepare"),
    ("sim.schedulers.prepare", "repro.sim.schedulers",
     "DeepSparseScheduler.prepare"),
    ("sim.schedulers.prepare", "repro.sim.schedulers",
     "HPXScheduler.prepare"),
    ("sim.schedulers.prepare", "repro.sim.schedulers",
     "RegentScheduler.prepare"),
    ("sim.engine.run", "repro.sim.engine", "SimulationEngine.run"),
    ("sim.engine.run", "repro.runtime.bsp", "run_bsp"),
    ("sim.engine.summary", "repro.sim.engine", "RunResult.summary"),
)

HOT = (
    ("sim.cost.charge", "repro.sim.cost", "CostModel.charge"),
    ("sim.schedulers.pick", "repro.sim.schedulers", "Scheduler.pick"),
    ("sim.schedulers.pick", "repro.sim.schedulers",
     "DeepSparseScheduler.pick"),
    ("sim.schedulers.pick", "repro.sim.schedulers", "HPXScheduler.pick"),
    ("sim.schedulers.pick", "repro.sim.schedulers",
     "RegentScheduler.pick"),
    ("sim.flowgraph.record", "repro.sim.flowgraph", "FlowGraph.record"),
)

# Span record fields.
NAME, START, END, PARENT, CHILD, WORKLOAD, CELL = range(7)


class Tracer:
    """In-memory span store for one worker process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cell = ""
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: layer -> [calls, total seconds] of the hot (aggregated) spans.
        self.hot: Dict[str, list] = {}
        #: layer -> [calls that returned something]: non-``None`` picks
        #: and prep-store gets that found an artifact.
        self.hits: Dict[str, list] = {}
        self.prep_bytes_read = 0
        self._prep_seen: set = set()
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Optional[int]:
        """Start a span; ``None`` when ``name`` is already innermost (a
        subclass method calling its wrapped base is one span, not two)."""
        stack = self.stack
        if stack and self.spans[stack[-1]][NAME] == name:
            return None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           stack[-1] if stack else -1, 0.0,
                           self.workload, self.cell])
        stack.append(idx)
        return idx

    def close(self, idx: Optional[int]) -> None:
        if idx is None:
            return
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += rec[END] - rec[START]

    # -- wrappers --------------------------------------------------------
    def _regular(self, name: str, fn: Callable, note=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _hot(self, name: str, fn: Callable, count_hits: bool) -> Callable:
        agg = self.hot.setdefault(name, [0, 0.0])
        hits = self.hits.setdefault(name, [0]) if count_hits else None
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            agg[0] += 1
            agg[1] += dt
            if stack:
                spans[stack[-1]][CHILD] += dt
            if hits is not None and result is not None:
                hits[0] += 1
            return result

        return wrapper

    def _note_prep_get(self, args, artifact) -> None:
        """Hit ratio and bytes read of ``PrepStore.get``, outside in: the
        first successful get of a key in this process reads the file; a
        repeat is served from the store's in-process memo."""
        if artifact is None:
            return
        self.hits.setdefault("bench.prep.get", [0])[0] += 1
        store, config = args[0], args[1]
        key = store.key(config)
        if (id(store), key) not in self._prep_seen:
            self._prep_seen.add((id(store), key))
            self.prep_bytes_read += os.path.getsize(store.path_for(key))

    def install(self) -> None:
        """Patch every entry point; idempotent per tracer."""
        if self._patches:
            return
        for name, module, attr in REGULAR + HOT:
            owner = importlib.import_module(module)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[parts[-1]]
            if (name, module, attr) in HOT:
                wrapped = self._hot(name, original,
                                    name == "sim.schedulers.pick")
            elif name == "bench.prep.get":
                wrapped = self._regular(name, original,
                                        self._note_prep_get)
            else:
                wrapped = self._regular(name, original)
            setattr(owner, parts[-1], wrapped)
            self._patches.append((owner, parts[-1], original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reduction -------------------------------------------------------
    def layers(self) -> Dict[str, dict]:
        """layer -> {calls, total_s, self_s} over every span so far."""
        out: Dict[str, dict] = {}
        for rec in self.spans:
            row = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - rec[CHILD]
        for name, (calls, total) in self.hot.items():
            out[name] = {"calls": calls, "total_s": total, "self_s": total}
        for name, (hits,) in self.hits.items():
            out[name]["hits"] = hits
        return out

    def chrome_events(self) -> List[dict]:
        """Chrome/Perfetto complete events for the stored spans."""
        events = []
        for i, rec in enumerate(self.spans):
            events.append({
                "name": rec[NAME], "ph": "X", "pid": 0, "tid": 0,
                "ts": rec[START] * 1e6,
                "dur": (rec[END] - rec[START]) * 1e6,
                "args": {"span": i, "parent": rec[PARENT],
                         "workload": rec[WORKLOAD], "cell": rec[CELL],
                         "self_us": (rec[END] - rec[START]
                                     - rec[CHILD]) * 1e6},
            })
        return events
