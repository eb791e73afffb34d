"""Chrome trace-event JSON export (``chrome://tracing`` / Perfetto).

Produces the *JSON Object Format* of the Trace Event specification:
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — loadable by
Perfetto's legacy-trace importer and by ``chrome://tracing``.

Lane model (all in one process ``pid=0``):

* one thread lane per simulated worker core (``tid = core``), named
  ``core N``, carrying the complete (``"X"``) events of every task the
  core executed, with ``args`` giving task id, kernel, tile
  coordinates, iteration, per-task L1/L2/L3 miss lines, and the
  charge decomposition;
* one ``runtime`` lane (``tid = n_cores``) carrying barrier intervals
  and steal/poll instants;
* counter (``"C"``) events for scheduler queue depth and per-level
  cache occupancy.

Timestamps convert from simulated seconds to the spec's microseconds.
Replay-synthesized events keep their timing but get ``cat="replay"``
so they are visually distinguishable from simulated ones.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_US = 1e6  # simulated seconds -> trace microseconds


def _tile_coords(dag):
    """Each task's ``params["i"]`` and, for a SpMV/SpMM task,
    ``params["j"]``, read off the frozen view: ``param_i`` by tid (-1
    if absent) and ``j`` by tid, the block column, which is the
    partition of the task's gather input chunk (``sparse_x``, -1 if
    none)."""
    soa = dag.freeze()
    id_to_key = soa.id_to_key
    j = {t: id_to_key[x][1] for t, x in zip(soa.sparse_tids.tolist(),
                                             soa.sparse_x.tolist())
         if x >= 0}
    return soa.param_i.tolist(), j


def _task_args(ev, coords) -> dict:
    args = {
        "tid": ev.tid,
        "iteration": ev.iteration,
        "l1_misses": ev.l1,
        "l2_misses": ev.l2,
        "l3_misses": ev.l3,
        "overhead_us": ev.overhead * _US,
        "compute_us": ev.compute * _US,
        "memory_us": ev.memory * _US,
    }
    if coords is not None:
        param_i, j = coords
        i = param_i[ev.tid]
        if i >= 0:
            args["i"] = i
        if ev.tid in j:
            args["j"] = j[ev.tid]
    return args


def to_chrome_trace(tracer=None, events: Optional[Iterable] = None,
                    meta: Optional[dict] = None, dag=None) -> dict:
    """Convert a tracer (or a raw event iterable) to a Chrome trace.

    Pass either a :class:`~repro.trace.Tracer` whose sink retained the
    events in memory, or an explicit ``events`` iterable (e.g. from
    :func:`repro.trace.sink.read_jsonl`) plus optional ``meta``/``dag``.
    """
    if tracer is not None:
        events = tracer.events if events is None else events
        meta = dict(tracer.meta, **(meta or {}))
        dag = dag if dag is not None else tracer.dag
    if events is None:
        raise ValueError("need a tracer with an in-memory sink or events=")
    meta = meta or {}
    coords = None if dag is None else _tile_coords(dag)
    n_cores = meta.get("n_cores")
    out = []
    label = (f"repro-sim {meta.get('machine', '?')}/"
             f"{meta.get('policy', '?')}")
    out.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                "args": {"name": label}})
    lanes_seen = set()
    runtime_lane = None

    def _lane(core: int):
        if core not in lanes_seen:
            lanes_seen.add(core)
            out.append({"ph": "M", "pid": 0, "tid": core,
                        "name": "thread_name",
                        "args": {"name": f"core {core}"}})
            # Sort index keeps lanes in core order in the UI.
            out.append({"ph": "M", "pid": 0, "tid": core,
                        "name": "thread_sort_index",
                        "args": {"sort_index": core}})

    def _runtime_lane():
        nonlocal runtime_lane
        if runtime_lane is None:
            runtime_lane = (n_cores if n_cores is not None
                            else max(lanes_seen, default=0) + 1)
            out.append({"ph": "M", "pid": 0, "tid": runtime_lane,
                        "name": "thread_name",
                        "args": {"name": "runtime"}})
            out.append({"ph": "M", "pid": 0, "tid": runtime_lane,
                        "name": "thread_sort_index",
                        "args": {"sort_index": 1 << 20}})
        return runtime_lane

    for ev in events:
        kind = ev.kind
        if kind == "task":
            _lane(ev.core)
            out.append({
                "ph": "X", "pid": 0, "tid": ev.core,
                "name": ev.kernel,
                "cat": "replay" if ev.synthesized else "task",
                "ts": ev.start * _US,
                "dur": (ev.end - ev.start) * _US,
                "args": _task_args(ev, coords),
            })
        elif kind == "barrier":
            out.append({
                "ph": "X", "pid": 0, "tid": _runtime_lane(),
                "name": "barrier",
                "cat": "replay" if ev.synthesized else "barrier",
                "ts": ev.compute_end * _US,
                "dur": (ev.end - ev.compute_end) * _US,
                "args": {"iteration": ev.iteration,
                         "span_us": (ev.end - ev.start) * _US},
            })
        elif kind == "queue":
            out.append({
                "ph": "C", "pid": 0, "tid": 0, "name": "ready_tasks",
                "ts": ev.time * _US, "args": {"ready": ev.depth},
            })
        elif kind == "steal":
            _lane(ev.core)
            out.append({
                "ph": "i", "pid": 0, "tid": ev.core, "name": "steal",
                "cat": "sched", "s": "t", "ts": ev.time * _US,
                "args": {"victim": ev.victim, "tid": ev.tid},
            })
        elif kind == "poll":
            _lane(ev.core)
            out.append({
                "ph": "i", "pid": 0, "tid": ev.core, "name": "poll",
                "cat": "sched", "s": "t", "ts": ev.time * _US,
                "args": {},
            })
        elif kind == "cache":
            out.append({
                "ph": "C", "pid": 0, "tid": 0,
                "name": f"{ev.level} occupancy",
                "ts": ev.time * _US,
                "args": {"bytes": ev.used, "capacity": ev.capacity},
            })
        elif kind == "burst":
            out.append({
                "ph": "C", "pid": 0, "tid": 0,
                "name": f"{ev.level} miss bursts",
                "ts": ev.time * _US,
                "args": {"bursts": ev.bursts, "longest": ev.longest,
                         "missed_lines": ev.misses},
            })
        elif kind == "numa":
            out.append({
                "ph": "C", "pid": 0, "tid": 0, "name": "numa homes",
                "ts": ev.time * _US,
                "args": {f"domain {d}": n
                         for d, n in enumerate(ev.histogram)},
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome_trace(path: str, tracer=None,
                       events: Optional[Iterable] = None,
                       meta: Optional[dict] = None, dag=None) -> str:
    """Serialize :func:`to_chrome_trace` to ``path``; returns ``path``."""
    doc = to_chrome_trace(tracer=tracer, events=events, meta=meta, dag=dag)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path
