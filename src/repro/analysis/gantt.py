"""Timeline rendering (Figs. 10 and 13 as text) — trace-backed.

The renderer consumes the structured event stream of
:mod:`repro.trace` (one :class:`~repro.trace.TaskEvent` per executed
task) rather than poking at ad-hoc flow records: the same code renders
a live :class:`~repro.trace.Tracer`, a reloaded JSONL event file, or —
through :func:`render_flow` — a :class:`RunResult` whose flow records
are converted into task events on the fly.  Summary statistics (kernel
envelopes, overlap fraction, utilization, idle/queue series) come from
the same stream.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import RunResult
from repro.trace.events import TaskEvent
from repro.trace.metrics import metrics_from_events

__all__ = ["render_flow", "render_trace", "render_gantt", "task_events"]


def task_events(events: Iterable) -> List[TaskEvent]:
    """The task events of a stream, in emit order."""
    return [e for e in events if getattr(e, "kind", None) == "task"]


def flow_to_task_events(flow) -> List[TaskEvent]:
    """Adapt a :class:`~repro.sim.flowgraph.FlowGraph` to task events.

    Flow records carry no charge decomposition or miss attribution, so
    those args are zero; timing/lane fields are exact.  Returns an
    empty list for cached :class:`FlowSummary` objects (no records).
    """
    records = getattr(flow, "records", None)
    if not records:
        return []
    return [
        TaskEvent(r.tid, r.kernel, r.core, r.start, r.end, r.iteration,
                  0.0, 0.0, 0.0, 0, 0, 0)
        for r in records
    ]


# ----------------------------------------------------------------------
def render_gantt(events: Iterable, width: int = 100,
                 max_cores: int = 32) -> str:
    """ASCII Gantt from task events: one row per lane, letter = kernel.

    Replay-synthesized events render in lowercase so the steady-state
    takeover is visible in the timeline itself.
    """
    tasks = task_events(events)
    if not tasks:
        return "(no task events)"
    span = max(t.end for t in tasks)
    kernels = sorted({t.kernel for t in tasks})
    letters = {k: chr(ord("A") + i % 26) for i, k in enumerate(kernels)}
    cores = sorted({t.core for t in tasks})[:max_cores]
    by_core: Dict[int, list] = {c: [] for c in cores}
    for t in tasks:
        if t.core in by_core:
            by_core[t.core].append(t)
    lines = []
    legend = "  ".join(f"{letters[k]}={k}" for k in kernels)
    lines.append(f"makespan {span * 1e3:.3f} ms   {legend}")
    for c in cores:
        row = [" "] * width
        for t in by_core[c]:
            a = int(t.start / span * (width - 1))
            b = max(a + 1, int(t.end / span * (width - 1)) + 1)
            ch = letters[t.kernel]
            if t.synthesized:
                ch = ch.lower()
            for x in range(a, min(b, width)):
                row[x] = ch
        lines.append(f"core {c:3d} |{''.join(row)}|")
    return "\n".join(lines)


def _kernel_envelopes(tasks) -> Dict[str, Tuple[float, float]]:
    env: Dict[str, Tuple[float, float]] = {}
    for t in tasks:
        lo, hi = env.get(t.kernel, (t.start, t.end))
        env[t.kernel] = (min(lo, t.start), max(hi, t.end))
    return env


def _overlap_fraction(env: Dict[str, Tuple[float, float]]) -> float:
    spans = sorted(env.values())
    if len(spans) < 2:
        return 0.0
    total = sum(hi - lo for lo, hi in spans)
    if total <= 0:
        return 0.0
    overlap = 0.0
    for i, (lo1, hi1) in enumerate(spans):
        for lo2, hi2 in spans[i + 1:]:
            if lo2 >= hi1:
                break
            overlap += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return min(1.0, overlap / total)


def _summary_lines(tasks, n_cores: Optional[int]) -> List[str]:
    env = _kernel_envelopes(tasks)
    lines = ["", "kernel envelopes (ms):"]
    for k, (lo, hi) in sorted(env.items(), key=lambda kv: kv[1]):
        lines.append(f"  {k:12s} [{lo * 1e3:9.3f}, {hi * 1e3:9.3f}]")
    lines.append(
        f"kernel overlap fraction: {_overlap_fraction(env):.2f} "
        "(0 = phased/BSP, higher = pipelined)"
    )
    if n_cores:
        span = max((t.end for t in tasks), default=0.0)
        busy = sum(t.end - t.start for t in tasks)
        util = busy / (span * n_cores) if span > 0 else 0.0
        lines.append(f"utilization: {util:.2f}")
    return lines


# ----------------------------------------------------------------------
def render_trace(tracer=None, events: Optional[Iterable] = None,
                 meta: Optional[dict] = None, width: int = 90,
                 max_cores: int = 16) -> str:
    """Gantt + envelope summary + per-iteration metrics for one trace."""
    if tracer is not None:
        events = tracer.events if events is None else events
        meta = dict(tracer.meta, **(meta or {}))
    events = list(events or [])
    meta = meta or {}
    n_cores = meta.get("n_cores")
    tasks = task_events(events)
    header = (f"{meta.get('policy', '?')} on {meta.get('machine', '?')} "
              f"({n_cores if n_cores is not None else '?'} cores, "
              f"{len(tasks)} task events)")
    lines = [header, render_gantt(events, width=width,
                                  max_cores=max_cores)]
    lines += _summary_lines(tasks, n_cores)
    table = metrics_from_events(events, n_cores=n_cores, meta=meta)
    if len(table):
        lines += ["", "per-iteration metrics:", table.render()]
    return "\n".join(lines)


def render_flow(result: RunResult, width: int = 90,
                max_cores: int = 16) -> str:
    """Gantt + kernel-envelope summary for one run (flow-record view).

    Kept as the :class:`RunResult`-facing façade; internally the flow
    records are adapted into trace task events and rendered by the
    same code path as :func:`render_trace`.  Runs without records
    (cached :class:`FlowSummary`, ``record_flow=False``) draw the
    summary's kernel-envelope chart instead of per-core lanes.
    """
    flow = result.flow
    tasks = flow_to_task_events(flow)
    header = (f"{result.policy} on {result.machine} "
              f"({result.n_cores} cores, {len(flow)} task executions)")
    if not tasks:
        return "\n".join([header, flow.to_gantt(width=width,
                                                max_cores=max_cores)])
    lines = [header, render_gantt(tasks, width=width,
                                  max_cores=max_cores)]
    lines += _summary_lines(tasks, result.n_cores)
    return "\n".join(lines)
