"""Execution flow graphs — the data behind Figs. 10 and 13.

Every executed task is recorded (kernel, core, start, end, iteration)
into a :class:`FlowGraph`, which keeps the :class:`FlowRecord` tuples
only on request and offers the reductions the paper's flow-graph
discussion uses: per-kernel start/finish envelopes (to see
pipelining — kernels overlapping in time — versus BSP's disjoint
phases), per-core utilization, and an ASCII Gantt rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

__all__ = ["FlowRecord", "FlowGraph", "FlowSummary"]


class FlowRecord(NamedTuple):
    """One task execution.

    A ``NamedTuple`` rather than a dataclass: when records are kept,
    one is appended per executed task, so construction cost is on the
    simulator's hot path (tuple construction is several times cheaper
    than a frozen dataclass ``__init__``), and :meth:`FlowGraph.record`
    builds it with ``tuple.__new__``, skipping the generated
    Python-level ``__new__``.
    """

    tid: int
    kernel: str
    core: int
    start: float
    end: float
    iteration: int


def _overlap_fraction(envelopes: Dict[str, Tuple[float, float]]) -> float:
    """Fraction of kernel-envelope time shared with another kernel:
    0 ⇒ disjoint, BSP-like phases; towards 1 ⇒ fully pipelined (the
    quantitative signature of Figs. 10 and 13)."""
    env = sorted(envelopes.values())
    if len(env) < 2:
        return 0.0
    total = sum(hi - lo for lo, hi in env)
    if total <= 0:
        return 0.0
    overlap = 0.0
    for i, (lo1, hi1) in enumerate(env):
        for lo2, hi2 in env[i + 1:]:
            if lo2 >= hi1:
                break
            overlap += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return min(1.0, overlap / total)


class FlowGraph:
    """Trace of task executions for one run, folded as it records.

    :meth:`record` updates the per-kernel start/finish envelopes,
    per-core busy time and per-iteration spans on every call, in
    first-seen key order; min and max replace only on a strict
    ``<``/``>``, and busy time adds ``end - start`` in record order.
    The :class:`FlowRecord` list itself is kept only when ``keep`` is
    set (Gantt rendering, tests): the summaries the figures and the
    result cache read never need it.
    """

    __slots__ = ("records", "keep", "n_records", "_env", "_busy",
                 "_spans")

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.records: List[FlowRecord] = []
        self.n_records = 0
        self._env: Dict[str, list] = {}
        self._busy: Dict[int, float] = {}
        self._spans: Dict[int, list] = {}

    def record(self, tid, kernel, core, start, end, iteration) -> None:
        self.n_records += 1
        e = self._env.get(kernel)
        if e is None:
            self._env[kernel] = [start, end]
        else:
            if start < e[0]:
                e[0] = start
            if end > e[1]:
                e[1] = end
        busy = self._busy
        busy[core] = busy.get(core, 0.0) + (end - start)
        s = self._spans.get(iteration)
        if s is None:
            self._spans[iteration] = [start, end]
        else:
            if start < s[0]:
                s[0] = start
            if end > s[1]:
                s[1] = end
        if self.keep:
            self.records.append(tuple.__new__(
                FlowRecord, (tid, kernel, core, start, end, iteration)))

    def __len__(self):
        return self.n_records

    # ------------------------------------------------------------------
    def summary(self) -> "FlowSummary":
        """Aggregate view of this trace (serializable, records dropped)."""
        envelopes = {k: (lo, hi) for k, (lo, hi) in self._env.items()}
        return FlowSummary(
            n_records=self.n_records,
            makespan=max((hi for _lo, hi in envelopes.values()), default=0.0),
            envelopes=envelopes,
            overlap_fraction=_overlap_fraction(envelopes),
            core_busy=dict(self._busy),
            spans={i: (lo, hi) for i, (lo, hi) in self._spans.items()},
        )

    @property
    def makespan(self) -> float:
        return self.summary().makespan

    def kernel_envelopes(self) -> Dict[str, Tuple[float, float]]:
        return self.summary().envelopes

    def kernel_overlap_fraction(self) -> float:
        return self.summary().overlap_fraction

    def core_busy_time(self) -> Dict[int, float]:
        return self.summary().core_busy

    def utilization(self, n_cores: int) -> float:
        return self.summary().utilization(n_cores)

    def iteration_spans(self) -> Dict[int, Tuple[float, float]]:
        return self.summary().spans

    # ------------------------------------------------------------------
    def to_gantt(self, width: int = 100, max_cores: int = 32) -> str:
        """ASCII Gantt chart: one row per core, one letter per kernel."""
        if not self.records:
            return self.summary().to_gantt(width, max_cores)
        span = self.makespan
        kernels = sorted({r.kernel for r in self.records})
        letters = {k: chr(ord("A") + i % 26) for i, k in enumerate(kernels)}
        cores = sorted({r.core for r in self.records})[:max_cores]
        lines = []
        legend = "  ".join(f"{letters[k]}={k}" for k in kernels)
        lines.append(f"makespan {span * 1e3:.3f} ms   {legend}")
        for c in cores:
            row = [" "] * width
            for r in self.records:
                if r.core != c:
                    continue
                a = int(r.start / span * (width - 1))
                b = max(a + 1, int(r.end / span * (width - 1)) + 1)
                for x in range(a, min(b, width)):
                    row[x] = letters[r.kernel]
            lines.append(f"core {c:3d} |{''.join(row)}|")
        return "\n".join(lines)


@dataclass
class FlowSummary:
    """Aggregates of a :class:`FlowGraph` without the per-task records.

    This is what the on-disk result cache stores: everything the
    figure/benchmark assertions read (envelopes, overlap fraction,
    per-core busy time, iteration spans) survives the round trip; the
    raw record list — only needed for Gantt rendering — does not.
    The query surface mirrors :class:`FlowGraph` so cached summaries
    are drop-in for analysis code.
    """

    n_records: int = 0
    makespan: float = 0.0
    envelopes: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    overlap_fraction: float = 0.0
    core_busy: Dict[int, float] = field(default_factory=dict)
    spans: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    # -- FlowGraph-compatible query surface -----------------------------
    def __len__(self) -> int:
        return self.n_records

    def kernel_envelopes(self) -> Dict[str, Tuple[float, float]]:
        return dict(self.envelopes)

    def kernel_overlap_fraction(self) -> float:
        return self.overlap_fraction

    def core_busy_time(self) -> Dict[int, float]:
        return dict(self.core_busy)

    def utilization(self, n_cores: int) -> float:
        if self.makespan <= 0:
            return 0.0
        return sum(self.core_busy.values()) / (self.makespan * n_cores)

    def iteration_spans(self) -> Dict[int, Tuple[float, float]]:
        return dict(self.spans)

    def to_gantt(self, width: int = 100, max_cores: int = 32) -> str:
        """ASCII envelope chart: one bar per kernel, first start to
        last end, across the makespan (``max_cores`` is unused: the
        summary has no per-core lanes)."""
        if not self.envelopes:
            return "(empty flow graph)"
        span = self.makespan
        scale = (width - 1) / span if span > 0 else 0.0
        kernels = sorted(self.envelopes)
        letters = {k: chr(ord("A") + i % 26) for i, k in enumerate(kernels)}
        label = max(len(k) for k in kernels)
        lines = [f"makespan {span * 1e3:.3f} ms   kernel envelopes"]
        for k, (lo, hi) in sorted(self.envelopes.items(),
                                  key=lambda kv: kv[1]):
            a = int(lo * scale)
            b = max(a + 1, int(hi * scale) + 1)
            row = " " * a + letters[k] * (min(b, width) - a)
            lines.append(f"{k:>{label}s} |{row:<{width}s}|")
        lines.append(f"kernel overlap fraction: {self.overlap_fraction:.2f}"
                     "; per-core lanes need record_flow=True")
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "makespan": self.makespan,
            "envelopes": {k: [lo, hi]
                          for k, (lo, hi) in self.envelopes.items()},
            "overlap_fraction": self.overlap_fraction,
            "core_busy": {str(c): t for c, t in self.core_busy.items()},
            "spans": {str(i): [lo, hi]
                      for i, (lo, hi) in self.spans.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FlowSummary":
        return cls(
            n_records=int(d.get("n_records", 0)),
            makespan=float(d.get("makespan", 0.0)),
            envelopes={str(k): (float(v[0]), float(v[1]))
                       for k, v in d.get("envelopes", {}).items()},
            overlap_fraction=float(d.get("overlap_fraction", 0.0)),
            core_busy={int(c): float(t)
                       for c, t in d.get("core_busy", {}).items()},
            spans={int(i): (float(v[0]), float(v[1]))
                   for i, v in d.get("spans", {}).items()},
        )
