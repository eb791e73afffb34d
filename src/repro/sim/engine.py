"""The discrete-event engine and the BSP phase executor.

:class:`SimulationEngine.run` plays a DAG under an AMT scheduling
policy: cores pull ready tasks as the policy dictates, each execution
is priced by the cost model against live cache state, and iteration
boundaries are barriers (§4: DeepSparse reuses a single-iteration DAG
with barriers in between; HPX/Regent are barriered in practice by the
convergence check).

:func:`run_bsp` is the library baseline: each primitive call is one
parallel phase — tasks statically chunked over cores, a barrier at the
end — which is exactly the fork-join structure of the MKL-based
``libcsr``/``libcsb`` versions.
"""

from __future__ import annotations

import heapq
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import eq, gt
from typing import List, Optional

import numpy as np

from repro.graph.dag import TaskDAG, _csr, _smallest, _tuples, tid_ints
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.perf import PerfCounters
from repro.machine.topology import MachineSpec
from repro.sim.cost import CostModel
from repro.sim.flowgraph import FlowGraph, FlowSummary
from repro.sim.schedulers import Scheduler

__all__ = ["RunResult", "RunResultSummary", "SimulationEngine", "run_bsp"]

_EPS = 1e-15


def _steady_state_enabled() -> bool:
    """Default for the steady-state fast path: on unless the
    ``REPRO_NO_STEADY_STATE`` environment kill-switch is set."""
    return not os.environ.get("REPRO_NO_STEADY_STATE")


def _machine_state_fingerprint(cache: CacheHierarchy) -> tuple:
    """Hashable snapshot of every piece of mutable machine state.

    Taken at iteration barriers by the steady-state detector: per-level
    LRU contents *in LRU order* (eviction order is state).  NUMA homes
    are fixed when the run is prepared, so the memory model holds no
    run state.  The coherence directory (``CacheHierarchy._holders``)
    and the memoization dicts (``MemoryModel._domain_memo`` etc.) are
    excluded on purpose: the directory is a superset of the real
    holders, which the LRU contents already determine, and the memos
    are pure caches; neither can change a simulated value.
    """
    return (
        tuple(tuple(c._entries.items()) for c in cache.l1),
        tuple(tuple(c._entries.items()) for c in cache.l2),
        tuple(tuple(c._entries.items()) for c in cache.l3),
    )


@dataclass
class RunResult:
    """Outcome of one simulated solver run."""

    machine: str
    policy: str
    total_time: float
    iteration_times: List[float]
    counters: PerfCounters
    flow: FlowGraph
    n_cores: int
    n_tasks_per_iteration: int
    #: 0-based index of the first iteration produced by the
    #: steady-state tape replay instead of full simulation; ``None``
    #: when every iteration was simulated (fast path disabled, never
    #: detected, or the run is too short to arm it).
    steady_state_at: Optional[int] = None

    @property
    def time_per_iteration(self) -> float:
        """Mean iteration wall time — the paper's reported quantity."""
        return self.total_time / max(1, len(self.iteration_times))

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup relative to a baseline run (libcsr in the paper)."""
        return baseline.time_per_iteration / self.time_per_iteration

    def summary(self) -> "RunResultSummary":
        """Serializable aggregate of this run (flow records dropped)."""
        return RunResultSummary(
            machine=self.machine,
            policy=self.policy,
            total_time=self.total_time,
            iteration_times=list(self.iteration_times),
            counters=self.counters,
            flow=self.flow.summary(),
            n_cores=self.n_cores,
            n_tasks_per_iteration=self.n_tasks_per_iteration,
            steady_state_at=self.steady_state_at,
        )


@dataclass
class RunResultSummary:
    """What the on-disk result cache stores for one simulated run.

    Drop-in for :class:`RunResult` everywhere the benchmarks and the
    analysis layer read results — timing, counters, flow *aggregates* —
    but without the per-task :class:`FlowRecord` list, so it serializes
    to a few KB regardless of DAG size.  ``to_dict``/``from_dict``
    round-trip bit-exactly (floats survive via ``repr`` in JSON).
    """

    machine: str
    policy: str
    total_time: float
    iteration_times: List[float]
    counters: PerfCounters
    flow: FlowSummary
    n_cores: int
    n_tasks_per_iteration: int
    #: See :attr:`RunResult.steady_state_at`.  Optional with a ``None``
    #: default so summaries serialized before the fast path existed
    #: (older on-disk result caches) still deserialize.
    steady_state_at: Optional[int] = None

    @property
    def time_per_iteration(self) -> float:
        return self.total_time / max(1, len(self.iteration_times))

    def speedup_over(self, baseline) -> float:
        return baseline.time_per_iteration / self.time_per_iteration

    def summary(self) -> "RunResultSummary":
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "policy": self.policy,
            "total_time": self.total_time,
            "iteration_times": list(self.iteration_times),
            "counters": self.counters.to_dict(),
            "flow": self.flow.to_dict(),
            "n_cores": self.n_cores,
            "n_tasks_per_iteration": self.n_tasks_per_iteration,
            "steady_state_at": self.steady_state_at,
            # Constant: the summary digests hash the whole dict; the key
            # goes at the COST_MODEL_VERSION 2 bump (ROADMAP item 4).
            "fault_report": None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResultSummary":
        ss = d.get("steady_state_at")
        return cls(
            machine=str(d["machine"]),
            policy=str(d["policy"]),
            total_time=float(d["total_time"]),
            iteration_times=[float(t) for t in d["iteration_times"]],
            counters=PerfCounters.from_dict(d["counters"]),
            flow=FlowSummary.from_dict(d.get("flow", {})),
            n_cores=int(d["n_cores"]),
            n_tasks_per_iteration=int(d["n_tasks_per_iteration"]),
            steady_state_at=None if ss is None else int(ss),
        )


def _default_barrier_cost(n_cores: int) -> float:
    """Tree barrier: ~0.4 µs per fan-in level."""
    return 0.4e-6 * max(1.0, math.log2(n_cores))


def _max_partitions(dag: TaskDAG) -> int:
    """Highest chunk partition count in the DAG (NUMA placement input)."""
    return max(1, dag.freeze().max_part)


class SimulationEngine:
    """Event-driven execution of a TaskDAG under one scheduling policy.

    One engine instance owns one machine state (caches, NUMA
    placement); create a fresh engine per configuration so runs don't
    share warmth.
    """

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
    ):
        self.machine = machine
        self.cache = CacheHierarchy(machine)
        self.memory = MemoryModel(machine, first_touch=first_touch)
        self.cost = CostModel(machine, self.cache, self.memory)
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        dag: TaskDAG,
        scheduler: Scheduler,
        iterations: int = 1,
        barrier_cost: Optional[float] = None,
        record_flow: bool = True,
        steady_state: Optional[bool] = None,
        tracer=None,
    ) -> RunResult:
        """Execute ``iterations`` barriered repetitions of the DAG.

        ``tracer`` (a :class:`repro.trace.Tracer`, default off) attaches
        the observability layer: per-task events on worker lanes,
        barrier intervals, scheduler queue/steal/poll events, and
        machine-state samples at every barrier.  Tracing is strictly
        observational — with a tracer attached the simulated numbers
        are bit-identical to ``tracer=None``; iterations produced by
        the steady-state replay emit synthesized events
        (``synthesized=True``) carrying the exact times the full
        simulation would have produced.

        ``record_flow`` keeps the per-task :class:`FlowRecord` list on
        ``RunResult.flow`` (Gantt rendering, tests); the flow summary
        is folded as tasks record either way.

        ``steady_state`` arms the iteration fast path (default: on,
        unless ``REPRO_NO_STEADY_STATE`` is set).  Iterative solvers
        replay the same DAG against machine state that converges to a
        fixed point after a warm-up iteration or two; once the detector
        sees two consecutive iterations leave *identical* machine and
        scheduler state behind (:func:`_machine_state_fingerprint`,
        :meth:`Scheduler.state_fingerprint`) and produce *identical*
        value tapes, every remaining iteration is produced by replaying
        the tape — re-executing exactly the float operations the full
        simulation would execute, anchored at each iteration's start
        time — so results are bit-identical to the plain loop while
        skipping the cache simulation and scheduling logic entirely.
        Schedulers opt out by returning ``None`` from
        ``state_fingerprint`` (unknown subclasses) or by fingerprinting
        state that never repeats (HPX's RNG), in which case every
        iteration is simulated in full.
        """
        if barrier_cost is None:
            barrier_cost = _default_barrier_cost(self.machine.n_cores)
        self.memory.configure_from_dag(dag)
        if self.memory.n_parts is None:
            self.memory.n_parts = _max_partitions(dag)
        scheduler.prepare(dag, self.machine, self.memory, seed=self.seed)
        self.cost.prepare(dag)
        counters = PerfCounters()
        # The flow summary is folded either way; record_flow only
        # decides whether the per-task records are kept as well.
        flow = FlowGraph(keep=record_flow)
        if steady_state is None:
            steady_state = _steady_state_enabled()
        if tracer is not None:
            tracer.begin_run(self.machine.name, scheduler.name,
                             self.machine.n_cores, dag)
            scheduler.tracer = tracer
            self.cache.trace_hook = tracer._on_cache_access
        ttask = tracer.task if tracer is not None else None
        # Detection needs two comparable warm iterations after the cold
        # one, so runs shorter than 4 iterations take the plain loop.
        armed = bool(steady_state) and iterations >= 4
        clock = 0.0
        iteration_times: List[float] = []
        steady_state_at = None
        prev_fp = None
        prev_tape = None
        it = 0
        while it < iterations:
            t0 = clock
            scheduler.reset_iteration(it, t0)
            end, tape = self._run_iteration(
                dag, scheduler, counters, flow, it, t0, ttask, armed
            )
            clock = end + barrier_cost
            iteration_times.append(clock - t0)
            if tracer is not None:
                tracer.sample_machine(it, end, self.cache, self.memory)
                tracer.barrier(it, t0, end, clock)
            it += 1
            if not armed:
                continue
            sched_fp = scheduler.state_fingerprint()
            if sched_fp is None:
                # Scheduler opted out: stop taping, plain loop onward.
                armed = False
                continue
            fp = (sched_fp,
                  _machine_state_fingerprint(self.cache))
            if prev_fp is not None and fp == prev_fp and tape == prev_tape:
                # Two consecutive iterations started from the same
                # state, behaved identically, and returned to that
                # state: by induction every remaining iteration repeats
                # the tape.  Replay it (falls back to full simulation
                # at the first iteration it cannot certify).
                first = it
                it, clock = self._replay_iterations(
                    dag, scheduler, tape, t0, counters, flow,
                    it, iterations, clock, barrier_cost, iteration_times,
                    tracer,
                )
                if it > first:
                    steady_state_at = first
                armed = False
                continue
            prev_fp = fp
            prev_tape = tape
        if tracer is not None:
            scheduler.tracer = None
            self.cache.trace_hook = None
        return RunResult(
            machine=self.machine.name,
            policy=scheduler.name,
            total_time=clock,
            iteration_times=iteration_times,
            counters=counters,
            flow=flow,
            n_cores=self.machine.n_cores,
            n_tasks_per_iteration=len(dag),
            steady_state_at=steady_state_at,
        )

    # ------------------------------------------------------------------
    def _run_iteration(self, dag, scheduler, counters, flow, it, t0,
                       ttask, taped):
        """Simulate one iteration; return ``(end_time, (ops, end_node))``.

        ``taped`` additionally records a *value tape* of the iteration
        for :meth:`_replay_iterations`.  Every timestamp the loop
        produces is a node of a small value graph anchored at ``t0``
        (node 0); ``ops`` records, in creation order, how each node is
        computed:

        * ``(0, tid)`` — initial release: ``release_time(tid, t0)``;
        * ``(1, tid, j)`` — dependence-satisfied release, clamped to
          the enabling event: ``max(release_time(tid, t0), vals[j])``;
        * ``(2, j, dur, tid, core, overhead, compute, memory_t,
          m1, m2, m3)`` — task assignment at time node ``j``, finishing
          at ``vals[j] + dur``, with the full charge decomposition for
          counter/flow replay.

        Heap entries carry the node id as a trailing element; tuple
        ordering is untouched because ``(time, tid)`` / ``(time,
        core)`` are already unique within their heaps.  ``ops`` is
        ``None`` when not taped.  Taping only adds bookkeeping; it never
        changes an arithmetic operation.
        """
        n = len(dag)
        ops = [] if taped else None
        if n == 0:
            return t0, (ops, 0)
        tape_op = ops.append if taped else None
        indeg = dag.in_degrees()
        nv = 1  # node 0 is t0; each op appends exactly one value node
        # (time, tid, enabler_core, node): dep-free, waiting on the
        # runtime.
        release_heap = []
        for tid, d in enumerate(indeg):
            if d == 0:
                if tape_op is not None:
                    tape_op((0, tid))
                heapq.heappush(
                    release_heap,
                    (scheduler.release_time(tid, t0), tid, -1, nv),
                )
                nv += 1
        finish_heap = []  # (time, core, tid, node)
        n_cores = self.machine.n_cores
        # Idle cores as an int bitmask (bit c = core c) whose set bits
        # are visited in ascending core order — the assignment order of
        # the historical ``sorted(idle)`` — so a scheduling round costs
        # one step per idle core, not one per core.
        idle = (1 << n_cores) - 1
        completed = 0
        time = t0
        time_node = 0
        kernels = dag.kernel_of()
        succ = dag.succ
        charge = self.cost.charge
        pick = scheduler.pick
        task_overhead = scheduler.overhead_per_task
        has_ready = scheduler.has_ready
        release_time = scheduler.release_time
        record_flow = flow.record
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Counter accumulation in locals, seeded from the running values
        # and stored back once per iteration: the sequence of float adds
        # is identical to per-task ``counters.record_task`` calls (same
        # running accumulator, same task order), so results are
        # bit-exact while the hot loop touches no instance attributes.
        n_exec = counters.tasks_executed
        busy_t = counters.busy_time
        ovh_t = counters.overhead_time
        comp_t = counters.compute_time
        mem_t = counters.memory_time
        l1m = counters.l1_misses
        l2m = counters.l2_misses
        l3m = counters.l3_misses
        ktime = counters.kernel_time
        ktasks = counters.kernel_tasks
        ktime_get = ktime.get
        ktasks_get = ktasks.get
        while completed < n:
            while release_heap and release_heap[0][0] <= time + _EPS:
                _, tid, enabler, _node = heappop(release_heap)
                scheduler.on_ready(tid, time,
                                   enabler if enabler >= 0 else None)
            # Hand ready tasks to idle cores (policy picks per core).
            assigned = False
            if idle and has_ready():
                scan = idle
                while scan:
                    bit = scan & -scan
                    scan ^= bit
                    core = bit.bit_length() - 1
                    tid = pick(core, time)
                    if tid is None:
                        continue
                    overhead = task_overhead
                    dur, compute, memory_t, (m1, m2, m3) = charge(tid, core)
                    dur += overhead
                    if tape_op is not None:
                        tape_op((2, time_node, dur, tid, core, overhead,
                                 compute, memory_t, m1, m2, m3))
                    heappush(finish_heap, (time + dur, core, tid, nv))
                    nv += 1
                    kernel = kernels[tid]
                    n_exec += 1
                    busy_t += dur
                    ovh_t += overhead
                    comp_t += compute
                    mem_t += memory_t
                    l1m += m1
                    l2m += m2
                    l3m += m3
                    ktime[kernel] = ktime_get(kernel, 0.0) + dur
                    ktasks[kernel] = ktasks_get(kernel, 0) + 1
                    record_flow(tid, kernel, core, time, time + dur, it)
                    if ttask is not None:
                        ttask(tid, kernel, core, time, time + dur, it,
                              overhead, compute, memory_t, m1, m2, m3)
                    idle ^= bit
                    assigned = True
                    if not has_ready():
                        break
            if assigned:
                continue
            # Nothing assignable now: advance to the next event.
            if finish_heap:
                head = finish_heap[0]
                if idle and release_heap and release_heap[0][0] < head[0]:
                    head = release_heap[0]
            elif idle and release_heap:
                head = release_heap[0]
            else:
                raise RuntimeError(
                    "simulation deadlock: tasks remain but no events pending"
                )
            time = head[0]
            time_node = head[3]
            while finish_heap and finish_heap[0][0] <= time + _EPS:
                _, core, tid, _node = heappop(finish_heap)
                idle |= 1 << core
                completed += 1
                for v in succ[tid]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        rt = release_time(v, t0)
                        if rt < time:
                            rt = time
                        if tape_op is not None:
                            tape_op((1, v, time_node))
                        heappush(release_heap, (rt, v, core, nv))
                        nv += 1
        counters.tasks_executed = n_exec
        counters.busy_time = busy_t
        counters.overhead_time = ovh_t
        counters.compute_time = comp_t
        counters.memory_time = mem_t
        counters.l1_misses = l1m
        counters.l2_misses = l2m
        counters.l3_misses = l3m
        return time, (ops, time_node)

    # ------------------------------------------------------------------
    def _replay_iterations(
        self, dag, scheduler, tape, tape_t0, counters, flow,
        it, iterations, clock, barrier_cost, iteration_times,
        tracer=None,
    ):
        """Produce iterations ``it..iterations-1`` by replaying ``tape``.

        Re-executes, per iteration, exactly the float operations the
        full simulation would execute — one ``release_time`` call or
        max/add per value node, the same counter additions in the same
        order — anchored at that iteration's start time, so the results
        (clock, iteration times, counters, flow records) are
        bit-identical to continuing the simulation.

        That holds only while the event loop would take the same path at
        the new anchor.  Every decision of the loop — heap order, the
        next event time, which releases and finishes fold into it —
        compares two value nodes (``a < b``, ``a == b`` or
        ``a <= b + _EPS``), and rounding at a different anchor can flip
        a near-tie between values computed along different paths (a
        spawn-time release landing one ulp before or after a task
        finish).  Each replayed iteration is therefore certified
        against the taped iteration (anchored at ``tape_t0``): the
        values must keep the same sort order, the same ties and the same
        ``+ _EPS`` reach.  An iteration that fails is *not* committed
        and the caller falls back to full simulation from it.  Returns
        ``(next_iteration, clock)``.
        """
        ops, end_node = tape
        # kind-2 ops with the ids of the value nodes they created
        # (node id of op i is i + 1).
        assign_ops = [(i + 1, op) for i, op in enumerate(ops)
                      if op[0] == 2]
        kernels = dag.kernel_of()
        release_time = scheduler.release_time
        record_flow = flow.record
        ttask = tracer.task if tracer is not None else None
        eps = _EPS

        def evaluate(t0):
            vals = [t0]
            append = vals.append
            for op in ops:
                kind = op[0]
                if kind == 2:
                    append(vals[op[1]] + op[2])
                elif kind == 1:
                    rt = release_time(op[1], t0)
                    tv = vals[op[2]]
                    append(tv if rt < tv else rt)
                else:
                    append(release_time(op[1], t0))
            return vals

        def shape(vals):
            """(ties, eps reach) of ``vals`` in the taped sort order."""
            sv = [vals[i] for i in order]
            if any(map(gt, sv, sv[1:])):
                return None
            return (bytes(map(eq, sv, sv[1:])),
                    [bisect_right(sv, v + eps) for v in sv])

        ref = evaluate(tape_t0)
        order = sorted(range(len(ref)), key=ref.__getitem__)
        ref_shape = shape(ref)
        n_exec = counters.tasks_executed
        busy_t = counters.busy_time
        ovh_t = counters.overhead_time
        comp_t = counters.compute_time
        mem_t = counters.memory_time
        l1m = counters.l1_misses
        l2m = counters.l2_misses
        l3m = counters.l3_misses
        ktime = counters.kernel_time
        ktasks = counters.kernel_tasks
        ktime_get = ktime.get
        ktasks_get = ktasks.get
        while it < iterations:
            t0 = clock
            scheduler.reset_iteration(it, t0)
            # -- pass 1: evaluate and certify the value graph ---------
            vals = evaluate(t0)
            if shape(vals) != ref_shape:
                break  # uncommitted; caller resumes full simulation
            # -- pass 2: commit counters, flow, and the clock ---------
            for node, op in assign_ops:
                dur = op[2]
                tid = op[3]
                kernel = kernels[tid]
                n_exec += 1
                busy_t += dur
                ovh_t += op[5]
                comp_t += op[6]
                mem_t += op[7]
                l1m += op[8]
                l2m += op[9]
                l3m += op[10]
                ktime[kernel] = ktime_get(kernel, 0.0) + dur
                ktasks[kernel] = ktasks_get(kernel, 0) + 1
                record_flow(tid, kernel, op[4], vals[op[1]], vals[node], it)
                if ttask is not None:
                    # Synthesized event: not re-simulated, but carries
                    # the exact anchored times/charges full simulation
                    # would produce for this iteration.
                    ttask(tid, kernel, op[4], vals[op[1]], vals[node],
                          it, op[5], op[6], op[7], op[8], op[9], op[10],
                          True)
            clock = vals[end_node] + barrier_cost
            iteration_times.append(clock - t0)
            if tracer is not None:
                # Machine state is at its fixed point during replay, so
                # barrier-interval samples legitimately repeat it.
                tracer.sample_machine(it, vals[end_node], self.cache,
                                      self.memory)
                tracer.barrier(it, t0, vals[end_node], clock,
                               synthesized=True)
            it += 1
        counters.tasks_executed = n_exec
        counters.busy_time = busy_t
        counters.overhead_time = ovh_t
        counters.compute_time = comp_t
        counters.memory_time = mem_t
        counters.l1_misses = l1m
        counters.l2_misses = l2m
        counters.l3_misses = l3m
        return it, clock


# ----------------------------------------------------------------------
class PhaseTable:
    """The BSP phases of one DAG at one core count, memoized on the DAG.

    ``phases`` is one ``(tids, cores, preds)`` triple of equal-length
    lists per phase: the phase's tasks in execution order, the core
    each runs on, and each task's predecessors inside the same phase
    (the shared ``()`` for most).  The table holds, and pickles as,
    columns ``(bounds, order, cores, pred_indptr, pred_indices)``:
    phase offsets into ``order`` (every tid, in phase order) and
    ``cores``, and the intra-phase predecessors as a CSR in the same
    order.  Only a BSP run reads the phases, so they are decoded at
    its first read, every tid the shared
    :func:`~repro.graph.dag.tid_ints` object, and the columns are then
    dropped (re-encoded if the table is pickled again).  Two threads
    decoding at once each get equal lists; the later one is kept.
    """

    __slots__ = ("_phases", "_columns")

    def __init__(self, columns):
        self._columns = columns
        self._phases = None

    __setstate__ = __init__

    @property
    def phases(self) -> list:
        phases = self._phases
        if phases is None:
            columns = self._columns
            if columns is None:         # another thread just decoded
                return self._phases
            bounds, order, cores, pred_indptr, pred_indices = columns
            tids = tid_ints(order.size)
            preds = _tuples(tids, pred_indices, pred_indptr)
            order = tids[order].tolist()
            cores = cores.tolist()
            b = bounds.tolist()
            phases = self._phases = [(order[p:q], cores[p:q], preds[p:q])
                                     for p, q in zip(b, b[1:])]
            self._columns = None
        return phases

    def __getstate__(self):
        if self._columns is not None:
            return self._columns
        phases = self._phases
        tids, cores, preds = zip(*phases) if phases else ((),) * 3
        bounds = np.zeros(len(tids) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, tids), np.int64, len(tids)),
                  out=bounds[1:])
        n = int(bounds[-1])
        pred_indptr, pred_indices = _csr(list(chain.from_iterable(preds)))
        return tuple(map(_smallest, (
            bounds, np.fromiter(chain.from_iterable(tids), np.int64, n),
            np.fromiter(chain.from_iterable(cores), np.int64, n),
            pred_indptr, pred_indices)))

    def __eq__(self, other):
        return isinstance(other, PhaseTable) and self.phases == other.phases

    __hash__ = None


def _bsp_phase_table(dag: TaskDAG, n_cores: int) -> PhaseTable:
    """Static chunk→core assignment of every BSP phase, memoized.

    The assignment is run-invariant — a pure function of the DAG's
    frozen view, its predecessors and the core count — so it is cached
    on the DAG under ``n_cores`` (and therefore persisted inside prep
    artifacts: a loaded DAG never recomputes it).  Phases are
    contiguous runs of equal ``task.seq`` in program order (the frozen
    ``phase_indptr``); each phase splits its row groups over the cores
    by count, so the chunk→core mapping shifts between phases with
    different group counts (the cross-kernel locality loss inherent to
    the fork-join model).
    """
    memo = dag._bsp_phases
    table = memo.get(n_cores)
    if table is None:
        table = memo[n_cores] = PhaseTable(_phase_columns(dag, n_cores))
    return table


def _bsp_phase_assignments(dag: TaskDAG, n_cores: int) -> list:
    """The ``phases`` of the DAG's :func:`_bsp_phase_table`."""
    return _bsp_phase_table(dag, n_cores).phases


def _phase_columns(dag: TaskDAG, n_cores: int) -> tuple:
    """:class:`PhaseTable` columns, over the frozen view in bulk."""
    soa = dag.freeze()
    n = soa.n_tasks
    i64 = np.int64
    bounds = soa.phase_indptr.astype(i64)
    counts = np.diff(bounds)
    phase = np.repeat(np.arange(counts.size), counts)
    tid = np.arange(n, dtype=i64)
    pi = soa.param_i.astype(i64)
    has_i = pi >= 0
    # Row-group order within each phase (``params["i"]``, then tid);
    # reduce tasks (no row index) sort last, which is also a
    # topological order of intra-phase edges.
    order = np.lexsort((tid, np.where(has_i, pi, 0), ~has_i, phase))
    # The parallel loop ranges over row blocks: all tasks of a row
    # group stay on one core (the inner column loop is serial), which
    # also preserves intra-phase dependence chains.  A group is a run
    # of equal ``params["i"]`` (the tid for a task without one) in
    # that order.  Library BSP phases split the groups statically by
    # row count; on matrices with skewed nonzero distributions the
    # heaviest chunk straggles and the barrier makes everyone wait —
    # the §1 load-imbalance cost of the BSP model.
    gi = np.where(has_i, pi, tid)[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(gi[1:], gi[:-1], out=new[1:])
    new[bounds[:-1]] = True
    group = np.cumsum(new) - 1
    first = group[bounds[:-1]]
    n_groups = np.diff(np.append(first, np.count_nonzero(new)))
    cores = ((group - np.repeat(first, counts)) * n_cores
             // np.repeat(n_groups, counts))
    # Intra-phase predecessors: the pred CSR entries whose two ends
    # share a phase, each task's in pred order, tasks in phase order.
    indptr, indices = dag.pred_csr()
    rows = np.repeat(tid, np.diff(indptr))
    same = phase[indices] == phase[rows]
    position = np.empty(n, dtype=i64)
    position[order] = tid
    rows = position[rows[same]]
    by_position = rows.argsort(kind="stable")
    pred_indptr = np.zeros(n + 1, dtype=i64)
    np.cumsum(np.bincount(rows, minlength=n), out=pred_indptr[1:])
    return tuple(map(_smallest, (bounds, order, cores, pred_indptr,
                                 indices[same][by_position])))


def run_bsp(
    machine: MachineSpec,
    dag: TaskDAG,
    iterations: int = 1,
    first_touch: bool = True,
    flavor: str = "bsp",
    barrier_cost: Optional[float] = None,
    loop_overhead: float = 0.05e-6,
    record_flow: bool = True,
    steady_state: Optional[bool] = None,
    tracer=None,
) -> RunResult:
    """Phase-parallel (fork-join) execution of the same DAG.

    Tasks are grouped by originating primitive call (``task.seq``);
    each group is one parallel region: tasks sorted by partition index
    are statically chunked over cores (MKL/OpenMP static schedule), a
    barrier closes the phase.  Dependence edges are honoured by
    construction because phases execute in program order.

    ``steady_state`` arms the same iteration fast path as
    :meth:`SimulationEngine.run`: once two consecutive iterations leave
    identical cache/NUMA state behind and produce identical per-task
    charge tapes, the remaining iterations re-run the (cheap) clock
    arithmetic against the taped charges instead of re-simulating the
    cache — the schedule here is static, so the replay *is* the full
    per-iteration computation minus the ``charge`` calls, and results
    are bit-identical by construction.

    ``record_flow`` keeps the per-task flow records, as in
    :meth:`SimulationEngine.run`; the flow summary is folded either way.
    """
    if barrier_cost is None:
        barrier_cost = _default_barrier_cost(machine.n_cores)
    cache = CacheHierarchy(machine)
    memory = MemoryModel(machine, first_touch=first_touch, scattered=True)
    memory.configure_from_dag(dag)
    if memory.n_parts is None:
        memory.n_parts = _max_partitions(dag)
    cost = CostModel(machine, cache, memory)
    cost.prepare(dag)
    counters = PerfCounters()
    flow = FlowGraph(keep=record_flow)
    n_cores = machine.n_cores
    kernels = dag.kernel_of()
    phases = _bsp_phase_assignments(dag, n_cores)

    charge = cost.charge
    frecord = flow.record
    if tracer is not None:
        tracer.begin_run(machine.name, flavor, n_cores, dag)
        cache.trace_hook = tracer._on_cache_access
    ttask = tracer.task if tracer is not None else None
    # Local counter accumulation (bit-exact: same adds, same order as
    # per-task ``record_task`` calls on the fresh counters object).
    n_exec = 0
    busy_t = ovh_t = comp_t = mem_t = 0.0
    l1m = l2m = l3m = 0
    ktime = counters.kernel_time
    ktasks = counters.kernel_tasks
    ktime_get = ktime.get
    ktasks_get = ktasks.get
    if steady_state is None:
        steady_state = _steady_state_enabled()
    armed = bool(steady_state) and iterations >= 4
    steady_state_at = None
    prev_fp = None
    prev_charges = None
    replay = None  # certified charge tape, once steady state is reached
    clock = 0.0
    iteration_times = []
    it = 0
    while it < iterations:
        t0 = clock
        charges = [] if armed else None
        tape_charge = charges.append if armed else None
        synthesized = replay is not None
        ci = 0
        for tids, cores, preds in phases:
            core_clock = [clock] * n_cores
            phase_end: dict = {}
            for tid, core, ps in zip(tids, cores, preds):
                # Intra-phase dependences (row chains stay on one core;
                # reduce tasks read partials from other cores) delay the
                # start beyond the core's own availability.  Each comes
                # earlier in the phase, so a missing end raises.
                start = core_clock[core]
                for p in ps:
                    e = phase_end[p]
                    if e > start:
                        start = e
                lo = loop_overhead
                if replay is not None:
                    dur, compute, memory_t, m1, m2, m3 = replay[ci]
                    ci += 1
                else:
                    dur, compute, memory_t, (m1, m2, m3) = charge(tid, core)
                    dur += lo
                    if tape_charge is not None:
                        tape_charge((dur, compute, memory_t, m1, m2, m3))
                end = start + dur
                kernel = kernels[tid]
                n_exec += 1
                busy_t += dur
                ovh_t += lo
                comp_t += compute
                mem_t += memory_t
                l1m += m1
                l2m += m2
                l3m += m3
                ktime[kernel] = ktime_get(kernel, 0.0) + dur
                ktasks[kernel] = ktasks_get(kernel, 0) + 1
                frecord(tid, kernel, core, start, end, it)
                if ttask is not None:
                    ttask(tid, kernel, core, start, end, it, lo, compute,
                          memory_t, m1, m2, m3, synthesized)
                core_clock[core] = end
                phase_end[tid] = end
            clock = max(core_clock) + barrier_cost
        iteration_times.append(clock - t0)
        if tracer is not None:
            # During replay the machine state is at its fixed point, so
            # barrier-interval samples legitimately repeat it.
            tracer.sample_machine(it, clock - barrier_cost, cache, memory)
            tracer.barrier(it, t0, clock - barrier_cost, clock,
                           synthesized=synthesized)
        it += 1
        if not armed:
            continue
        fp = _machine_state_fingerprint(cache)
        if prev_fp is not None and fp == prev_fp and charges == prev_charges:
            # Cache/NUMA state is at a fixed point and the last two
            # iterations charged identically: every remaining charge()
            # would return the taped values.  Replay the clock/counter
            # arithmetic (identical float ops, so bit-identical) with
            # the expensive cache simulation elided.
            steady_state_at = it
            replay = charges
            armed = False
            continue
        prev_fp = fp
        prev_charges = charges
    counters.tasks_executed = n_exec
    counters.busy_time = busy_t
    counters.overhead_time = ovh_t
    counters.compute_time = comp_t
    counters.memory_time = mem_t
    counters.l1_misses = l1m
    counters.l2_misses = l2m
    counters.l3_misses = l3m
    if tracer is not None:
        cache.trace_hook = None
    return RunResult(
        machine=machine.name,
        policy=flavor,
        total_time=clock,
        iteration_times=iteration_times,
        counters=counters,
        flow=flow,
        n_cores=n_cores,
        n_tasks_per_iteration=len(dag),
        steady_state_at=steady_state_at,
    )
