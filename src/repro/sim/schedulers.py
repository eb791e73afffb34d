"""Scheduling policies of the three AMT runtimes.

The engine is policy-agnostic; each scheduler implements the documented
(or empirically characterized) behaviour of one runtime:

* :class:`DeepSparseScheduler` — OpenMP tasking as DeepSparse drives
  it: the master thread spawns all tasks of an iteration in depth-first
  topological order (a small per-task spawn cost serializes releases),
  workers pull in roughly spawn order but prefer tasks whose producers
  they executed (the cache-aware stealing effect that yields pipelined
  execution).
* :class:`HPXScheduler` — future/dataflow readiness scheduling with
  per-NUMA-domain queues when NUMA-aware hints are on (§5.1 "Other
  Attempts": ≈50 % gain on EPYC), work stealing between domains, and
  the paper's observed "less value on prioritization of tasks launched
  earlier" (Fig. 13): picks are drawn from a window of the local queue
  rather than strictly from the front.
* :class:`RegentScheduler` — the Legion dependence-analysis pipeline:
  tasks become *visible* to workers only after a serial analysis stage
  has processed them (cheap for ``__demand(__index_launch)`` loops,
  expensive for individually-analyzed tasks), and a slice of cores is
  reserved for the runtime (``-ll:util``), shrinking the worker pool.
  Both effects together reproduce Regent's preference for coarse tasks
  and its 5–10× collapse past 64 block counts (§5.4).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.graph.dag import TaskDAG
from repro.machine.memory import MemoryModel
from repro.machine.topology import MachineSpec

__all__ = [
    "Scheduler",
    "DeepSparseScheduler",
    "HPXScheduler",
    "RegentScheduler",
]

#: Kernels Regent launches via __demand(__index_launch): a whole loop of
#: non-interfering tasks admitted with one analysis, per §3.3.
INDEX_LAUNCH_KERNELS = frozenset(
    {"XY", "XTY", "AXPY", "SCALE", "COPY", "ADD", "SUB", "DOT"}
)


def _domain_tables(dag, memory):
    """Per-task NUMA-domain tables over the frozen DAG view.

    Returns ``(first_write_dom, write_doms)`` — the home domain of each
    task's first write (``-1`` for write-less tasks) and the tuple of
    all its writes' domains.  The memory model adopts the DAG's
    interning first, as :meth:`repro.sim.cost.CostModel.prepare` does,
    so homes resolve over this DAG's handle ids.  The tables are a
    pure function of the DAG and the striping inputs, so they are
    cached on the DAG under :meth:`MemoryModel.placement_key`, and the
    homes come from the DAG's home-array memo the cost model fills
    (:meth:`MemoryModel.dag_home_arrays`): five runtimes scheduling
    the same memoized DAG, and the cost model pricing it, resolve
    every home once.  Schedulers read these tables and never a task
    list.
    """
    soa = dag.freeze()
    memory.adopt_interning(soa.id_to_key)
    key = memory.placement_key()
    store = dag._sched_domains
    tables = store.get(key)
    if tables is not None:
        return tables
    # Homes with a -1 sentinel last, so a write-less task's id -1
    # reads -1.
    homes = np.array(memory.dag_home_arrays(dag)[0] + [-1],
                     dtype=np.int64)
    first_write_dom = homes[soa.first_write_id].tolist()
    doms = homes[soa.write_ids].tolist()
    bounds = soa.write_indptr.tolist()
    write_doms = [tuple(doms[a:b]) for a, b in zip(bounds, bounds[1:])]
    # One tuple per distinct domain set (a handful per DAG), shared by
    # every task that has it; pickle keeps the sharing.
    share = {}.setdefault
    write_doms = list(map(share, write_doms, write_doms))
    tables = (first_write_dom, write_doms)
    store[key] = tables
    return tables


class _BoundedDraws:
    """Uniform draws from ``range(k)`` on a PCG64 raw stream.

    Bit-exact with ``np.random.default_rng(seed).integers(0, k)`` for
    ``1 <= k < 2**32`` when built on that generator's bit generator:
    numpy's rule is Lemire's multiply-shift with rejection on 32-bit
    words, each 64-bit raw output split low half first, then high half
    (the high half buffered for the next word), and no draw at all for
    ``k == 1``.  The rule lives here rather than behind
    ``Generator.integers`` for two reasons.  NumPy documents the bit
    generators' raw streams as stable across versions but makes no such
    promise for ``Generator.integers``, so with the rule in the repo
    the simulated numbers depend only on PCG64.  And a draw costs a
    third or less of a ``Generator.integers`` call, which HPX pays per
    task.
    """

    __slots__ = ("bit_generator", "_raw", "_half")

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self._raw = bit_generator.random_raw
        self._half = -1  # buffered high half of the last raw word

    def index(self, k: int) -> int:
        if k == 1:
            return 0
        threshold = (0x100000000 - k) % k
        while True:
            word = self._half
            if word < 0:
                raw = self._raw()
                self._half = raw >> 32
                word = raw & 0xFFFFFFFF
            else:
                self._half = -1
            m = word * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def position(self) -> tuple:
        """Hashable stream position: bit generator state and buffer."""
        state = self.bit_generator.state
        return (repr(sorted(state.items(), key=lambda kv: kv[0])),
                self._half)


class Scheduler:
    """Base policy: global FIFO, no release serialization, no overhead."""

    name = "base"

    def __init__(self, overhead_per_task: float = 0.0):
        #: Runtime overhead charged on the executing core for every
        #: task; the engine reads it once per iteration.
        self.overhead_per_task = overhead_per_task
        self.machine: Optional[MachineSpec] = None
        self._queue = deque()
        #: Observability hook (``repro.trace``): set by the engine for
        #: the duration of a traced run.  Policies emit queue-depth
        #: samples after every enqueue/dequeue plus steal/poll events;
        #: emission is strictly observational (never reads back), so
        #: scheduling decisions — including every RNG draw — are
        #: identical with tracing on or off.  Deliberately *not* part
        #: of :meth:`state_fingerprint`.
        self.tracer = None

    # -- lifecycle ------------------------------------------------------
    def prepare(
        self,
        dag: TaskDAG,
        machine: MachineSpec,
        memory: MemoryModel,
        seed: int = 0,
    ) -> None:
        """Bind to one DAG and machine before a run.

        Policies that place work by NUMA home read the DAG's domain
        tables here (:func:`_domain_tables`); none keeps the DAG or the
        memory model past ``prepare``.
        """
        self.machine = machine
        self.rng = np.random.default_rng(seed)
        self._queue = deque()

    def reset_iteration(self, iteration: int, iter_start: float) -> None:
        """Called at each iteration boundary (barrier)."""

    def state_fingerprint(self):
        """Hashable snapshot of every piece of policy state that can
        influence future scheduling decisions, or ``None`` to opt out
        of the engine's steady-state fast path.

        The engine compares fingerprints taken at consecutive
        iteration barriers; equality (together with identical
        per-iteration charge tapes) certifies that every remaining
        iteration would replay the same schedule, so it stops
        simulating and replays the tape instead
        (:meth:`repro.sim.engine.SimulationEngine.run`).

        The base implementation only knows about the base class's
        FIFO queue, so it *refuses to guess* for subclasses: any
        scheduler that adds mutable state must override this (as all
        built-ins do) or it is conservatively excluded from the fast
        path.  Stochastic policies include their RNG state — which
        advances every iteration, so they simply never reach a
        fingerprint fixed point and always simulate in full.
        """
        if type(self) is not Scheduler:
            return None
        return (tuple(self._queue),)

    # -- policy surface ---------------------------------------------------
    def release_time(self, tid: int, iter_start: float) -> float:
        """Earliest time the runtime itself can hand this task to a worker."""
        return iter_start

    def allowed(self, core: int) -> bool:
        """Whether this core executes application tasks."""
        return True

    def on_ready(self, tid: int, time: float, enabler_core=None) -> None:
        """A task became runnable; ``enabler_core`` is the core whose
        completion satisfied its last dependence (None for sources)."""
        self._queue.append(tid)
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, len(self._queue))

    def pick(self, core: int, time: float) -> Optional[int]:
        tr = self.tracer
        if not self.allowed(core) or not self._queue:
            if tr is not None:
                tr.poll(time, core)
            return None
        tid = self._queue.popleft()
        if tr is not None:
            tr.queue_depth(time, len(self._queue))
        return tid

    def has_ready(self) -> bool:
        return bool(self._queue)


class DeepSparseScheduler(Scheduler):
    """OpenMP tasking: per-core LIFO deques with work stealing.

    The LLVM/libomp behaviour DeepSparse rides on: a task enabled by a
    completion is pushed on the completing thread's own deque and
    popped LIFO (depth-first) — so a thread that just produced a chunk
    immediately runs the consumer of that chunk.  This continuation
    locality is the mechanism behind the pipelined execution flow of
    Figs. 10/13.  Idle threads steal the *oldest* task from the victim
    with the fullest deque; master-spawned (source) tasks enter a
    shared FIFO in DeepSparse's depth-first topological spawn order.
    """

    name = "deepsparse"

    def __init__(
        self,
        overhead_per_task: float = 0.35e-6,
        spawn_cost: float = 0.15e-6,
    ):
        super().__init__(overhead_per_task)
        self.spawn_cost = spawn_cost

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        self._deques: List[deque] = [deque() for _ in range(machine.n_cores)]
        self._shared = deque()
        self._n_ready = 0
        # Precomputed write-home domains for the shared-queue NUMA
        # scan (see _domain_tables).
        self._write_doms = _domain_tables(dag, memory)[1]

    def state_fingerprint(self):
        # Deques + shared FIFO are the complete policy state (picks
        # depend on nothing else); all empty at a barrier in practice.
        return (
            tuple(tuple(d) for d in self._deques),
            tuple(self._shared),
            self._n_ready,
        )

    def release_time(self, tid: int, iter_start: float) -> float:
        # Master thread spawns tasks serially in program (tid) order.
        return iter_start + (tid + 1) * self.spawn_cost

    def on_ready(self, tid, time, enabler_core=None):
        if enabler_core is None:
            self._shared.append(tid)
        else:
            self._deques[enabler_core].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    #: shared-queue scan depth for domain-local work: DeepSparse's
    #: depth-first spawn order plus bound threads gives OpenMP tasking
    #: de-facto locality on the spawn queue (DeepSparse's design goal).
    numa_window = 8

    def pick(self, core, time):
        tr = self.tracer
        if self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        own = self._deques[core]
        if own:
            self._n_ready -= 1
            tid = own.pop()  # LIFO: depth-first continuation
            if tr is not None:
                tr.queue_depth(time, self._n_ready)
            return tid
        if self._shared:
            self._n_ready -= 1
            shared = self._shared
            dom = self.machine.domain_of_core(core)
            limit = min(len(shared), self.numa_window)
            hit = -1
            wdoms = self._write_doms
            # The first task in the window that writes a handle homed
            # on this core's domain.
            for idx in range(limit):
                if dom in wdoms[shared[idx]]:
                    hit = idx
                    break
            if hit >= 0:
                tid = shared[hit]
                del shared[hit]
            else:
                tid = shared.popleft()
            if tr is not None:
                tr.queue_depth(time, self._n_ready)
            return tid
        victim = max(self._deques, key=len)
        if victim:
            self._n_ready -= 1
            tid = victim.popleft()  # steal the oldest
            if tr is not None:
                # Identity lookup: ``list.index`` compares deques by
                # value, and the drained victim would alias any other
                # empty lane.
                vidx = next(i for i, d in enumerate(self._deques)
                            if d is victim)
                tr.steal(time, core, vidx, tid)
                tr.queue_depth(time, self._n_ready)
            return tid
        if tr is not None:
            tr.poll(time, core)
        return None

    def has_ready(self):
        return self._n_ready > 0


class HPXScheduler(Scheduler):
    """HPX future/dataflow scheduling with optional NUMA-aware queues."""

    name = "hpx"

    def __init__(
        self,
        overhead_per_task: float = 0.55e-6,
        spawn_cost: float = 0.25e-6,
        numa_aware: bool = True,
        shuffle_window: int = 8,
    ):
        super().__init__(overhead_per_task)
        self.spawn_cost = spawn_cost
        self.numa_aware = numa_aware
        self.shuffle_window = shuffle_window

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        self._draws = _BoundedDraws(self.rng.bit_generator)
        n_dom = machine.n_numa_domains if self.numa_aware else 1
        self._queues: List[List[int]] = [[] for _ in range(n_dom)]
        self._n_ready = 0
        # Per-task hint domains (first write's home) for on_ready;
        # without NUMA hints every task goes to the one queue.
        if self.numa_aware:
            self._task_dom = [
                d % n_dom if d >= 0 else 0
                for d in _domain_tables(dag, memory)[0]
            ]
        else:
            self._task_dom = None

    def release_time(self, tid: int, iter_start: float) -> float:
        # The main thread builds the dataflow tree serially each iteration.
        return iter_start + (tid + 1) * self.spawn_cost

    def on_ready(self, tid, time, enabler_core=None):
        table = self._task_dom
        dom = table[tid] if table is not None else 0
        self._queues[dom].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    def state_fingerprint(self):
        # Window picks draw from the RNG, so the stream position is
        # scheduling state.  It advances every iteration — HPX never
        # reaches a fingerprint fixed point, i.e. it always simulates
        # every iteration in full (the honest outcome for a policy
        # whose schedule genuinely differs between iterations).
        return (
            tuple(tuple(q) for q in self._queues),
            self._n_ready,
            self._draws.position(),
        )

    def pick(self, core, time):
        tr = self.tracer
        if self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        if self.numa_aware:
            dom = self.machine.domain_of_core(core) % len(self._queues)
        else:
            dom = 0
        q = self._queues[dom]
        if not q:
            # Work stealing: raid the longest other queue from the back.
            q = max(self._queues, key=len)
            if not q:
                if tr is not None:
                    tr.poll(time, core)
                return None
            self._n_ready -= 1
            tid = q.pop()
            if tr is not None:
                # Victim is a *domain* queue index (HPX queues are
                # per-domain, not per-core); identity lookup because
                # a drained queue compares equal to any empty one.
                vidx = next(i for i, d in enumerate(self._queues)
                            if d is q)
                tr.steal(time, core, vidx, tid)
                tr.queue_depth(time, self._n_ready)
            return tid
        # HPX places "less value on prioritization of tasks launched
        # earlier": draw from a small window at the front.
        idx = self._draws.index(min(len(q), self.shuffle_window))
        self._n_ready -= 1
        tid = q.pop(idx)
        if tr is not None:
            tr.queue_depth(time, self._n_ready)
        return tid

    def has_ready(self):
        return self._n_ready > 0


class RegentScheduler(Scheduler):
    """Legion/Regent: serial dependence analysis + reserved util cores."""

    name = "regent"

    def __init__(
        self,
        overhead_per_task: float = 0.8e-6,
        analysis_cost: float = 15.0e-6,
        index_launch_cost: float = 0.25e-6,
        util_fraction: float = 0.14,
        dynamic_tracing: bool = False,
        replay_cost: float = 0.3e-6,
    ):
        super().__init__(overhead_per_task)
        self.analysis_cost = analysis_cost
        self.index_launch_cost = index_launch_cost
        self.util_fraction = util_fraction
        #: §5.1 "Other Attempts": dynamic tracing (Lee et al. 2018)
        #: captures the task graph in the first iteration and replays
        #: it through memoization afterwards, skipping the dependence
        #: analysis.  The paper found no significant improvement — the
        #: analysis pipeline overlaps execution, so only analysis-bound
        #: configurations benefit.
        self.dynamic_tracing = dynamic_tracing
        self.replay_cost = replay_cost
        self._iteration = 0

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        # -ll:util split: paper uses 4/28 on Broadwell, 18/128 on EPYC.
        self.n_util = max(1, int(round(machine.n_cores * self.util_fraction)))
        self.n_workers = machine.n_cores - self.n_util
        # Serial analysis pipeline: prefix-sum of per-task analysis cost
        # in program order gives each task's visibility time.  The
        # per-task cost is selected by indexing a tiny per-kernel table
        # with the frozen DAG's interned kernel codes.
        soa = dag.freeze()
        kernel_cost = np.fromiter(
            (
                self.index_launch_cost
                if k in INDEX_LAUNCH_KERNELS
                else self.analysis_cost
                for k in soa.kernel_names
            ),
            dtype=np.float64,
            count=len(soa.kernel_names),
        )
        costs = kernel_cost[soa.kernel_codes]
        # Python floats: ``release_time`` makes no NumPy scalar per call.
        self._visible = np.cumsum(costs).tolist()
        self._visible_replay = np.cumsum(
            np.full(len(dag), self.replay_cost)
        ).tolist()
        self._iteration = 0
        # Legion's default mapper places point tasks statically by
        # partition index (no work stealing); per-worker queues model
        # that, with a light overflow raid so starvation shows up as
        # idle time rather than artificial deadlock.  Homes come from
        # the frozen param-i table: tasks without a row index go
        # round-robin, the rest to the worker owning their partition.
        n_parts = max(1, dag.n_partitions or 1)
        pi = soa.param_i.astype(np.int64)
        nw = self.n_workers
        self._home = np.where(
            pi < 0,
            np.arange(soa.n_tasks, dtype=np.int64) % nw,
            np.minimum(nw - 1, pi * nw // n_parts),
        ).tolist()
        self._worker_q: List[deque] = [deque()
                                       for _ in range(self.n_workers)]
        self._n_ready = 0

    def reset_iteration(self, iteration: int, iter_start: float) -> None:
        self._iteration = iteration

    def state_fingerprint(self):
        # ``_iteration`` only influences behaviour through the
        # tracing-replay switch, so fingerprint the *switch*, not the
        # counter (the counter always differs between iterations).
        return (
            bool(self.dynamic_tracing and self._iteration > 0),
            tuple(tuple(q) for q in self._worker_q),
            self._n_ready,
        )

    def release_time(self, tid: int, iter_start: float) -> float:
        if self.dynamic_tracing and self._iteration > 0:
            return iter_start + self._visible_replay[tid]
        return iter_start + self._visible[tid]

    def allowed(self, core: int) -> bool:
        # The last n_util cores belong to the runtime.
        return core < self.n_workers

    def on_ready(self, tid, time, enabler_core=None):
        self._worker_q[self._home[tid]].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    def pick(self, core, time):
        tr = self.tracer
        if not self.allowed(core) or self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        q = self._worker_q[core]
        raided = False
        if not q:
            q = max(self._worker_q, key=len)
            if not q:
                if tr is not None:
                    tr.poll(time, core)
                return None
            raided = True
        self._n_ready -= 1
        tid = q.popleft()
        if tr is not None:
            if raided:
                vidx = next(i for i, d in enumerate(self._worker_q)
                            if d is q)
                tr.steal(time, core, vidx, tid)
            tr.queue_depth(time, self._n_ready)
        return tid

    def has_ready(self):
        return self._n_ready > 0
