"""The task dependency graph container.

Stores tasks and their precedence edges, provides the structural
queries every runtime needs — deterministic topological orders, the
critical path, per-level width — and validation used by tests and by
runtimes that want to assert a schedule is legal before trusting its
timing.

Two representations coexist:

* the **mutable build view** — ``tasks`` plus ``succ``/``pred``
  list-of-lists, which is what :class:`~repro.graph.builder.DAGBuilder`
  appends into and what the event engine's inner loop iterates (Python
  lists of small ints beat NumPy scalar iteration there);
* the **frozen structure-of-arrays view** (:class:`GraphArrays`, built
  once by :meth:`TaskDAG.freeze`) — CSR-style successor/predecessor
  index arrays, dense interned operand-id tables with per-task
  read/write/touch spans, kernel codes, and cached indegrees.  The
  vectorized analyses (levels, critical path), the cost model's access
  -plan compiler, and the scheduler ``prepare`` paths all consume these
  flat arrays instead of re-deriving interning and adjacency per
  engine instance — and the cross-cell prep store persists them
  (:mod:`repro.bench.prep`).

Any mutation (``add_task``/``add_edge``) invalidates the frozen view;
``freeze`` rebuilds it on demand.  Both views answer every query with
bit-identical results — pinned by ``tests/test_property_dag.py``
against the retained reference implementations in
:mod:`repro.graph.analyze`.

A DAG built for a prep artifact carries a rebuild **recipe**: a
picklable zero-argument callable (a ``functools.partial`` over
:func:`repro.analysis.experiment._rebuild_dag`) that builds the same
graph afresh.  The DAG builder expands a solver trace into tasks
deterministically, so the recipe stands in for the ``Task`` list:
pickling a frozen DAG that has one leaves the list out.  A loaded DAG
rebuilds its list on the first ``dag.tasks``, checks the rebuilt
frozen arrays against its own, and adopts the list.  The simulation
run path never asks: the engines, the cost model and the schedulers
price and schedule by tid off the frozen view, the compiled plans and
:meth:`TaskDAG.kernel_of`, so a loaded prep artifact runs without ever
building its ``Task`` objects.  Trace and Gantt export, the threaded
runtime, analysis code and :meth:`TaskDAG.add_task` rebuild.  A DAG
without a recipe (hand-built in tests) pickles its list the plain way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.graph.task import Task

__all__ = ["GraphArrays", "TaskDAG"]

#: Serializes first rebuilds of a loaded task list: service threads
#: share loaded DAGs, and every reader must see the same ``Task`` objects.
_REBUILD_LOCK = threading.Lock()

#: Frozen fields a rebuilt DAG must reproduce before a loaded DAG adopts
#: its task list.
_RECIPE_CHECKS = ("n_tasks", "n_edges", "kernel_names", "kernel_codes",
                  "touch_ids", "touch_nbytes", "succ_indptr",
                  "succ_indices")


@dataclass
class GraphArrays:
    """Frozen structure-of-arrays view of one :class:`TaskDAG`.

    All index arrays are NumPy; ``*_indptr`` arrays have length
    ``n_tasks + 1`` and delimit per-task spans in the matching flat
    array (CSR convention).  Operand ids are the DAG's handle
    interning (:meth:`TaskDAG.handle_interning`): dense small ints in
    first-appearance order, resolved back to ``(name, part)`` by
    ``id_to_key``.
    """

    n_tasks: int
    n_edges: int
    # -- adjacency (CSR) ------------------------------------------------
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    indegree: np.ndarray
    # -- interned operand tables ---------------------------------------
    id_to_key: list            # id -> (name, part)
    id_name: list              # id -> name
    id_part: list              # id -> part (None for unpartitioned)
    read_indptr: np.ndarray    # per-task reads, in reads order
    read_ids: np.ndarray
    write_indptr: np.ndarray   # per-task writes, in writes order
    write_ids: np.ndarray
    # -- per-task touch table (Task.touched() order, deduplicated) -----
    touch_indptr: np.ndarray
    touch_ids: np.ndarray
    touch_nbytes: np.ndarray   # first-kept handle's nbytes (dedup rule)
    touch_is_write: np.ndarray
    # -- scalar per-task attributes ------------------------------------
    kernel_names: list         # kernel interning, first-appearance order
    kernel_codes: np.ndarray   # per-task index into kernel_names
    param_i: np.ndarray        # params["i"] or -1
    first_write_id: np.ndarray  # interned id of writes[0], -1 if none
    #: highest partition index + 1 over every handle (NUMA geometry)
    max_part: int


class TaskDAG:
    """A DAG of :class:`~repro.graph.task.Task` nodes.

    Edges mean "must complete before".  Tasks get dense ids in
    insertion order, which for DAGs built by the
    :class:`~repro.graph.builder.DAGBuilder` coincides with the
    depth-first program order DeepSparse spawns tasks in.

    ``tasks`` of a DAG that came out of a pickle without its list is
    rebuilt from ``recipe`` on first use (see the module docstring);
    ``len``, ``sources``, ``in_degrees``, ``handle_interning``,
    ``by_kernel`` and :meth:`kernel_of` of a frozen DAG answer without
    rebuilding.  Any mutation drops the recipe along with the frozen
    view: it no longer describes the graph.

    ``_cost_prep``, ``_home_arrays``, ``_sched_domains`` and
    ``_bsp_phases`` are the run invariants the cost model, the
    schedulers and BSP memoize on the DAG (and a prep artifact
    persists), keyed by their pricing/placement inputs.
    """

    def __init__(self):
        self._tasks: Optional[List[Task]] = []
        #: Zero-argument callable that builds this graph afresh, or None.
        self.recipe: Optional[Callable[[], "TaskDAG"]] = None
        self.succ: List[List[int]] = []
        self.pred: List[List[int]] = []
        self._edge_set = set()
        self._handle_intern = None
        self._soa: Optional[GraphArrays] = None
        self._kernel_of: Optional[List[str]] = None
        self._cost_prep: dict = {}
        self._home_arrays: dict = {}
        self._sched_domains: dict = {}
        self._bsp_phases: dict = {}

    @property
    def tasks(self) -> List[Task]:
        """The task list, rebuilt from the recipe on first use."""
        tasks = self._tasks
        if tasks is None:
            with _REBUILD_LOCK:
                tasks = self._tasks
                if tasks is None:
                    tasks = self._rebuilt_tasks()
                    self._tasks = tasks
        return tasks

    def _rebuilt_tasks(self) -> List[Task]:
        """Build the graph afresh; its list, if it matches this DAG.

        A recipe that no longer reproduces the persisted arrays (the
        builder changed, the artifact layout did not) fails closed
        rather than hand out tasks that disagree with the plans.
        """
        fresh = self.recipe()
        ours, theirs = self._soa, fresh.freeze()
        for name in _RECIPE_CHECKS:
            if not np.array_equal(getattr(ours, name),
                                  getattr(theirs, name)):
                raise RuntimeError(
                    f"rebuilt DAG differs from the loaded one in {name}: "
                    "the prep artifact's recipe no longer reproduces its "
                    "task list; bump PREP_FORMAT in repro.bench.prep and "
                    "run `repro prep gc`")
        return fresh.tasks

    def kernel_of(self) -> List[str]:
        """Kernel name of every task, by tid (derived, never pickled).

        Read off the frozen ``kernel_names``/``kernel_codes`` tables,
        so the engines' per-task kernel lookups never touch a ``Task``.
        """
        kernels = self._kernel_of
        if kernels is None:
            soa = self.freeze()
            names = soa.kernel_names
            kernels = [names[c] for c in soa.kernel_codes.tolist()]
            self._kernel_of = kernels
        return kernels

    # ------------------------------------------------------------------
    def handle_interning(self):
        """Intern every operand handle key to a dense small int.

        Returns ``(key_to_id, id_to_key)`` where ``key_to_id`` maps
        ``(name, part)`` tuples to ids assigned in first-appearance
        order over tasks (tid order) and their ``reads + writes``
        handles, and ``id_to_key`` is the inverse list.  The numbering
        is a pure function of the DAG, so every engine/cost-model/
        memory-model instance that executes this DAG agrees on the ids
        — which is what lets the cost model stash int-keyed pricing
        invariants on the DAG and share them across runs.

        Int keys hash ~2x faster than ``(str, int)`` tuples, and they
        are what the innermost structures (LRU dicts, coherence directory,
        NUMA memos) key on during simulation.  The memo is invalidated
        if tasks were appended after interning.
        """
        memo = self._handle_intern
        if memo is not None and memo[2] == len(self):
            return memo[0], memo[1]
        key_to_id = {}
        id_to_key = []
        for t in self.tasks:
            for h in t.reads + t.writes:
                k = (h.name, h.part)
                if k not in key_to_id:
                    key_to_id[k] = len(id_to_key)
                    id_to_key.append(k)
        self._handle_intern = (key_to_id, id_to_key, len(self.tasks))
        return key_to_id, id_to_key

    # ------------------------------------------------------------------
    def freeze(self) -> GraphArrays:
        """Build (or return) the structure-of-arrays view of the graph.

        Idempotent and cached; any later :meth:`add_task` /
        :meth:`add_edge` invalidates the cache and the next ``freeze``
        rebuilds.  The arrays are a pure function of the DAG — two
        processes freezing the same graph produce identical tables,
        which is what lets the prep store persist them.
        """
        soa = self._soa
        if soa is not None:
            return soa
        tasks = self.tasks
        n = len(tasks)
        key_to_id, id_to_key = self.handle_interning()

        def _csr(adj, count):
            indptr = np.zeros(n + 1, dtype=np.int64)
            if n:
                np.cumsum([len(a) for a in adj], out=indptr[1:])
            indices = np.fromiter(
                (v for a in adj for v in a), dtype=np.int32, count=count
            )
            return indptr, indices

        n_edges = self.n_edges
        succ_indptr, succ_indices = _csr(self.succ, n_edges)
        pred_indptr, pred_indices = _csr(self.pred, n_edges)
        indegree = np.diff(pred_indptr).astype(np.int32)

        read_counts = np.zeros(n, dtype=np.int64)
        write_counts = np.zeros(n, dtype=np.int64)
        touch_counts = np.zeros(n, dtype=np.int64)
        read_ids: List[int] = []
        write_ids: List[int] = []
        touch_ids: List[int] = []
        touch_nbytes: List[int] = []
        touch_is_write: List[bool] = []
        kernel_code = {}
        kernel_names: List[str] = []
        kernel_codes = np.zeros(n, dtype=np.int32)
        param_i = np.full(n, -1, dtype=np.int64)
        first_write = np.full(n, -1, dtype=np.int32)
        max_part = 0
        for tid, t in enumerate(tasks):
            code = kernel_code.get(t.kernel)
            if code is None:
                code = kernel_code[t.kernel] = len(kernel_names)
                kernel_names.append(t.kernel)
            kernel_codes[tid] = code
            i = t.params.get("i")
            if i is not None:
                param_i[tid] = int(i)
            for h in t.reads:
                read_ids.append(key_to_id[(h.name, h.part)])
            read_counts[tid] = len(t.reads)
            wkeys = set()
            for h in t.writes:
                k = (h.name, h.part)
                write_ids.append(key_to_id[k])
                wkeys.add(k)
            write_counts[tid] = len(t.writes)
            if t.writes:
                first_write[tid] = write_ids[-len(t.writes)]
            # Touch table: reads then writes, first occurrence kept —
            # exactly Task.touched(), including its nbytes-of-the-
            # first-kept-handle dedup rule.
            seen = {}
            for h in t.reads + t.writes:
                k = (h.name, h.part)
                if k not in seen:
                    seen[k] = h
                if h.part is not None and h.part >= max_part:
                    max_part = h.part + 1
            touch_counts[tid] = len(seen)
            for k, h in seen.items():
                touch_ids.append(key_to_id[k])
                touch_nbytes.append(h.nbytes)
                touch_is_write.append(k in wkeys)

        def _spans(counts, values, dtype=np.int32):
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return indptr, np.asarray(values, dtype=dtype).reshape(-1)

        read_indptr, read_arr = _spans(read_counts, read_ids)
        write_indptr, write_arr = _spans(write_counts, write_ids)
        touch_indptr, touch_arr = _spans(touch_counts, touch_ids)
        soa = GraphArrays(
            n_tasks=n,
            n_edges=n_edges,
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
            pred_indptr=pred_indptr,
            pred_indices=pred_indices,
            indegree=indegree,
            id_to_key=id_to_key,
            id_name=[k[0] for k in id_to_key],
            id_part=[k[1] for k in id_to_key],
            read_indptr=read_indptr,
            read_ids=read_arr,
            write_indptr=write_indptr,
            write_ids=write_arr,
            touch_indptr=touch_indptr,
            touch_ids=touch_arr,
            touch_nbytes=np.asarray(touch_nbytes, dtype=np.int64)
            .reshape(-1),
            touch_is_write=np.asarray(touch_is_write, dtype=bool)
            .reshape(-1),
            kernel_names=kernel_names,
            kernel_codes=kernel_codes,
            param_i=param_i,
            first_write_id=first_write,
            max_part=max_part,
        )
        self._soa = soa
        return soa

    @property
    def frozen(self) -> bool:
        return self._soa is not None

    def _invalidate(self) -> None:
        self._soa = None
        self._kernel_of = None
        self.recipe = None

    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> int:
        """Insert a task; assigns and returns its dense id."""
        tasks = self.tasks
        tid = len(tasks)
        task.tid = tid
        tasks.append(task)
        self.succ.append([])
        self.pred.append([])
        if self._soa is not None:
            self._invalidate()
        return tid

    def add_edge(self, u: int, v: int) -> None:
        """Add precedence ``u before v``; duplicate and self edges are no-ops."""
        if u == v:
            return
        n_tasks = len(self.succ)
        if not (0 <= u < n_tasks and 0 <= v < n_tasks):
            raise IndexError(f"edge ({u}, {v}) references unknown task")
        es = self._edge_pairs()
        n = len(es)
        es.add((u, v))
        if len(es) == n:  # duplicate: one hash probe, not two
            return
        self.succ[u].append(v)
        self.pred[v].append(u)
        if self._soa is not None:
            self._invalidate()

    def _edge_pairs(self) -> set:
        """The ``(u, v)`` edge set, rebuilt from adjacency if dropped.

        Pickling discards the set (it is pure dedup/validation state,
        fully derivable from ``succ``) to keep persisted prep artifacts
        small and fast to load.
        """
        es = self._edge_set
        if es is None:
            es = {(u, v) for u, vs in enumerate(self.succ) for v in vs}
            self._edge_set = es
        return es

    def __getstate__(self):
        """Leave the task list out of a frozen DAG that has a recipe."""
        state = self.__dict__.copy()
        state["_edge_set"] = None
        state["_kernel_of"] = None
        if self.recipe is not None and self._soa is not None:
            state["_tasks"] = None
        return state

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # One adjacency list per task, built or loaded: never rebuilds.
        return len(self.succ)

    @property
    def n_edges(self) -> int:
        soa = self._soa
        if soa is not None:
            return soa.n_edges
        return len(self._edge_pairs())

    def sources(self) -> List[int]:
        """Tasks with no predecessors (ready at time zero)."""
        soa = self._soa
        if soa is not None:
            return np.flatnonzero(soa.indegree == 0).tolist()
        return [tid for tid, p in enumerate(self.pred) if not p]

    def in_degrees(self) -> List[int]:
        soa = self._soa
        if soa is not None:
            return soa.indegree.tolist()
        return [len(p) for p in self.pred]

    # ------------------------------------------------------------------
    def topo_order(self) -> List[int]:
        """Kahn's algorithm with smallest-id tie-break (deterministic).

        Raises ``ValueError`` if the graph has a cycle — which would
        mean the dependence analysis is broken, so this doubles as the
        validation entry point.
        """
        import heapq

        indeg = self.in_degrees()
        heap = [i for i, d in enumerate(indeg) if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in self.succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, v)
        if len(order) != len(self):
            raise ValueError(
                f"task graph has a cycle: only {len(order)} of "
                f"{len(self)} tasks are orderable"
            )
        return order

    def validate(self) -> None:
        """Raise if the graph is not a DAG."""
        self.topo_order()

    def check_schedule(self, order: Iterable[int]) -> None:
        """Raise ``ValueError`` if ``order`` violates any dependence.

        ``order`` must be a permutation of all task ids.
        """
        pos = {}
        for rank, tid in enumerate(order):
            if tid in pos:
                raise ValueError(f"task {tid} executed twice")
            pos[tid] = rank
        if len(pos) != len(self):
            raise ValueError(
                f"schedule covers {len(pos)} of {len(self)} tasks"
            )
        for (u, v) in self._edge_pairs():
            if pos[u] > pos[v]:
                raise ValueError(
                    f"dependence violated: task {u} must precede task {v}"
                )

    # ------------------------------------------------------------------
    def _peel_rounds(self) -> List[np.ndarray]:
        """Kahn peeling rounds over the frozen CSR arrays.

        Round *r* holds exactly the tasks whose every predecessor sits
        in an earlier round, i.e. the tasks at ASAP level *r* — so the
        rounds drive both :meth:`levels` and :meth:`critical_path`:
        when a round is processed, every value feeding its nodes is
        final.  Raises on cycles (some task never reaches indegree 0).
        """
        soa = self.freeze()
        indeg = soa.indegree.copy()
        indptr, indices = soa.succ_indptr, soa.succ_indices
        frontier = np.flatnonzero(indeg == 0)
        rounds = []
        seen = 0
        while frontier.size:
            rounds.append(frontier)
            seen += frontier.size
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Flat CSR gather of every outgoing edge of the frontier.
            cum = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cum - counts), counts
            )
            targets = indices[idx]
            np.subtract.at(indeg, targets, 1)
            frontier = np.unique(targets[indeg[targets] == 0])
        if seen != soa.n_tasks:
            raise ValueError(
                f"task graph has a cycle: only {seen} of "
                f"{soa.n_tasks} tasks are orderable"
            )
        return rounds

    def critical_path(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> float:
        """Longest path through the DAG.

        With the default unit weight this is the paper's critical-path
        *length* (5 for Lanczos, 29 for LOBPCG per iteration at the
        function-call level); with ``weight=lambda t: t.flops`` it is
        the work-weighted span.

        Vectorized over the frozen arrays: per peel round, each node's
        incoming maximum is final, so one ``np.maximum.at`` scatter per
        round propagates the whole level.  ``max`` is an exact float
        selection and each node's single addition is the same
        ``dist[u] + weight(u)`` the reference performs, so the result
        is bit-identical to :func:`repro.graph.analyze.
        critical_path_reference`.
        """
        n = len(self)
        if n == 0:
            return 0.0
        soa = self.freeze()
        if weight is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.fromiter(
                (weight(t) for t in self.tasks), dtype=np.float64, count=n
            )
        dist = np.zeros(n, dtype=np.float64)
        indptr, indices = soa.succ_indptr, soa.succ_indices
        for frontier in self._peel_rounds():
            du = dist[frontier] + w[frontier]
            dist[frontier] = du
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                continue
            cum = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cum - counts), counts
            )
            np.maximum.at(dist, indices[idx], np.repeat(du, counts))
        return float(dist.max())

    def levels(self) -> List[int]:
        """ASAP level of each task (longest unit-edge distance from a source).

        A task's level is its peel round (all predecessors peeled in
        earlier rounds), computed by the same frontier propagation as
        :meth:`critical_path`; bit-identical to
        :func:`repro.graph.analyze.levels_reference`.
        """
        n = len(self)
        lvl = np.zeros(n, dtype=np.int64)
        for r, frontier in enumerate(self._peel_rounds()):
            lvl[frontier] = r
        return lvl.tolist()

    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks)

    def by_kernel(self) -> dict:
        """Task counts per kernel name (census used in logs and tests).

        In first-appearance order; a frozen DAG counts its kernel codes
        (``kernel_names`` is already in that order) without rebuilding.
        """
        soa = self._soa
        if soa is not None:
            counts = np.bincount(soa.kernel_codes,
                                 minlength=len(soa.kernel_names))
            return dict(zip(soa.kernel_names, counts.tolist()))
        out = {}
        for t in self.tasks:
            out[t.kernel] = out.get(t.kernel, 0) + 1
        return out

    def __repr__(self):
        return (
            f"TaskDAG({len(self)} tasks, {self.n_edges} edges, "
            f"kernels={self.by_kernel()})"
        )
