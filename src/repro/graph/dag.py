"""The task dependency graph container.

Stores tasks and their precedence edges, provides the structural
queries every runtime needs — deterministic topological orders, the
critical path, per-level width — and validation used by tests and by
runtimes that want to assert a schedule is legal before trusting its
timing.

Two representations coexist:

* the **mutable build view** — ``tasks`` plus ``succ``/``pred``
  list-of-lists, which is what the event engine's inner loop iterates
  (Python lists of small ints beat NumPy scalar iteration there).
  :class:`~repro.graph.builder.DAGBuilder` appends each task with its
  whole, already deduplicated predecessor list; :meth:`TaskDAG.add_edge`
  adds one edge at a time.  The ``(u, v)`` edge set that deduplicates
  ``add_edge`` is derived from ``succ`` on demand, so a built or
  loaded DAG carries none;
* the **frozen structure-of-arrays view** (:class:`GraphArrays`) —
  CSR-style successor index arrays, indegrees, dense interned
  operand-id tables with per-task write/touch spans, kernel codes and
  the SpMV/SpMM pricing inputs.  The vectorized analyses (levels,
  critical path), the cost model's access-plan compiler, and the
  scheduler ``prepare`` paths all consume these flat arrays instead of
  re-deriving interning and adjacency per engine instance — and the
  cross-cell prep store persists them (:mod:`repro.bench.prep`).

The frozen columns are recorded as tasks arrive, in one pass:
:meth:`TaskDAG.add_task` runs each task through ``_Columns.add``
(interning, touch table, per-task scalars, sparse inputs), and
:meth:`TaskDAG.freeze` only converts the lists to arrays and builds
the successor CSR.  Any mutation (``add_task``/``add_edge``)
invalidates the frozen view; ``freeze`` rebuilds it on demand, and a
DAG whose lists were dropped (frozen, pickled, loaded) re-derives them
from its task list at the next ``add_task``.  Both views answer every
query with bit-identical results — pinned by
``tests/test_property_dag.py`` against the retained reference
implementations in :mod:`repro.graph.analyze` and the per-task walk
``freeze`` used to make.

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
from itertools import chain
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.graph.task import Task

__all__ = ["GraphArrays", "SPARSE_KERNELS", "TaskDAG"]

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
    ``id_to_key``.  Predecessor lists and per-task reads are not
    repeated here: ``dag.pred`` and ``Task.reads`` hold them.
    """

    n_tasks: int
    n_edges: int
    # -- adjacency (CSR) ------------------------------------------------
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    indegree: np.ndarray
    # -- interned operand tables ---------------------------------------
    id_to_key: list            # id -> (name, part)
    write_indptr: np.ndarray   # per-task writes, in writes order
    write_ids: np.ndarray
    # -- per-task touch table (Task.touched() order, deduplicated) -----
    touch_indptr: np.ndarray
    touch_ids: np.ndarray
    touch_nbytes: np.ndarray   # first-kept handle's nbytes (dedup rule)
    touch_is_write: np.ndarray
    #: SpMV/SpMM effective-byte override of each touch: 0 none, 1 the
    #: task's ``params["X"]`` input, 2 its ``params["Y"]`` output (by
    #: operand name, Y winning, as ``CostModel._effective_bytes``)
    touch_role: np.ndarray
    # -- scalar per-task attributes ------------------------------------
    kernel_names: list         # kernel interning, first-appearance order
    kernel_codes: np.ndarray   # per-task index into kernel_names
    param_i: np.ndarray        # params["i"] or -1
    first_write_id: np.ndarray  # interned id of writes[0], -1 if none
    #: highest partition index + 1 over every handle (NUMA geometry)
    max_part: int
    # -- SpMV/SpMM pricing inputs, one entry per sparse task -----------
    sparse_tids: np.ndarray    # tids of the SPMV/SPMM tasks, ascending
    sparse_nnz: np.ndarray     # shape "nnz" (0 if absent)
    sparse_rows: np.ndarray    # shape "rows"
    sparse_cols: np.ndarray    # shape "cols"
    sparse_width: np.ndarray   # shape "width" (1 if absent)
    sparse_span: np.ndarray    # shape "gather_span" (0 if absent)
    sparse_buffer: np.ndarray  # params["buffer"]: a reduction buffer
    #: interned id of the gather's input chunk (first partitioned read
    #: not named ``params["A"]``), -1 if none
    sparse_x: np.ndarray


#: Kernels whose plans carry effective-byte overrides and a gather.
SPARSE_KERNELS = ("SPMV", "SPMM")


class _Columns:
    """The frozen view's per-task columns as plain lists.

    :meth:`TaskDAG.add_task` feeds every task through :meth:`add`, so
    the columns grow with the graph and :meth:`TaskDAG.freeze` only
    converts them to arrays.  ``add`` is the one per-task derivation:
    a frozen, loaded or unpickled DAG that gets another task re-derives
    the lists by running its whole task list through it.  Per task it
    appends one row tuple of scalars (and one of SpMV/SpMM inputs);
    ``freeze`` splits the rows into columns.
    """

    __slots__ = ("key_to_id", "id_to_key", "kernel_code", "kernel_names",
                 "max_part", "rows", "write_ids", "touch_ids",
                 "touch_nbytes", "sparse", "sparse_roles")

    def __init__(self):
        self.key_to_id = {}
        self.id_to_key = []
        self.kernel_code = {}
        self.kernel_names = []
        self.max_part = 0
        #: per task: (kernel code, param_i, first write id, writes, touches)
        self.rows = []
        self.write_ids = []
        self.touch_ids = []
        self.touch_nbytes = []
        #: per SpMV/SpMM task: (tid, nnz, rows, cols, width, gather
        #: span, reduction buffer, gather input id)
        self.sparse = []
        #: touch_role of every SpMV/SpMM task's touches, in order
        self.sparse_roles = []

    def _intern(self, key) -> int:
        hid = self.key_to_id[key] = len(self.id_to_key)
        self.id_to_key.append(key)
        part = key[1]
        if part is not None and part >= self.max_part:
            self.max_part = part + 1
        return hid

    def add(self, tid: int, t: Task):
        """Record one task's row; returns its interned read and write
        ids, each in ``reads``/``writes`` order, duplicates kept."""
        kernel = t.kernel
        code = self.kernel_code.get(kernel)
        if code is None:
            code = self.kernel_code[kernel] = len(self.kernel_names)
            self.kernel_names.append(kernel)
        params = t.params
        # Handle interning in first-appearance order over reads then
        # writes, and the touch table with Task.touched()'s dedup rule:
        # first occurrence kept, with that handle's nbytes.
        key_to_id = self.key_to_id
        ids = []
        rids = []
        wids = []
        nbytes = self.touch_nbytes
        if kernel not in SPARSE_KERNELS:
            for h in t.reads:
                key = (h.name, h.part)
                hid = key_to_id.get(key)
                if hid is None:
                    hid = self._intern(key)
                rids.append(hid)
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
            for h in t.writes:
                key = (h.name, h.part)
                hid = key_to_id.get(key)
                if hid is None:
                    hid = self._intern(key)
                wids.append(hid)
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
        else:
            # The same walk, also recording the inputs of
            # CostModel._effective_bytes and _gather_bundle, with their
            # defaults and KeyErrors: each touch's override role (by
            # operand name, Y before X) and the gather's input chunk
            # (first partitioned read not named A).
            xname = params.get("X")
            yname = params.get("Y")
            aname = params.get("A")
            roles = self.sparse_roles
            gx = -1
            for h in t.reads:
                name = h.name
                part = h.part
                key = (name, part)
                hid = key_to_id.get(key)
                if hid is None:
                    hid = self._intern(key)
                rids.append(hid)
                if gx < 0 and part is not None and name != aname:
                    gx = hid
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
                    roles.append(2 if name == yname else
                                 1 if name == xname else 0)
            for h in t.writes:
                name = h.name
                key = (name, h.part)
                hid = key_to_id.get(key)
                if hid is None:
                    hid = self._intern(key)
                wids.append(hid)
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
                    roles.append(2 if name == yname else
                                 1 if name == xname else 0)
            shape = t.shape
            self.sparse.append((
                tid, shape.get("nnz", 0),
                shape["rows"] if yname is not None else shape.get("rows", 0),
                shape["cols"] if xname is not None else shape.get("cols", 0),
                shape.get("width", 1), shape.get("gather_span", 0),
                1 if params.get("buffer") else 0, gx,
            ))
        self.write_ids += wids
        self.touch_ids += ids
        i = params.get("i")
        self.rows.append((code, -1 if i is None else int(i),
                          wids[0] if wids else -1, len(wids), len(ids)))
        return rids, wids


def _unzip(rows: list, width: int):
    """The columns of a list of equal-length tuples (``width`` empty
    ones for no rows)."""
    return zip(*rows) if rows else [()] * width


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
        #: ``(u, v)`` dedup set for :meth:`add_edge`; None until
        #: :meth:`_edge_pairs` derives it from ``succ``.
        self._edge_set: Optional[set] = None
        #: Per-task columns :meth:`add_task` fills; None once frozen,
        #: pickled or loaded (re-derived by the next ``add_task``).
        self._cols: Optional[_Columns] = _Columns()
        self._key_to_id = None
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
        handles, and ``id_to_key`` is the inverse list, the frozen
        view's ``id_to_key``.  The numbering is a pure function of the
        DAG, so every engine/cost-model/memory-model instance that
        executes this DAG agrees on the ids — which is what lets the
        cost model stash int-keyed pricing invariants on the DAG and
        share them across runs.

        Int keys hash ~2x faster than ``(str, int)`` tuples, and they
        are what the innermost structures (LRU dicts, coherence directory,
        NUMA memos) key on during simulation.  The run path reads
        ``freeze().id_to_key`` alone; the inverse dict is derived on
        demand and never pickled.
        """
        id_to_key = self.freeze().id_to_key
        memo = self._key_to_id
        if memo is None or memo[1] is not id_to_key:
            memo = ({k: i for i, k in enumerate(id_to_key)}, id_to_key)
            self._key_to_id = memo
        return memo

    # ------------------------------------------------------------------
    def freeze(self) -> GraphArrays:
        """Build (or return) the structure-of-arrays view of the graph.

        Idempotent and cached; any later :meth:`add_task` /
        :meth:`add_edge` invalidates the cache and the next ``freeze``
        rebuilds.  The per-task columns were recorded by ``add_task``;
        this converts them to arrays, builds the CSR successor table and
        drops the lists.  The arrays are a pure function of the DAG —
        two processes freezing the same graph produce identical tables,
        which is what lets the prep store persist them.
        """
        soa = self._soa
        if soa is not None:
            return soa
        cols = self._columns()
        succ = self.succ
        n = len(succ)
        i64, i32 = np.int64, np.int32

        def _indptr(counts):
            indptr = np.zeros(n + 1, dtype=i64)
            np.cumsum(counts, out=indptr[1:])
            return indptr

        succ_indptr = _indptr(np.fromiter(map(len, succ), i64, n))
        n_edges = int(succ_indptr[-1])
        kernel_codes, param_i, first_write, n_writes, n_touches = (
            np.array(c, dtype=i64) for c in _unzip(cols.rows, 5))
        write_indptr = _indptr(n_writes)
        write_ids = np.array(cols.write_ids, dtype=i32)
        touch_indptr = _indptr(n_touches)
        touch_ids = np.array(cols.touch_ids, dtype=i32)
        # A touch writes if it is its task's first write, or any write
        # of the few tasks with more than one.
        touch_is_write = touch_ids == first_write.repeat(n_touches)
        for t in np.flatnonzero(n_writes > 1).tolist():
            a, b = touch_indptr[t], touch_indptr[t + 1]
            writes = write_ids[write_indptr[t]:write_indptr[t + 1]]
            touch_is_write[a:b] = np.isin(touch_ids[a:b], writes)
        sparse = [np.array(c, dtype=i64) for c in _unzip(cols.sparse, 8)]
        sparse_tids = sparse[0].astype(i32)
        touch_role = np.zeros(touch_ids.size, dtype=np.int8)
        if sparse_tids.size:
            starts = touch_indptr[sparse_tids]
            counts = n_touches[sparse_tids]
            at = np.repeat(starts - np.cumsum(counts) + counts, counts)
            touch_role[at + np.arange(at.size)] = cols.sparse_roles
        soa = GraphArrays(
            n_tasks=n,
            n_edges=n_edges,
            succ_indptr=succ_indptr,
            succ_indices=np.fromiter(chain.from_iterable(succ), i32,
                                     n_edges),
            indegree=np.fromiter(map(len, self.pred), i32, n),
            id_to_key=cols.id_to_key,
            write_indptr=write_indptr,
            write_ids=write_ids,
            touch_indptr=touch_indptr,
            touch_ids=touch_ids,
            touch_nbytes=np.array(cols.touch_nbytes, dtype=i64),
            touch_is_write=touch_is_write,
            touch_role=touch_role,
            kernel_names=cols.kernel_names,
            kernel_codes=kernel_codes.astype(i32),
            param_i=param_i,
            first_write_id=first_write.astype(i32),
            max_part=cols.max_part,
            sparse_tids=sparse_tids,
            sparse_nnz=sparse[1],
            sparse_rows=sparse[2],
            sparse_cols=sparse[3],
            sparse_width=sparse[4],
            sparse_span=sparse[5],
            sparse_buffer=sparse[6].astype(bool),
            sparse_x=sparse[7].astype(i32),
        )
        self._soa = soa
        self._cols = None
        return soa

    def _columns(self) -> _Columns:
        """The live per-task columns, re-derived from the task list if
        freezing, pickling or loading dropped them."""
        cols = self._cols
        if cols is None:
            cols = _Columns()
            add = cols.add
            for tid, t in enumerate(self.tasks):
                add(tid, t)
            self._cols = cols
        return cols

    @property
    def frozen(self) -> bool:
        return self._soa is not None

    def _invalidate(self) -> None:
        self._soa = None
        self._kernel_of = None
        self.recipe = None

    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> int:
        """Insert a task; assigns and returns its dense id.

        Records the task's frozen-view columns as it goes, so
        :meth:`freeze` never walks the task list again.
        """
        return self._add_wired(task)

    def _add_wired(self, task: Task, wire=None) -> int:
        """:meth:`add_task`, wiring the new task's incoming edges.

        The builder's path: ``wire(tid, read_ids, write_ids, n_ids)``
        gets the interned ids ``_Columns.add`` just assigned (``n_ids``
        interned so far) and returns the task's predecessors,
        deduplicated, in first-occurrence order; they are appended to
        ``pred`` and ``succ`` in one step.  If either step raises, the
        task is refused whole: no task, no adjacency row, no column row.
        """
        tasks = self.tasks
        cols = self._columns()
        tid = len(tasks)
        try:
            rids, wids = cols.add(tid, task)
            preds = [] if wire is None else wire(tid, rids, wids,
                                                 len(cols.id_to_key))
        except BaseException:
            self._cols = None  # half a row recorded: re-derive next time
            raise
        task.tid = tid
        tasks.append(task)
        succ = self.succ
        succ.append([])
        self.pred.append(preds)
        if preds:
            for u in preds:
                succ[u].append(tid)
            self._edge_set = None
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
        """The ``(u, v)`` edge set, derived from ``succ`` on demand.

        The builder never fills it (it deduplicates each task's
        predecessors as it wires them), and pickling discards it: it is
        pure dedup/validation state, so built DAGs and persisted prep
        artifacts do not carry one.
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
        state["_cols"] = None
        state["_key_to_id"] = None
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
        return sum(map(len, self.succ))

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
