"""The task dependency graph container.

Stores tasks and their precedence edges, provides the structural
queries every runtime needs — deterministic topological orders, the
critical path, per-level width — and validation used by tests and by
runtimes that want to assert a schedule is legal before trusting its
timing.

A :class:`TaskDAG` is complete and frozen when it is made, and nothing
changes its graph after: its one constructor takes the per-task columns
(:class:`_ColumnArrays`) and both adjacency CSR pairs, and converts the
columns into the frozen view at once.  Two producers make those
inputs:

* the :class:`~repro.graph.builder.DAGBuilder`, for a whole trace at
  once in NumPy passes (interning, columns, RAW/WAR/WAW hazards);
* :meth:`TaskDAG.from_tasks`, for hand-made tasks and edges (tests and
  the empty DAG): :func:`_task_columns` reads every column off the
  ``Task`` objects one at a time.

Two representations coexist:

* the **adjacency** — ``succ``/``pred`` list-of-lists, which is what
  the event engine's inner loop iterates (Python lists of small ints
  beat NumPy scalar iteration there).  A new DAG holds both as CSR
  pairs, and a loaded one holds ``pred`` that way; each becomes lists
  at its first read (no simulation run reads ``pred``);
* the **frozen structure-of-arrays view** (:class:`GraphArrays`) —
  indegrees, dense interned operand-id tables with per-task
  write/touch spans, kernel codes, flop counts, call (phase) bounds and
  the SpMV/SpMM pricing inputs.  The cost model's access-plan
  compiler, BSP's phase assignment and the scheduler ``prepare`` paths
  all consume these flat arrays instead of re-deriving interning per
  engine instance — and the cross-cell prep store persists them
  (:mod:`repro.bench.prep`).  The successor CSR the vectorized
  analyses (levels, critical path) walk is the pair the DAG was made
  with, or derived from a loaded DAG's ``succ`` by
  :meth:`TaskDAG.succ_csr` on demand, and never stored.

Both views answer every query bit-identically to the retained reference
implementations in :mod:`repro.graph.analyze` and the per-``Task``
column and hazard walks in ``tests/test_property_dag.py``.

Two kinds of DAG exist.  A **simulation DAG** — what
:meth:`~repro.graph.builder.DAGBuilder.build` returns, and what a prep
artifact loads as — holds its frozen view and adjacency and no
``Task`` list: the engines, the cost model and the schedulers price
and schedule by tid off the frozen view, the compiled plans and
:meth:`TaskDAG.kernel_of`, and the Chrome exporter reads tile
coordinates off the same view.  Reading ``tasks`` on one raises.  A
**task DAG** — :meth:`~repro.graph.builder.DAGBuilder.build_tasks` or
:meth:`TaskDAG.from_tasks` — also holds its ``Task`` objects, for the
real NumPy executors (:mod:`repro.runtime.threaded`) and for analyses
that weigh tasks, and pickles them with the rest.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.task import Task
from repro.kernels.registry import KERNELS, kernel_spec

__all__ = ["GraphArrays", "SPARSE_KERNELS", "TaskDAG"]

_I32 = np.iinfo(np.int32)


@dataclass
class GraphArrays:
    """Frozen structure-of-arrays view of one :class:`TaskDAG`.

    All index arrays are NumPy; ``*_indptr`` arrays have length
    ``n_tasks + 1`` and delimit per-task spans in the matching flat
    array (CSR convention).  Operand ids are the DAG's handle
    interning (:meth:`TaskDAG.handle_interning`): dense small ints in
    first-appearance order, resolved back to ``(name, part)`` by
    ``id_to_key``.  The adjacency is not repeated here: ``dag.pred``
    and ``dag.succ`` hold it, and :meth:`TaskDAG.succ_csr` derives the
    successor CSR from ``succ`` on demand.  Per-task reads are not
    kept either; interning covers them.

    ``touch_nbytes``, the three ``*_indptr`` offsets, ``param_i`` and
    the sparse ``nnz``/``rows``/``cols``/``width`` columns are int32
    when every value of the column fits in 32 bits and int64 otherwise
    (``_narrow``); ``sparse_span`` is always int64.  Code that
    multiplies them upcasts to int64 first.
    """

    n_tasks: int
    n_edges: int
    # -- adjacency ------------------------------------------------------
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
    #: the kernel registry's flop count of the task's shape (NaN for an
    #: unregistered kernel)
    flops: np.ndarray
    #: runs of equal ``Task.seq`` (one per primitive call that made
    #: tasks): phase ``p`` is tids ``phase_indptr[p]:phase_indptr[p+1]``
    phase_indptr: np.ndarray
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


class _ColumnArrays(NamedTuple):
    """The frozen view's per-task columns as flat arrays: what
    :func:`_freeze` converts into :class:`GraphArrays`.

    The builder computes them for a whole trace in bulk;
    :meth:`TaskDAG.from_tasks` gets them from :func:`_task_columns`.
    Per-task columns are int64 (``flops`` float64), the flat id columns
    int32; ``sparse`` is the eight int64 SpMV/SpMM columns (tid, nnz,
    rows, cols, width, gather span, reduction buffer, input chunk id)
    and ``sparse_roles`` the ``touch_role`` of those tasks' touches, in
    order.
    """

    id_to_key: list
    max_part: int
    kernel_names: list
    kernel_codes: np.ndarray
    param_i: np.ndarray
    first_write: np.ndarray
    n_writes: np.ndarray
    n_touches: np.ndarray
    flops: np.ndarray
    seq: np.ndarray
    write_ids: np.ndarray
    touch_ids: np.ndarray
    touch_nbytes: np.ndarray
    sparse: tuple
    sparse_roles: np.ndarray


def _task_columns(tasks: List[Task]) -> _ColumnArrays:
    """The frozen view's per-task columns, read off each ``Task`` in
    turn: the per-``Task`` derivation :meth:`TaskDAG.from_tasks` runs.

    Handles are interned in first-appearance order over each task's
    reads then writes, and the touch table follows
    ``Task.touched()``'s dedup rule: first occurrence kept, with that
    handle's nbytes.  A SpMV/SpMM task also records the inputs of
    ``CostModel._effective_bytes`` and ``_gather_bundle``, with their
    defaults and KeyErrors: each touch's override role (by operand
    name, Y before X) and the gather's input chunk (first partitioned
    read not named A); its flop count is priced from those columns by
    :func:`_freeze`.
    """
    key_to_id = {}
    id_to_key = []
    kernel_code = {}
    kernel_names = []
    max_part = 0
    #: per task: (kernel code, param_i, first write id, writes,
    #: touches, flops, seq)
    rows = []
    write_ids = []
    touch_ids = []
    touch_nbytes = []
    #: per SpMV/SpMM task: (tid, nnz, rows, cols, width, gather span,
    #: reduction buffer, gather input id)
    sparse = []
    #: touch_role of every SpMV/SpMM task's touches, in order
    sparse_roles = []
    for tid, t in enumerate(tasks):
        kernel = t.kernel
        code = kernel_code.setdefault(kernel, len(kernel_names))
        if code == len(kernel_names):
            kernel_names.append(kernel)
        params = t.params
        is_sparse = kernel in SPARSE_KERNELS
        xname = params.get("X")
        yname = params.get("Y")
        aname = params.get("A")
        n_reads = len(t.reads)
        gx = -1
        ids = []
        wids = []
        for k, h in enumerate((*t.reads, *t.writes)):
            name, part = h.name, h.part
            key = (name, part)
            hid = key_to_id.get(key)
            if hid is None:
                hid = key_to_id[key] = len(id_to_key)
                id_to_key.append(key)
                if part is not None and part >= max_part:
                    max_part = part + 1
            if k >= n_reads:
                wids.append(hid)
            elif gx < 0 and part is not None and name != aname:
                gx = hid
            if hid not in ids:
                ids.append(hid)
                touch_nbytes.append(h.nbytes)
                if is_sparse:
                    sparse_roles.append(2 if name == yname else
                                        1 if name == xname else 0)
        shape = t.shape
        if is_sparse:
            sparse.append((
                tid, shape.get("nnz", 0),
                shape["rows"] if yname is not None else shape.get("rows", 0),
                shape["cols"] if xname is not None else shape.get("cols", 0),
                shape.get("width", 1), shape.get("gather_span", 0),
                1 if params.get("buffer") else 0, gx,
            ))
            flops = 0.0
        else:
            spec = KERNELS.get(kernel)
            flops = float("nan") if spec is None else spec.flops(shape)
        write_ids += wids
        touch_ids += ids
        i = params.get("i")
        rows.append((code, -1 if i is None else int(i),
                     wids[0] if wids else -1, len(wids), len(ids), flops,
                     t.seq))
    i64, i32 = np.int64, np.int32
    (kernel_codes, param_i, first_write, n_writes, n_touches, flops,
     seq) = _unzip(rows, 7)
    return _ColumnArrays(
        id_to_key, max_part, kernel_names,
        *(np.array(c, dtype=i64) for c in (
            kernel_codes, param_i, first_write, n_writes, n_touches)),
        np.array(flops, dtype=np.float64),
        np.array(seq, dtype=i64),
        np.array(write_ids, dtype=i32),
        np.array(touch_ids, dtype=i32),
        np.array(touch_nbytes, dtype=i64),
        tuple(np.array(c, dtype=i64) for c in _unzip(sparse, 8)),
        np.array(sparse_roles, dtype=np.int8),
    )


def _unzip(rows: list, width: int):
    """The columns of a list of equal-length tuples (``width`` empty
    ones for no rows)."""
    return zip(*rows) if rows else [()] * width


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` as int32 if every value fits in 32 bits, else as int64.

    Chosen per column from its range, so a large matrix keeps 64 bits
    and no value can wrap; consumers upcast before any product.
    """
    if a.size == 0 or (_I32.min <= a.min() and a.max() <= _I32.max):
        return a.astype(np.int32)
    return a.astype(np.int64)


def _smallest(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest signed integer type that holds every value
    (int8 to int64): the index columns of plan tables, which mostly
    point into tables of a few thousand entries."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    for t in (np.int8, np.int16, np.int32):
        info = np.iinfo(t)
        if info.min <= lo and hi <= info.max:
            return a.astype(t)
    return a.astype(np.int64)


def _csr(rows) -> tuple:
    """``(indptr, indices)`` of a list of int lists: int64 offsets,
    int32 entries."""
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, n), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), np.int32,
                          int(indptr[-1]))
    return indptr, indices


#: One shared ``int`` per tid, grown on demand under ``_TID_LOCK``
#: (service threads load artifacts concurrently): see :func:`tid_ints`.
_TIDS = np.empty(0, dtype=object)
_TID_LOCK = threading.Lock()


def _fresh_locks() -> None:
    """A forked child gets an unheld tid lock: the service forks its
    pool workers while another thread may be growing the tid table,
    and an inherited held lock would hang the child's first load."""
    global _TID_LOCK
    _TID_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks)


def tid_ints(n: int) -> np.ndarray:
    """An object array whose entry ``t`` is the one ``int`` for tid ``t``,
    for every ``t < n``.

    Pickle does not memoize ints, so lists decoded from a prep
    artifact's arrays would hold one ``int`` per occurrence; indexing
    this array instead copies references, so every adjacency list of
    every loaded DAG in the process names a tid with the same object.
    Growing keeps the objects already handed out.
    """
    global _TIDS
    tids = _TIDS
    if len(tids) < n:
        with _TID_LOCK:
            tids = _TIDS
            if len(tids) < n:
                grown = np.empty(n, dtype=object)
                grown[:len(tids)] = tids
                grown[len(tids):] = range(len(tids), n)
                _TIDS = tids = grown
    return tids


def _rows(csr) -> list:
    """The int lists of a CSR pair of tids, each entry the shared
    :func:`tid_ints` object for its value."""
    indptr, indices = csr
    flat = tid_ints(len(indptr) - 1)[indices].tolist()
    bounds = indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _tuples(objs: np.ndarray, index: np.ndarray, indptr: np.ndarray) -> list:
    """``[tuple(objs[index[a:b]]) for a, b in consecutive indptr
    bounds]``, made one length at a time: a ``zip`` over the columns
    of each length's rows builds their tuples in C, which is what a
    decode of tens of thousands of short tuples spends its time on
    otherwise."""
    counts = np.diff(indptr)
    n = counts.size
    by = counts.argsort(kind="stable")
    cuts = np.flatnonzero(np.diff(counts[by])) + 1
    made = []
    for rows in np.split(by, cuts) if n else ():
        k = int(counts[rows[0]])
        cols = objs[index[indptr[rows, None] + np.arange(k)]].T.tolist()
        made += zip(*cols) if k else [()] * rows.size
    out = np.empty(n, dtype=object)
    out[by] = np.fromiter(made, dtype=object, count=n)
    return out.tolist()


def _freeze(cols: _ColumnArrays, pred_indptr: np.ndarray) -> GraphArrays:
    """The frozen view of per-task columns (the builder's arrays, or
    :func:`_task_columns`'s) over a DAG whose predecessor CSR has
    offsets ``pred_indptr``: the columns narrowed, and the SpMV/SpMM
    flop counts priced from their pricing inputs in bulk."""
    n = cols.kernel_codes.size
    i64, i32 = np.int64, np.int32

    def _indptr(counts):
        indptr = np.zeros(n + 1, dtype=i64)
        np.cumsum(counts, out=indptr[1:])
        return indptr

    kernel_codes, first_write = cols.kernel_codes, cols.first_write
    n_writes, n_touches = cols.n_writes, cols.n_touches
    flops = cols.flops.copy()
    write_indptr = _indptr(n_writes)
    write_ids = cols.write_ids
    touch_indptr = _indptr(n_touches)
    touch_ids = cols.touch_ids
    # A touch writes if it is its task's first write, or any write
    # of the few tasks with more than one.
    touch_is_write = touch_ids == first_write.repeat(n_touches)
    for t in np.flatnonzero(n_writes > 1).tolist():
        a, b = touch_indptr[t], touch_indptr[t + 1]
        writes = write_ids[write_indptr[t]:write_indptr[t + 1]]
        touch_is_write[a:b] = np.isin(touch_ids[a:b], writes)
    sparse = cols.sparse
    sparse_tids = sparse[0].astype(i32)
    touch_role = np.zeros(touch_ids.size, dtype=np.int8)
    if sparse_tids.size:
        starts = touch_indptr[sparse_tids]
        counts = n_touches[sparse_tids]
        at = np.repeat(starts - np.cumsum(counts) + counts, counts)
        touch_role[at + np.arange(at.size)] = cols.sparse_roles
        # The registry's flop counts are arithmetic on the shape
        # entries, so they price whole columns elementwise, with
        # the same IEEE operations as one shape at a time.
        sparse_codes = kernel_codes[sparse_tids]
        for code, name in enumerate(cols.kernel_names):
            sel = sparse_codes == code
            if name in SPARSE_KERNELS and sel.any():
                flops[sparse_tids[sel]] = kernel_spec(name).flops({
                    "nnz": sparse[1][sel], "rows": sparse[2][sel],
                    "cols": sparse[3][sel], "width": sparse[4][sel],
                    "gather_span": sparse[5][sel]})
    return GraphArrays(
        n_tasks=n,
        n_edges=int(pred_indptr[-1]),
        indegree=np.diff(pred_indptr).astype(i32),
        id_to_key=cols.id_to_key,
        write_indptr=_narrow(write_indptr),
        write_ids=write_ids,
        touch_indptr=_narrow(touch_indptr),
        touch_ids=touch_ids,
        touch_nbytes=_narrow(cols.touch_nbytes),
        touch_is_write=touch_is_write,
        touch_role=touch_role,
        kernel_names=cols.kernel_names,
        kernel_codes=kernel_codes.astype(i32),
        param_i=_narrow(cols.param_i),
        first_write_id=first_write.astype(i32),
        flops=flops,
        phase_indptr=_narrow(np.concatenate((
            [0], np.flatnonzero(np.diff(cols.seq)) + 1, [n] if n else []
        ))),
        max_part=cols.max_part,
        sparse_tids=sparse_tids,
        sparse_nnz=_narrow(sparse[1]),
        sparse_rows=_narrow(sparse[2]),
        sparse_cols=_narrow(sparse[3]),
        sparse_width=_narrow(sparse[4]),
        sparse_span=sparse[5],
        sparse_buffer=sparse[6].astype(bool),
        sparse_x=sparse[7].astype(i32),
    )


class TaskDAG:
    """A DAG of :class:`~repro.graph.task.Task` nodes.

    Edges mean "must complete before".  Tasks have dense ids in program
    order, which for DAGs built by the
    :class:`~repro.graph.builder.DAGBuilder` coincides with the
    depth-first program order DeepSparse spawns tasks in.

    A DAG is complete when it is made: the constructor takes its
    per-task columns and both adjacency CSR pairs (and a task DAG's
    ``Task`` list), converts the columns into the frozen view
    (:func:`_freeze`, read by :meth:`freeze`) and nothing changes the
    graph after.  The builder
    calls it; hand-made DAGs come from :meth:`from_tasks`.  A
    simulation DAG (see the module docstring) has no ``tasks``; every
    structural query reads the frozen view or the adjacency, so it
    answers without one.

    ``n_partitions``, ``matrix_name`` and ``matrix_nbc`` are the
    partition geometry NUMA placement reads, passed by the builder; a
    hand-made DAG has None.

    ``_cost_prep``, ``_home_arrays`` and ``_sched_domains`` are the
    run invariants the cost model and the schedulers memoize on the
    DAG (and a prep artifact persists), keyed by their
    pricing/placement inputs.  The graph they are derived from never
    changes, so no consumer checks them for staleness.
    """

    def __init__(self, cols: _ColumnArrays, succ: tuple, pred: tuple,
                 tasks: Optional[List[Task]] = None,
                 n_partitions: Optional[int] = None,
                 matrix_name: Optional[str] = None,
                 matrix_nbc: Optional[int] = None):
        #: The ``Task`` list; None for a simulation DAG.
        self._tasks = tasks
        #: Successor lists, held as the CSR pair until the first read of
        #: :attr:`succ` (kept under the plain name, so the pickled state
        #: reads the same either way).
        self.__dict__["succ"] = succ
        #: Predecessor lists, held as the CSR pair until the first read
        #: of :attr:`pred`.
        self._pred = pred
        self._soa = _freeze(cols, pred[0])
        self.n_partitions = n_partitions
        self.matrix_name = matrix_name
        self.matrix_nbc = matrix_nbc
        self._key_to_id = None
        self._kernel_of: Optional[List[str]] = None
        self._succ_csr = None
        self._pred_csr = None
        self._cost_prep: dict = {}
        self._home_arrays: dict = {}
        self._sched_domains: dict = {}

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task],
                   edges: Iterable[Tuple[int, int]] = ()) -> "TaskDAG":
        """A task DAG of hand-made ``tasks`` and precedence ``edges``.

        Each task's tid is set to its position in ``tasks``, and
        :func:`_task_columns` reads the frozen columns off the tasks.
        An edge ``(u, v)`` means ``u`` before ``v``; one naming an
        unknown tid raises ``IndexError``, duplicate and self edges are
        dropped, and the rest keep their order.  A backward edge is
        kept, so :meth:`topo_order` reports a cycle it closes.
        """
        tasks = list(tasks)
        n = len(tasks)
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for u, v in dict.fromkeys(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) references unknown task")
            if u != v:
                succ[u].append(v)
                pred[v].append(u)
        cols = _task_columns(tasks)
        for tid, t in enumerate(tasks):
            t.tid = tid
        return cls(cols, _csr(succ), _csr(pred), tasks)

    @property
    def succ(self) -> List[List[int]]:
        """Successor lists, each in ascending tid order for a built DAG.

        Held as a CSR pair until the first read, which builds the lists
        with the shared :func:`tid_ints` objects and keeps the pair for
        :meth:`succ_csr`.
        """
        succ = self.__dict__["succ"]
        if type(succ) is tuple:
            self.__dict__["succ"] = rows = _rows(succ)
            self._succ_csr = succ
            return rows
        return succ

    @property
    def pred(self) -> List[List[int]]:
        """Predecessor lists, in wiring order.

        Held as a CSR pair until the first read (no simulation run reads
        them: a BSP run takes its intra-phase predecessors from the
        pair), which builds the lists with the shared :func:`tid_ints`
        objects ``succ`` holds.
        """
        pred = self._pred
        if type(pred) is tuple:
            self._pred = rows = _rows(pred)
            self._pred_csr = pred
            return rows
        return pred

    def pred_csr(self):
        """``(indptr, indices)``: the predecessor lists as CSR arrays,
        for BSP's phases and for pickling.  The pair the DAG was
        made or loaded with, kept after the lists are read."""
        pred = self._pred
        return pred if type(pred) is tuple else self._pred_csr

    @property
    def tasks(self) -> List[Task]:
        """The task list; a simulation DAG has none and raises."""
        tasks = self._tasks
        if tasks is None:
            raise RuntimeError(
                "DAG has no task list: it is a simulation DAG "
                "(DAGBuilder.build or a prep artifact); build the "
                "trace with DAGBuilder.build_tasks to execute its tasks")
        return tasks

    def kernel_of(self) -> List[str]:
        """Kernel name of every task, by tid (derived, never pickled).

        Read off the frozen ``kernel_names``/``kernel_codes`` tables,
        so the engines' per-task kernel lookups never touch a ``Task``.
        """
        kernels = self._kernel_of
        if kernels is None:
            soa = self._soa
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
        memo = self._key_to_id
        if memo is None:
            id_to_key = self._soa.id_to_key
            memo = ({k: i for i, k in enumerate(id_to_key)}, id_to_key)
            self._key_to_id = memo
        return memo

    # ------------------------------------------------------------------
    def freeze(self) -> GraphArrays:
        """The structure-of-arrays view of the graph, made with it.

        The arrays are a pure function of the DAG — two processes
        making the same graph produce identical tables, which is what
        lets the prep store persist them.
        """
        return self._soa

    def succ_csr(self):
        """``(indptr, indices)``: the successor lists as CSR arrays.

        The pair the DAG was made with, kept after the lists are read;
        a loaded DAG derives it from ``succ`` on demand for the
        vectorized analyses (:meth:`levels`, :meth:`critical_path`) and
        never pickles it.
        """
        succ = self.__dict__["succ"]
        if type(succ) is tuple:
            return succ
        csr = self._succ_csr
        if csr is None:
            csr = self._succ_csr = _csr(succ)
        return csr

    def __getstate__(self):
        """A task DAG pickles its list; a simulation DAG has none.

        ``succ`` and ``pred`` travel as CSR pairs (offsets narrowed
        like the frozen columns).  Pickle does not memoize ints, so
        pickled lists would load with one ``int`` object per edge end;
        :meth:`__setstate__` rebuilds ``succ`` with one per tid, and
        ``pred`` stays a CSR pair until it is read.  A loaded DAG that
        is pickled again derives its successor pair without keeping it.
        """
        state = self.__dict__.copy()
        succ = state["succ"]
        if type(succ) is not tuple:
            succ = self._succ_csr or _csr(succ)
        for name, (indptr, indices) in (("succ", succ),
                                        ("_pred", self.pred_csr())):
            state[name] = (_narrow(indptr), indices)
        state["_kernel_of"] = None
        state["_key_to_id"] = None
        state["_succ_csr"] = None
        state["_pred_csr"] = None
        return state

    def __setstate__(self, state):
        """Rebuild ``succ`` from its CSR pair (``_rows``); ``pred``
        waits for its first read."""
        state["succ"] = _rows(state["succ"])
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._soa.n_tasks

    @property
    def n_edges(self) -> int:
        return self._soa.n_edges

    def sources(self) -> List[int]:
        """Tasks with no predecessors (ready at time zero)."""
        return np.flatnonzero(self._soa.indegree == 0).tolist()

    def in_degrees(self) -> List[int]:
        return self._soa.indegree.tolist()

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
        for u, vs in enumerate(self.succ):
            for v in vs:
                if pos[u] > pos[v]:
                    raise ValueError(
                        f"dependence violated: task {u} must precede "
                        f"task {v}"
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
        indptr, indices = self.succ_csr()
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
        if weight is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.fromiter(
                (weight(t) for t in self.tasks), dtype=np.float64, count=n
            )
        dist = np.zeros(n, dtype=np.float64)
        indptr, indices = self.succ_csr()
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
    def by_kernel(self) -> dict:
        """Task counts per kernel name (census used in logs and tests).

        In first-appearance order: the frozen kernel codes counted
        (``kernel_names`` is already in that order), no task list read.
        """
        soa = self._soa
        counts = np.bincount(soa.kernel_codes,
                             minlength=len(soa.kernel_names))
        return dict(zip(soa.kernel_names, counts.tolist()))

    def __repr__(self):
        return (
            f"TaskDAG({len(self)} tasks, {self.n_edges} edges, "
            f"kernels={self.by_kernel()})"
        )
