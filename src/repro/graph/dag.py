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
  :meth:`TaskDAG.add_task` appends one task; :meth:`TaskDAG.add_edge`
  adds one edge at a time.  The ``(u, v)`` edge set that deduplicates
  ``add_edge`` is derived from ``succ`` on demand, so a built or
  loaded DAG carries none.  A built DAG holds ``succ`` and ``pred`` as
  the CSR pairs the builder's hazard pass produced, and a loaded one
  holds ``pred`` that way; each becomes lists at its first read (no
  simulation run reads ``pred``);
* the **frozen structure-of-arrays view** (:class:`GraphArrays`) —
  indegrees, dense interned operand-id tables with per-task
  write/touch spans, kernel codes, flop counts, call (phase) bounds and
  the SpMV/SpMM pricing inputs.  The cost model's access-plan
  compiler, BSP's phase assignment and the scheduler ``prepare`` paths
  all consume these flat arrays instead of re-deriving interning per
  engine instance — and the cross-cell prep store persists them
  (:mod:`repro.bench.prep`).  The successor CSR the vectorized
  analyses (levels, critical path) walk is derived from ``succ`` by
  :meth:`TaskDAG.succ_csr` on demand and never stored.

The frozen columns reach :meth:`TaskDAG.freeze` as flat arrays
(:class:`_ColumnArrays`), and ``freeze`` only converts them.
:meth:`TaskDAG.add_task` records each task's row through
``_Columns.add`` (interning, touch table, per-task scalars, sparse
inputs, all read off the ``Task``), whose lists become those arrays;
the :class:`~repro.graph.builder.DAGBuilder` computes the arrays for a
whole trace at once and makes no ``Task`` at all.  Any mutation
(``add_task``/``add_edge``) invalidates
the frozen view; ``freeze`` rebuilds it on demand, and a DAG whose
lists were dropped (frozen, pickled, loaded) re-derives them from its
task list at the next ``add_task``.  Both views answer every query with
bit-identical results — pinned by ``tests/test_property_dag.py``
against the retained reference implementations in
:mod:`repro.graph.analyze` and the per-task walk ``freeze`` used to
make.

A built DAG, like a loaded one, holds no ``Task`` list; it builds it
on the first ``dag.tasks``.  A built DAG runs its builder's task mode
over the same trace (``_expand``, in memory only); a loaded one builds
afresh from its **recipe**: plain data — matrix, block size, solver,
width and the :class:`~repro.graph.builder.BuildOptions` fields — that
:func:`repro.analysis.experiment._rebuild_dag` turns into the same
graph.  The builder expands a solver trace deterministically, so the
recipe stands in for the list, and pickling a frozen DAG that has one
leaves the list out.  Either way the rebuilt DAG's every frozen field
and both adjacency lists must equal this DAG's before the list is
adopted, so a stale artifact or a task mode that strays from the
columns fails closed.  The simulation run path never asks: the
engines, the cost model and the schedulers price and schedule by tid
off the frozen view, the compiled plans and :meth:`TaskDAG.kernel_of`,
so neither a cold build nor a loaded prep artifact ever makes its
``Task`` objects.  Trace and Gantt export, the threaded runtime,
analysis code, :meth:`TaskDAG.add_task` and :meth:`TaskDAG.add_edge`
rebuild.  A DAG without a recipe pickles its list the plain way.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Iterable, List, NamedTuple, Optional

import numpy as np

from repro.graph.task import Task
from repro.kernels.registry import KERNELS, kernel_spec

__all__ = ["GraphArrays", "SPARSE_KERNELS", "TaskDAG"]

#: Serializes first rebuilds of a task list: service threads share
#: built and loaded DAGs, and every reader must see the same ``Task``
#: objects.  Reentrant: rebuilding a loaded DAG builds a fresh one
#: whose own list is rebuilt in turn.
_REBUILD_LOCK = threading.RLock()

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
    :meth:`TaskDAG.freeze` converts into :class:`GraphArrays`.

    The builder computes them for a whole trace in bulk; a DAG grown by
    :meth:`TaskDAG.add_task` gets them from :meth:`_Columns.arrays`.
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


class _Columns:
    """The frozen view's per-task columns as plain lists, filled one
    ``Task`` at a time.

    :meth:`add` is the per-``Task`` derivation :meth:`TaskDAG.add_task`
    runs: it interns the task's handles and reads every column off its
    handle objects, shape and params.  A frozen or unpickled DAG that
    gets another task re-derives the lists by running its whole task
    list through it.  Per task one row tuple of scalars is appended
    (and one of SpMV/SpMM inputs); :meth:`arrays` splits the rows into
    columns for ``freeze``.
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
        #: per task: (kernel code, param_i, first write id, writes,
        #: touches, flops, seq)
        self.rows = []
        self.write_ids = []
        self.touch_ids = []
        self.touch_nbytes = []
        #: per SpMV/SpMM task: (tid, nnz, rows, cols, width, gather
        #: span, reduction buffer, gather input id)
        self.sparse = []
        #: touch_role of every SpMV/SpMM task's touches, in order
        self.sparse_roles = []

    def intern(self, key) -> int:
        """The next dense id, for a ``(name, part)`` key not seen yet."""
        hid = self.key_to_id[key] = len(self.id_to_key)
        self.id_to_key.append(key)
        part = key[1]
        if part is not None and part >= self.max_part:
            self.max_part = part + 1
        return hid

    def _code(self, kernel: str) -> int:
        code = self.kernel_code.get(kernel)
        if code is None:
            code = self.kernel_code[kernel] = len(self.kernel_names)
            self.kernel_names.append(kernel)
        return code

    def arrays(self) -> _ColumnArrays:
        """The lists as the flat columns ``freeze`` converts."""
        i64, i32 = np.int64, np.int32
        (kernel_codes, param_i, first_write, n_writes, n_touches, flops,
         seq) = _unzip(self.rows, 7)
        return _ColumnArrays(
            self.id_to_key, self.max_part, self.kernel_names,
            *(np.array(c, dtype=i64) for c in (
                kernel_codes, param_i, first_write, n_writes, n_touches)),
            np.array(flops, dtype=np.float64),
            np.array(seq, dtype=i64),
            np.array(self.write_ids, dtype=i32),
            np.array(self.touch_ids, dtype=i32),
            np.array(self.touch_nbytes, dtype=i64),
            tuple(np.array(c, dtype=i64) for c in _unzip(self.sparse, 8)),
            np.array(self.sparse_roles, dtype=np.int8),
        )

    def add(self, tid: int, t: Task):
        """Record one task's row from its ``Task``; returns its interned
        read and write ids, each in ``reads``/``writes`` order,
        duplicates kept."""
        kernel = t.kernel
        code = self._code(kernel)
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
                    hid = self.intern(key)
                rids.append(hid)
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
            for h in t.writes:
                key = (h.name, h.part)
                hid = key_to_id.get(key)
                if hid is None:
                    hid = self.intern(key)
                wids.append(hid)
                if hid not in ids:
                    ids.append(hid)
                    nbytes.append(h.nbytes)
            spec = KERNELS.get(kernel)
            flops = float("nan") if spec is None else spec.flops(t.shape)
        else:
            # The same walk, also recording the inputs of
            # CostModel._effective_bytes and _gather_bundle, with their
            # defaults and KeyErrors: each touch's override role (by
            # operand name, Y before X) and the gather's input chunk
            # (first partitioned read not named A).  The flop count is
            # priced from these columns at freeze.
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
                    hid = self.intern(key)
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
                    hid = self.intern(key)
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
            flops = 0.0
        self.write_ids += wids
        self.touch_ids += ids
        i = params.get("i")
        self.rows.append((code, -1 if i is None else int(i),
                          wids[0] if wids else -1, len(wids), len(ids),
                          flops, t.seq))
        return rids, wids


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
    (int8 to int64): the index columns of plan and phase tables, which
    mostly point into tables of a few thousand entries."""
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
    """A forked child gets unheld locks: the service forks its pool
    workers while another thread may be growing the tid table or
    rebuilding a task list, and an inherited held lock would hang the
    child's first load or first ``dag.tasks``."""
    global _TID_LOCK, _REBUILD_LOCK
    _TID_LOCK = threading.Lock()
    _REBUILD_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_fresh_locks)


def tid_ints(n: int) -> np.ndarray:
    """An object array whose entry ``t`` is the one ``int`` for tid ``t``,
    for every ``t < n``.

    Pickle does not memoize ints, so lists decoded from a prep
    artifact's arrays would hold one ``int`` per occurrence; indexing
    this array instead copies references, so every adjacency list and
    BSP phase of every loaded DAG in the process names a tid with the
    same object.  Growing keeps the objects already handed out.
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


def _csr_or(held, memo) -> tuple:
    """The CSR pair of an adjacency held as a pair (``held`` itself) or
    as lists (``memo`` if derived already, else derived now)."""
    if type(held) is tuple:
        return held
    return memo or _csr(held)


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


def _same(a, b) -> bool:
    """Bit-exact equality of two frozen fields (arrays by dtype, shape
    and bytes)."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return a == b


class TaskDAG:
    """A DAG of :class:`~repro.graph.task.Task` nodes.

    Edges mean "must complete before".  Tasks get dense ids in
    insertion order, which for DAGs built by the
    :class:`~repro.graph.builder.DAGBuilder` coincides with the
    depth-first program order DeepSparse spawns tasks in.

    ``tasks`` of a built DAG, or of one that came out of a pickle
    without its list, is rebuilt on first use (see the module
    docstring); ``len``, ``sources``, ``in_degrees``,
    ``handle_interning``, ``by_kernel``, :meth:`kernel_of`,
    :meth:`levels` and :meth:`critical_path` of a frozen DAG answer
    without it.  Any mutation first rebuilds the list, then drops the
    recipe along with the frozen view: it no longer describes the
    graph.

    ``_cost_prep``, ``_home_arrays``, ``_sched_domains`` and
    ``_bsp_phases`` are the run invariants the cost model, the
    schedulers and BSP memoize on the DAG (and a prep artifact
    persists), keyed by their pricing/placement inputs.  A mutation
    of a frozen DAG drops all four with the frozen view, so the next
    run re-derives them for the new graph and no consumer checks
    them for staleness.
    """

    def __init__(self):
        self._tasks: Optional[List[Task]] = []
        #: How to build this graph afresh, as plain data (a prep
        #: artifact persists it in place of the task list), or None.
        self.recipe: Optional[dict] = None
        #: Zero-argument callable that expands this graph again with
        #: its ``Task`` objects (the builder's task mode); in memory
        #: only, never pickled.
        self._expand: Optional[Callable[[], "TaskDAG"]] = None
        #: Successor lists, or a built DAG's CSR pair until the first
        #: read of :attr:`succ` (kept under the plain name, so the
        #: pickled state reads the same either way).
        self.succ = []
        #: Predecessor lists, or a built or loaded DAG's CSR pair until
        #: the first read of :attr:`pred`.
        self._pred = []
        #: ``(u, v)`` dedup set for :meth:`add_edge`; None until
        #: :meth:`_edge_pairs` derives it from ``succ``.
        self._edge_set: Optional[set] = None
        #: Per-task columns :meth:`add_task` fills; None once frozen,
        #: pickled or loaded (re-derived by the next ``add_task``).
        self._cols: Optional[_Columns] = _Columns()
        self._key_to_id = None
        self._soa: Optional[GraphArrays] = None
        self._kernel_of: Optional[List[str]] = None
        self._succ_csr = None
        self._pred_csr = None
        self._cost_prep: dict = {}
        self._home_arrays: dict = {}
        self._sched_domains: dict = {}
        self._bsp_phases: dict = {}

    @classmethod
    def _from_columns(cls, cols: _ColumnArrays, succ: tuple, pred: tuple,
                      expand: Callable[[], "TaskDAG"]) -> "TaskDAG":
        """A DAG the builder computed in bulk: its frozen columns and
        both adjacency CSR pairs, and no task list, which ``expand``
        rebuilds on demand."""
        dag = cls()
        dag._tasks = None
        dag._cols = cols
        dag.succ = succ
        dag._pred = pred
        dag._expand = expand
        return dag

    @property
    def succ(self) -> List[List[int]]:
        """Successor lists, each in ascending tid order.

        A built DAG holds the builder's CSR pair and builds the lists
        on first read, with the shared :func:`tid_ints` objects.
        """
        succ = self.__dict__["succ"]
        if type(succ) is tuple:
            self.__dict__["succ"] = rows = _rows(succ)
            if self._soa is not None:
                self._succ_csr = succ
            return rows
        return succ

    @succ.setter
    def succ(self, value) -> None:
        self.__dict__["succ"] = value

    @property
    def pred(self) -> List[List[int]]:
        """Predecessor lists, in wiring order.

        A built or loaded DAG keeps them as a CSR pair and builds the
        lists on first read (no simulation run reads them: BSP phases
        carry their own intra-phase predecessors), with the shared
        :func:`tid_ints` objects ``succ`` holds.
        """
        pred = self._pred
        if type(pred) is tuple:
            self._pred = rows = _rows(pred)
            if self._soa is not None:
                self._pred_csr = pred
            return rows
        return pred

    def pred_csr(self):
        """``(indptr, indices)``: the predecessor lists as CSR arrays.

        A built or loaded DAG's pair as it is; otherwise derived from
        ``pred`` on demand like :meth:`succ_csr`, for BSP's phase
        table and for pickling, and dropped with the frozen view on any
        mutation.
        """
        pred = self._pred
        if type(pred) is tuple:
            return pred
        csr = self._pred_csr
        if csr is None:
            self.freeze()
            csr = self._pred_csr = _csr(pred)
        return csr

    @property
    def tasks(self) -> List[Task]:
        """The task list, rebuilt on first use if the DAG has none."""
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

        A built DAG expands its trace again in the builder's task mode;
        a loaded one builds through its recipe
        (:func:`repro.analysis.experiment._rebuild_dag`), whose own
        list comes from that DAG's task mode in turn.  Every frozen
        field and both adjacency lists must match this DAG's, so a
        recipe that no longer reproduces the persisted arrays (the
        builder changed, the artifact layout did not) fails closed
        rather than hand out tasks that disagree with the plans, and a
        task mode that strays from the columns the build wrote fails
        the same way.
        """
        if self._expand is not None:
            fresh = self._expand()
        elif self.recipe is not None:
            from repro.analysis import experiment

            fresh = experiment._rebuild_dag(self.recipe)
        else:
            raise RuntimeError("DAG has no task list and no way to "
                               "rebuild it")
        ours, theirs = self.freeze(), fresh.freeze()
        for f in fields(GraphArrays):
            name = f.name
            if not _same(getattr(ours, name), getattr(theirs, name)):
                self._drifted(name)
        for name in ("succ", "pred"):
            if getattr(self, name) != getattr(fresh, name):
                self._drifted(name)
        return fresh.tasks

    @staticmethod
    def _drifted(name: str):
        raise RuntimeError(
            f"rebuilt DAG differs from this one in {name}: its recipe "
            "no longer reproduces its task list; for a prep artifact, "
            "bump PREP_FORMAT in repro.bench.prep and run "
            "`repro prep gc`")

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
        rebuilds.  The per-task columns arrive as flat arrays (the
        builder's, or ``add_task``'s lists converted); this narrows
        them, prices the SpMV/SpMM flop counts from their pricing inputs
        in bulk, and drops the inputs.  The arrays are a pure function
        of the DAG — two processes freezing the same graph produce
        identical tables, which is what lets the prep store persist
        them.
        """
        soa = self._soa
        if soa is not None:
            return soa
        cols = self._columns()
        if isinstance(cols, _Columns):
            cols = cols.arrays()
        n = len(self)
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
        pred = self._pred
        soa = GraphArrays(
            n_tasks=n,
            n_edges=self.n_edges,
            indegree=(np.diff(pred[0]).astype(i32) if type(pred) is tuple
                      else np.fromiter(map(len, pred), i32, n)),
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
        self._soa = soa
        self._cols = None
        return soa

    def succ_csr(self):
        """``(indptr, indices)``: the successor lists as CSR arrays.

        A built DAG's pair as it is; otherwise derived from ``succ`` on
        demand for the vectorized analyses (:meth:`levels`,
        :meth:`critical_path`) and the builder's forward-edge check,
        never pickled, and dropped with the frozen view on any mutation.
        """
        succ = self.__dict__["succ"]
        if type(succ) is tuple:
            return succ
        csr = self._succ_csr
        if csr is None:
            self.freeze()
            csr = self._succ_csr = _csr(succ)
        return csr

    def _columns(self):
        """The per-task columns not yet frozen (the builder's arrays or
        ``add_task``'s lists), re-derived from the task list if
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
        self._succ_csr = None
        self._pred_csr = None
        self.recipe = None
        self._expand = None
        self._cost_prep = {}
        self._home_arrays = {}
        self._sched_domains = {}
        self._bsp_phases = {}

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
        self.tasks  # a built or loaded DAG rebuilds its list first
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
        """Leave the task list out of a frozen DAG that has a recipe;
        any other DAG pickles its list, rebuilt first if need be.

        ``succ`` and ``pred`` travel as CSR pairs (``_csr``, offsets
        narrowed like the frozen columns).  Pickle does not memoize
        ints, so pickled lists would load with one ``int`` object per
        edge end; :meth:`__setstate__` rebuilds ``succ`` with one per
        tid, and ``pred`` stays a CSR pair until it is read.  A frozen
        DAG's memoized pairs are reused.
        """
        state = self.__dict__.copy()
        for name, csr in (
                ("succ", _csr_or(state["succ"], self._succ_csr)),
                ("_pred", _csr_or(self._pred, self._pred_csr))):
            indptr, indices = csr
            state[name] = (_narrow(indptr), indices)
        state["_edge_set"] = None
        state["_kernel_of"] = None
        state["_cols"] = None
        state["_key_to_id"] = None
        state["_succ_csr"] = None
        state["_pred_csr"] = None
        state["_expand"] = None
        if self.recipe is not None and self._soa is not None:
            state["_tasks"] = None
        else:
            state["_tasks"] = self.tasks
        return state

    def __setstate__(self, state):
        """Rebuild ``succ`` from its CSR pair (``_rows``); ``pred``
        waits for its first read."""
        state["succ"] = _rows(state["succ"])
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # One adjacency row per task, built or loaded: never rebuilds.
        succ = self.__dict__["succ"]
        return len(succ[0]) - 1 if type(succ) is tuple else len(succ)

    @property
    def n_edges(self) -> int:
        soa = self._soa
        if soa is not None:
            return soa.n_edges
        succ = self.__dict__["succ"]
        if type(succ) is tuple:
            return len(succ[1])
        return sum(map(len, succ))

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
