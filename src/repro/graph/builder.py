"""The Task Dependency Graph Generator (TDGG).

Decomposes a function-call-level trace into fine-grained tasks:

* 2-D kernels (SpMV/SpMM) get one task per **non-empty CSB block**
  (Fig. 1), with the *dependency-based* output policy by default —
  tasks updating the same output row chunk are chained, avoiding the
  reduction buffers (§3, adopted in all three frameworks) — or the
  *reduction-based* policy (private partial buffers + a reduce task per
  row chunk) for the Fig. 7 ablation.
* 1-D kernels (XY, XTY, AXPY, …) get one task per row-block chunk;
  XTY and DOT produce per-chunk partials plus a final reduce task
  (Fig. 2).
* Small dense ops (Rayleigh–Ritz, tiny eigensolves) stay single tasks.

Each ``_op_*`` handler emits its whole call as arrays: the call's tids,
and per group of tasks their kernel, ``params["i"]``, shape inputs (or
SpMV/SpMM pricing inputs) and a ``params`` maker; per access of those
tasks its tid, operand name, partition, bytes and whether it writes,
reads before writes within a task.  The block grid drives SpMV/SpMM
(``np.nonzero`` in row-major order, with the ``SCALE`` tasks that zero
empty output rows in between), and row chunks drive the 1-D ops.

:meth:`DAGBuilder.build` then turns the trace's accesses, sorted into
program order, into the DAG in a few whole-trace NumPy passes, with no
Python work per task:

* **Interning** — one first-occurrence ``np.unique`` over an int code
  of ``(name, part)`` numbers the handles in first-appearance order,
  the dense ids of the DAG's frozen view; each id's bytes are those of
  its first reference.
* **Columns** — kernel codes, write and touch tables (first occurrence
  per task kept), flop counts priced through the kernel registry once
  per distinct shape, the SpMV/SpMM pricing inputs: the
  :class:`~repro.graph.dag._ColumnArrays` that ``freeze`` converts.
* **Hazards** — RAW, WAR and WAW hazards all become edges, which is
  exactly what OpenMP ``depend`` clauses, HPX futures, and Regent
  privilege analysis each compute for the same program.  Sorted by
  handle and then program order, each access finds the last write
  before it (its RAW or WAW predecessor), and each write's readers
  since that write are the contiguous run of reads between the two.
  Per task the predecessors are deduplicated, first occurrence kept,
  and self edges dropped: the predecessor CSR, in the order a per-task
  walk wires them, and ``succ`` is its stable transpose.

The built DAG carries both CSR pairs and no task list; its first
``dag.tasks`` runs the same handlers again in *task mode*, where the
emitted arrays become ``Task`` objects (shared handles, shape and
params dicts) added one by one through :meth:`TaskDAG.add_task`'s
per-``Task`` column walk and wired by :meth:`DAGBuilder._wire`, the
per-task hazard walk.  The DAG then checks that the columns and the
adjacency that walk derived equal the ones the bulk build produced,
field by field, before it adopts the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.dag import TaskDAG, _ColumnArrays
from repro.graph.task import DataHandle, Task
from repro.graph.trace import PrimitiveCall
from repro.kernels.registry import kernel_spec
from repro.matrices.csb import CSBMatrix

__all__ = ["BuildOptions", "DAGBuilder"]

_F8 = 8
_I64 = np.int64


@dataclass(frozen=True)
class BuildOptions:
    """Decomposition policy knobs (the paper's §5.1 optimizations).

    Attributes
    ----------
    skip_empty:
        Spawn SpMV/SpMM tasks only for non-empty CSB blocks (Fig. 6
        ablation flips this off: empty blocks still cost a task spawn).
    spmm_mode:
        ``"dependency"`` chains tasks on the output row chunk;
        ``"reduction"`` gives each task a private partial buffer and
        adds per-row reduce tasks (Fig. 7 ablation).
    csr_storage:
        The ``libcsr`` storage model: SpMV/SpMM gathers from the input
        vector span the *whole* vector (CSR column indices are
        unrestricted), instead of being confined to one block-column
        chunk as in CSB.  Affects the gather span the cost model sees,
        not the task census.
    """

    skip_empty: bool = True
    spmm_mode: str = "dependency"
    csr_storage: bool = False

    def __post_init__(self):
        if self.spmm_mode not in ("dependency", "reduction"):
            raise ValueError(
                f"spmm_mode must be 'dependency' or 'reduction', "
                f"got {self.spmm_mode!r}"
            )


# ----------------------------------------------------------------------
# Shape makers.  A task's shape dictionary is a pure function of these
# arguments, so column mode prices each distinct argument tuple of a
# group through the kernel registry once; task mode calls the maker per
# task.
# ----------------------------------------------------------------------

def _streams(rows, width, streams):
    return {"rows": rows, "width": width, "streams": streams}


def _streams_1op(rows, width, streams):
    return {"rows": rows, "width": width, "streams": streams,
            "ops_per_elem": 1}


def _gemm(rows, w1, w2):
    return {"rows": rows, "w1": w1, "w2": w2}


def _reduce(n_parts, elems):
    return {"n_parts": n_parts, "elems": elems}


def _dense(k):
    return {"k": k}


# ----------------------------------------------------------------------
# Whole-trace passes
# ----------------------------------------------------------------------

def _intern(values: np.ndarray):
    """Dense ids of ``values`` in first-appearance order: the id of
    every entry, and the index of each id's first entry."""
    _, first, inverse = np.unique(values, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=_I64)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], first[order]


def _full(value, m: int) -> np.ndarray:
    """``value`` if it is an array already, else ``m`` copies of it."""
    return value if isinstance(value, np.ndarray) else np.full(m, value)


def _first(codes: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value of ``codes``."""
    mask = np.zeros(codes.size, dtype=bool)
    mask[np.unique(codes, return_index=True)[1]] = True
    return mask


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts,
    counts)])``, in one pass."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(
        int(ends[-1]) if ends.size else 0)


def _csr_of_rows(rows: np.ndarray, values: np.ndarray, n: int) -> tuple:
    """``(indptr, indices)`` of ``values`` grouped by ``rows`` (already
    in row order): int64 offsets, int32 entries."""
    indptr = np.zeros(n + 1, dtype=_I64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, values.astype(np.int32)


def _hazard_pred(tid: np.ndarray, hid: np.ndarray, write: np.ndarray,
                 n: int) -> tuple:
    """The predecessor CSR of ``n`` tasks from their accesses.

    ``tid``/``hid``/``write`` list every access in program order (tid
    order; within a task reads, then writes, each in operand order).
    An access's predecessors are the last write of its handle before
    it (RAW for a read, WAW for a write) and, for a write, the reads
    of the handle since that write (WAR), in program order.  A task's
    predecessors are its accesses' in turn, first occurrence kept and
    itself left out (a task that reads and writes one handle meets
    itself among the readers): :meth:`DAGBuilder._wire`'s order.
    """
    m = tid.size
    if m == 0:
        return _csr_of_rows(tid, tid, n)
    # Accesses by handle, each handle's in program order.
    order = np.argsort(hid, kind="stable")
    h, w, t = hid[order], write[order], tid[order]
    k = np.arange(m)
    new = np.ones(m, dtype=bool)
    np.not_equal(h[1:], h[:-1], out=new[1:])
    start = np.maximum.accumulate(np.where(new, k, 0))
    # The last write strictly before each access, if of its handle:
    # every access between the two is a read.
    last = np.empty(m, dtype=_I64)
    last[0] = -1
    last[1:] = np.maximum.accumulate(np.where(w, k, -1))[:-1]
    last[last < start] = -1
    has_writer = last >= 0
    lo = np.where(has_writer, last + 1, start)
    n_readers = np.where(w, k - lo, 0)
    # One slot per predecessor, grouped by access in program order:
    # the writer first, then the readers.
    per = np.empty(m, dtype=_I64)
    per[order] = has_writer + n_readers
    slot = (np.cumsum(per) - per)[order]
    src = np.empty(int(per.sum()), dtype=_I64)
    src[slot[has_writer]] = t[last[has_writer]]
    run = np.flatnonzero(n_readers)
    counts = n_readers[run]
    src[_runs(slot[run] + has_writer[run], counts)] = t[
        _runs(lo[run], counts)]
    dst = np.repeat(tid, per)
    keep = _first(dst * n + src) & (src != dst)
    return _csr_of_rows(dst[keep], src[keep], n)


def _transpose(csr: tuple, n: int) -> tuple:
    """The successor CSR of a predecessor CSR: each task's successors in
    ascending tid order."""
    indptr, indices = csr
    rows = np.repeat(np.arange(n, dtype=_I64), np.diff(indptr))
    by = np.argsort(indices, kind="stable")
    return _csr_of_rows(indices[by], rows[by], n)


class DAGBuilder:
    """Expands a primitive trace over one CSB matrix into a TaskDAG.

    Parameters
    ----------
    csb:
        The input matrix; its block census drives SpMV/SpMM task
        creation and its row-block geometry partitions every vector.
    matrix_name:
        The operand name under which the solver trace refers to the
        matrix (usually ``"A"``).
    chunked:
        ``name -> width`` for every row-partitioned operand (vector
        blocks; width 1 for plain vectors).
    small:
        ``name -> (rows, cols)`` for unpartitioned small operands;
        scalars are ``(1, 1)``.
    options:
        Decomposition policy.
    """

    def __init__(
        self,
        csb: CSBMatrix,
        matrix_name: str = "A",
        chunked: Dict[str, int] = None,
        small: Dict[str, Tuple[int, int]] = None,
        options: BuildOptions = None,
    ):
        self.csb = csb
        self.matrix_name = matrix_name
        self.chunked = dict(chunked or {})
        self.small = dict(small or {})
        self.options = options or BuildOptions()
        self.np_ = csb.nbr
        self._rows = np.array(
            [b - a for a, b in map(csb.row_block_bounds, range(self.np_))],
            dtype=_I64)
        self._cols = np.array(
            [b - a for a, b in map(csb.col_block_bounds, range(csb.nbc))],
            dtype=_I64)
        self._parts = np.arange(self.np_, dtype=_I64)
        #: Task mode's handle memo: one shared DataHandle per key.
        self._handles: Dict[tuple, DataHandle] = {}
        self._idle()

    def _idle(self) -> None:
        """Drop the per-expansion state (the block grid included: a
        built DAG keeps its builder for task mode, not these)."""
        self._n = 0
        #: per group of tasks: (kernel, tids, params i, shape maker,
        #: shape args, params maker, SpMV/SpMM pricing inputs or None)
        self._groups: list = []
        #: per access run: (tids, name code(s), parts or None, bytes,
        #: writes)
        self._acc: list = []
        self._name_code: dict = {}
        self._names: List[str] = []
        #: per call: (seq, iteration, tasks made)
        self._calls: list = []
        self._buf_counter = 0
        self._grid = None
        #: task mode's hazard state (:meth:`_wire`), by handle id
        self._writer: List[int] = []
        self._readers: List[List[int]] = []

    # ------------------------------------------------------------------
    # Emit: each handler's whole call as arrays.  Within a task,
    # accesses keep their emission order, so handlers emit a task's
    # reads, in operand order, before its writes.
    # ------------------------------------------------------------------
    def _new(self, m: int) -> np.ndarray:
        """The next ``m`` tids."""
        tids = np.arange(self._n, self._n + m, dtype=_I64)
        self._n += m
        return tids

    def _tasks(self, kernel, tids, i, shape_of, sargs, params_of,
               sparse=None) -> None:
        """A group of tasks of one kernel.

        ``i`` is their ``params["i"]`` (an array, or -1 for none) and
        ``shape_of(*sargs)`` their shape, where an argument may be an
        array with one entry per task; ``params_of(k)`` makes the
        ``params`` of the ``k``-th.  A SpMV/SpMM group passes its
        ``sparse`` pricing inputs (nnz, rows, cols, width, gather span
        arrays and the reduction-buffer flag) instead of a shape maker.
        """
        self._groups.append((kernel, tids, i, shape_of, sargs, params_of,
                             sparse))

    def _access(self, tids, code, parts, nbytes, write=False) -> None:
        """One access per entry of ``tids`` to handle ``(name, part)``:
        ``code`` is the interned name (or an array of them), ``parts``
        an array or None for an unpartitioned operand."""
        self._acc.append((tids, code, parts, nbytes, write))

    def _name(self, name: str) -> int:
        code = self._name_code.get(name)
        if code is None:
            code = self._name_code[name] = len(self._names)
            self._names.append(name)
        return code

    def _chunk(self, tids, name, parts, write=False) -> None:
        self._access(tids, self._name(name), parts,
                     self._rows[parts] * (self.chunked[name] * _F8), write)

    def _small(self, tids, name, write=False) -> None:
        r, c = self.small[name]
        self._access(tids, self._name(name), None, r * c * _F8, write)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, calls: List[PrimitiveCall]) -> TaskDAG:
        """Expand the trace into a validated, frozen TaskDAG.

        The DAG carries no task list: its first ``dag.tasks`` expands
        ``calls`` again through :meth:`_task_dag`.
        """
        try:
            self._expand(calls)
            cols, succ, pred = self._bulk()
        finally:
            self._idle()
        dag = TaskDAG._from_columns(cols, succ, pred,
                                    partial(self._task_dag, calls))
        self._place(dag)
        # Freeze the structure-of-arrays view once here: every engine,
        # cost model and scheduler that later executes this DAG reads
        # the same flat tables, and the prep store persists them.
        dag.freeze()
        _check_forward(dag)
        return dag

    def _task_dag(self, calls: List[PrimitiveCall]) -> TaskDAG:
        """The same expansion in task mode: a DAG whose ``Task`` list
        is filled through ``add_task`` (what ``dag.tasks`` of a built
        DAG adopts once its columns check out)."""
        dag = TaskDAG()
        try:
            self._expand(calls)
            self._add_tasks(dag)
        finally:
            self._idle()
        self._place(dag)
        return dag

    def _expand(self, calls: List[PrimitiveCall]) -> None:
        self._idle()
        self._grid = np.asarray(self.csb.block_nnz_grid(), dtype=_I64)
        for seq, call in enumerate(calls):
            start = self._n
            getattr(self, f"_op_{call.op.lower()}")(call)
            self._calls.append((seq, call.iteration, self._n - start))

    def _accesses(self):
        """Every access as flat arrays (tid, name code, part or -1,
        bytes, writes), in program order."""
        runs = [(tids, _full(code, tids.size),
                 _full(-1 if parts is None else parts, tids.size),
                 _full(nbytes, tids.size), _full(write, tids.size))
                for tids, code, parts, nbytes, write in self._acc]
        if not runs:
            empty = np.zeros(0, dtype=_I64)
            return empty, empty, empty, empty, empty.astype(bool)
        tid, code, part, nbytes, write = map(np.concatenate, zip(*runs))
        order = np.argsort(tid, kind="stable")
        return (tid[order], code[order], part[order],
                nbytes[order].astype(_I64), write[order])

    def _bulk(self):
        """Column mode: the trace's frozen columns and its successor and
        predecessor CSR pairs, from the emitted arrays."""
        n = self._n
        kernel = np.empty(n, dtype=_I64)
        param_i = np.empty(n, dtype=_I64)
        flops = np.empty(n, dtype=np.float64)
        kernels: dict = {}
        sparse = []
        for name, tids, i, shape_of, sargs, _p, spm in self._groups:
            kernel[tids] = kernels.setdefault(name, len(kernels))
            param_i[tids] = i
            if spm is None:
                flops[tids] = self._flops(name, shape_of, sargs)
            else:  # priced at freeze from the pricing inputs
                flops[tids] = 0.0
                sparse.append((tids, *(_full(c, tids.size) for c in spm)))
        codes, first = _intern(kernel)
        names = list(kernels)
        kernel_names = [names[c] for c in kernel[first].tolist()]
        tid, code, part, nbytes, write = self._accesses()
        # Handles: ids in first-appearance order over the accesses.
        stride = int(part.max()) + 2 if part.size else 1
        hid, first_ref = _intern(code * stride + part + 1)
        key_part = part[first_ref].astype(object)
        key_part[key_part < 0] = None
        id_to_key = list(zip(
            np.array(self._names, dtype=object)[code[first_ref]].tolist(),
            key_part.tolist()))
        id_nbytes = nbytes[first_ref]
        n_ids = len(id_to_key)
        # Writes, in order, and touches: each task's distinct handles,
        # first occurrence kept, with the handle's bytes.
        n_writes = np.bincount(tid[write], minlength=n)
        write_ids = hid[write].astype(np.int32)
        first_write = np.full(n, -1, dtype=_I64)
        has = n_writes > 0
        first_write[has] = write_ids[(np.cumsum(n_writes) - n_writes)[has]]
        touch = _first(tid * n_ids + hid)
        touch_ids = hid[touch].astype(np.int32)
        # SpMV/SpMM pricing inputs, by tid; the gather input is each
        # task's second access (block, input chunk, output).
        if sparse:
            sp = [np.concatenate(c) for c in zip(*sparse)]
            by = np.argsort(sp[0], kind="stable")
            sp = [c[by].astype(_I64) for c in sp]
            n_acc = np.bincount(tid, minlength=n)
            sp.append(hid[(np.cumsum(n_acc) - n_acc)[sp[0]] + 1])
        else:
            sp = [np.zeros(0, dtype=_I64)] * 8
        cols = _ColumnArrays(
            id_to_key=id_to_key,
            max_part=int(part.max()) + 1 if part.size else 0,
            kernel_names=kernel_names,
            kernel_codes=codes,
            param_i=param_i,
            first_write=first_write,
            n_writes=n_writes,
            n_touches=np.bincount(tid[touch], minlength=n),
            flops=flops,
            seq=np.repeat(np.array([c[0] for c in self._calls], dtype=_I64),
                          [c[2] for c in self._calls]),
            write_ids=write_ids,
            touch_ids=touch_ids,
            touch_nbytes=id_nbytes[touch_ids],
            sparse=tuple(sp),
            sparse_roles=np.tile(np.array([0, 1, 2], dtype=np.int8),
                                 sp[0].size),
        )
        pred = self._hazards(tid, hid, write, n)
        return cols, _transpose(pred, n), pred

    def _hazards(self, tid, hid, write, n) -> tuple:
        """The predecessor CSR of the trace's accesses
        (:func:`_hazard_pred`)."""
        return _hazard_pred(tid, hid, write, n)

    def _flops(self, kernel, shape_of, sargs):
        """The registry's flop count of ``shape_of(*sargs)``: a float,
        or per task if an argument is per task, priced once per
        distinct argument tuple."""
        flops = kernel_spec(kernel).flops
        arrays = [a for a in sargs if isinstance(a, np.ndarray)]
        if not arrays:
            return flops(shape_of(*sargs))
        key = arrays[0]
        for a in arrays[1:]:
            key = key * (int(a.max()) + 1) + a
        _, at, inverse = np.unique(key, return_index=True,
                                   return_inverse=True)
        values = []
        for k in at.tolist():
            values.append(flops(shape_of(*(
                int(a[k]) if isinstance(a, np.ndarray) else a
                for a in sargs))))
        return np.array(values, dtype=np.float64)[inverse.reshape(-1)]

    # ------------------------------------------------------------------
    # Task mode: the emitted arrays as ``Task`` objects, one at a time,
    # through ``add_task``'s column walk and the per-task hazard walk.
    # ------------------------------------------------------------------
    def _add_tasks(self, dag: TaskDAG) -> None:
        n = self._n
        owner = [None] * n
        groups = []
        for g, (kernel, tids, _i, shape_of, sargs, params_of,
                spm) in enumerate(self._groups):
            lists = [a.tolist() if isinstance(a, np.ndarray) else None
                     for a in (spm or sargs)]
            groups.append((kernel, shape_of, sargs, params_of, spm, lists))
            for k, t in enumerate(tids.tolist()):
                owner[t] = (g, k)
        calls = [(seq, it) for seq, it, m in self._calls for _ in range(m)]
        tid, code, part, nbytes, write = self._accesses()
        per_task = np.bincount(tid, minlength=n).tolist()
        acc = zip(code.tolist(), part.tolist(), nbytes.tolist(),
                  write.tolist())
        names = self._names
        for t in range(n):
            g, k = owner[t]
            kernel, shape_of, sargs, params_of, spm, lists = groups[g]
            reads, writes = [], []
            for _ in range(per_task[t]):
                c, p, b, w = next(acc)
                (writes if w else reads).append(
                    self._ref(names[c], None if p < 0 else p, b))
            if spm is None:
                shape = shape_of(*(a if v is None else v[k]
                                   for a, v in zip(sargs, lists)))
            else:
                nnz, rows, cols, width, span = (
                    a if v is None else v[k]
                    for a, v in zip(spm[:5], lists))
                shape = {"nnz": nnz, "rows": rows, "cols": cols,
                         "width": width, "gather_span": span}
            seq, it = calls[t]
            dag._add_wired(
                Task(-1, kernel, tuple(reads), tuple(writes), shape,
                     params_of(k), it, seq),
                self._wire,
            )

    def _ref(self, name: str, part, nbytes: int) -> DataHandle:
        """Task mode's shared handle for ``(name, part)``."""
        key = (name, part)
        h = self._handles.get(key)
        if h is None:
            h = self._handles[key] = DataHandle(name, part, nbytes)
        return h

    def _wire(self, tid: int, rids, wids, n_ids: int) -> List[int]:
        """Predecessors of task ``tid`` from its read and write ids: the
        per-task walk :func:`_hazard_pred` does for a whole trace.

        RAW: each read's last writer.  WAW and WAR: each write's last
        writer, then the readers since that write.  Deduplicated in
        first-occurrence order, with ``tid`` itself left out (a task
        that reads and writes one handle meets itself among the
        readers).  The matrix is read but never written, so its
        readers lists are never drained.
        """
        writer = self._writer
        readers = self._readers
        if n_ids > len(writer):  # handles first seen by this task
            for _ in range(n_ids - len(writer)):
                writer.append(-1)
                readers.append([])
        preds = []
        for hid in rids:
            w = writer[hid]
            if w >= 0:
                preds.append(w)
            readers[hid].append(tid)
        for hid in wids:
            w = writer[hid]
            if w >= 0:
                preds.append(w)
            preds += readers[hid]
            writer[hid] = tid
            readers[hid] = []
        if len(preds) > 1 or (preds and preds[0] == tid):
            first = dict.fromkeys(preds)
            first.pop(tid, None)
            preds = list(first)
        return preds

    def _place(self, dag: TaskDAG) -> None:
        # Partition geometry for NUMA placement: vector chunks use row
        # partition indices; matrix handles use row-major block ids that
        # the memory model must map back to block rows.
        dag.n_partitions = self.np_
        dag.matrix_name = self.matrix_name
        dag.matrix_nbc = self.csb.nbc

    # -- SPMM / SPMV ---------------------------------------------------
    def _op_spmm(self, call: PrimitiveCall) -> None:
        _a, xname = call.reads
        (yname,) = call.writes
        if xname == yname:
            raise ValueError(
                "SPMM cannot run in place (input and output vector "
                f"are both {xname!r}); no sparse kernel supports that"
            )
        w = self.chunked[xname]
        kernel = "SPMV" if w == 1 else "SPMM"
        reduction = self.options.spmm_mode == "reduction"
        grid = self._grid
        stored = (grid != 0 if self.options.skip_empty
                  else np.ones(grid.shape, dtype=bool))
        ii, jj = np.nonzero(stored)  # row-major
        per_row = np.count_nonzero(stored, axis=1)
        # Each row's tasks: its blocks in column order (then its reduce
        # task), or one SCALE that zeroes the output of an empty row.
        size = np.maximum(per_row + reduction, 1)
        row_at = self._n + np.cumsum(size) - size
        self._n += int(size.sum())
        blk_at = np.cumsum(per_row) - per_row
        pos = np.arange(ii.size) - blk_at[ii]
        tids = row_at[ii] + pos
        empty = np.flatnonzero(per_row == 0)
        if empty.size:
            zero = row_at[empty]
            self._tasks(
                "SCALE", zero, empty, _streams_1op, (self._rows[empty], w, 1),
                lambda k: {"i": int(empty[k]), "X": yname, "alpha": 0.0})
            self._chunk(zero, yname, empty, write=True)
        if not ii.size:
            return
        # CSB confines a task's gathers to one block column of the
        # input (the chunk); CSR's column indices are unrestricted, so
        # libcsr gathers span the whole vector.
        if self.options.csr_storage:
            span = self.csb.shape[1] * w * _F8
        else:
            span = self._rows[jj] * (w * _F8)
        nnz = grid[ii, jj]
        sparse = (nnz, self._rows[ii], self._cols[jj], w, span, reduction)
        aname = self.matrix_name
        blocks = (self._name(aname), ii * self.csb.nbc + jj, nnz * (_F8 + 8))
        if not reduction:
            # Chain tasks on (Y, i): first overwrites, rest accumulate.
            first = pos == 0
            self._tasks(kernel, tids, ii, None, (), lambda k: {
                "i": int(ii[k]), "j": int(jj[k]), "A": aname, "X": xname,
                "Y": yname, "zero_first": bool(first[k])}, sparse)
            self._access(tids, *blocks)
            self._chunk(tids, xname, jj)
            later = ~first
            self._chunk(tids[later], yname, ii[later])
            self._chunk(tids, yname, ii, write=True)
            return
        # Private partial buffer per task + one reduce task per row.
        c0 = self._buf_counter
        self._buf_counter += ii.size
        bufs = [f"__{yname}__spmmbuf{c}"
                for c in range(c0 + 1, self._buf_counter + 1)]
        buf_codes = np.array([self._name(b) for b in bufs], dtype=_I64)
        buf_bytes = self._rows[ii] * (w * _F8)
        self._tasks(kernel, tids, ii, None, (), lambda k: {
            "i": int(ii[k]), "j": int(jj[k]), "A": aname, "X": xname,
            "Y": bufs[k], "zero_first": True, "buffer": True}, sparse)
        self._access(tids, *blocks)
        self._chunk(tids, xname, jj)
        self._access(tids, buf_codes, ii, buf_bytes, write=True)
        full = np.flatnonzero(per_row)
        red = row_at[full] + per_row[full]
        self._tasks(
            "SPMM_REDUCE", red, full, _reduce,
            (per_row[full], self._rows[full] * w),
            lambda k: {"i": int(full[k]),
                       "bufs": bufs[blk_at[full[k]]:
                                    blk_at[full[k]] + per_row[full[k]]],
                       "out": yname})
        red_of_row = np.zeros(self.np_, dtype=_I64)
        red_of_row[full] = red
        self._access(red_of_row[ii], buf_codes, ii, buf_bytes)
        self._chunk(red, yname, full, write=True)

    # -- XY: Q = Y @ Z ---------------------------------------------------
    def _op_xy(self, call: PrimitiveCall) -> None:
        yname, zname = call.reads
        (qname,) = call.writes
        if qname == yname:
            raise ValueError(
                "XY cannot write its own input block "
                f"({yname!r}); dgemm output must not alias an operand"
            )
        w1 = self.chunked[yname]
        w2 = self.chunked[qname]
        meta = call.meta_dict
        accumulate = bool(meta.get("accumulate", False))
        beta = float(meta.get("beta", 1.0))
        i = self._parts
        t = self._new(self.np_)
        self._tasks("XY", t, i, _gemm, (self._rows, w1, w2), lambda k: {
            "i": k, "Y": yname, "Z": zname, "Q": qname,
            "accumulate": accumulate, "beta": beta})
        self._chunk(t, yname, i)
        self._small(t, zname)
        if accumulate:
            self._chunk(t, qname, i)
        self._chunk(t, qname, i, write=True)

    # -- XTY: P = Xᵀ @ Y, DOT: s = <X, Y> ---------------------------------
    def _partials(self, call, kernel, tag, elems, shape_of, sargs,
                  reduce_params) -> None:
        """Per-chunk partials into a fresh buffer, then one reduce task
        into the small output."""
        xname, yname = call.reads
        (oname,) = call.writes
        self._buf_counter += 1
        bufname = f"__{oname}__{tag}{self._buf_counter}"
        buf = self._name(bufname)
        i = self._parts
        t = self._new(self.np_)
        self._tasks(kernel, t, i, shape_of, sargs, lambda k: {
            "i": k, "X": xname, "Y": yname, "buf": bufname})
        self._chunk(t, xname, i)
        self._chunk(t, yname, i)
        self._access(t, buf, i, elems * _F8, write=True)
        r = self._new(1)
        self._tasks(f"{kernel}_REDUCE", r, -1, _reduce, (self.np_, elems),
                    lambda k: reduce_params(bufname, oname))
        self._access(np.repeat(r, self.np_), buf, i, elems * _F8)
        self._small(r, oname, write=True)

    def _op_xty(self, call: PrimitiveCall) -> None:
        w1 = self.chunked[call.reads[0]]
        w2 = self.chunked[call.reads[1]]
        n_parts = self.np_
        self._partials(
            call, "XTY", "xtybuf", w1 * w2, _gemm, (self._rows, w1, w2),
            lambda buf, out: {"buf": buf, "out": out, "n_parts": n_parts})

    def _op_dot(self, call: PrimitiveCall) -> None:
        w = self.chunked[call.reads[0]]
        post = call.meta_dict.get("post", "identity")
        self._partials(
            call, "DOT", "dotbuf", 1, _streams, (self._rows, w, 2),
            lambda buf, out: {"buf": buf, "out": out, "post": post})

    # -- BLAS-1 chunk ops -------------------------------------------------
    def _op_axpy(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        xname = call.reads[0]
        (yname,) = call.writes
        w = self.chunked[yname]
        alpha_name = meta.get("alpha_name")
        i = self._parts
        t = self._new(self.np_)
        self._tasks("AXPY", t, i, _streams, (self._rows, w, 3), lambda k: {
            "i": k, "X": xname, "Y": yname, "alpha": meta.get("alpha", 1.0),
            "alpha_name": alpha_name,
            "alpha_op": meta.get("alpha_op", "identity")})
        self._chunk(t, xname, i)
        self._chunk(t, yname, i)
        if alpha_name:
            self._small(t, alpha_name)
        self._chunk(t, yname, i, write=True)

    def _op_scale(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        (xname,) = call.writes
        w = self.chunked[xname]
        alpha_name = meta.get("alpha_name")
        i = self._parts
        t = self._new(self.np_)
        self._tasks("SCALE", t, i, _streams_1op, (self._rows, w, 2),
                    lambda k: {"i": k, "X": xname,
                               "alpha": meta.get("alpha", 1.0),
                               "alpha_name": alpha_name,
                               "alpha_op": meta.get("alpha_op", "identity")})
        self._chunk(t, xname, i)
        if alpha_name:
            self._small(t, alpha_name)
        self._chunk(t, xname, i, write=True)

    def _op_copy(self, call: PrimitiveCall) -> None:
        (xname,) = call.reads
        (yname,) = call.writes
        w = self.chunked[yname]
        meta = call.meta_dict
        i = self._parts
        t = self._new(self.np_)
        self._tasks("COPY", t, i, _streams_1op, (self._rows, w, 2),
                    lambda k: {"i": k, "X": xname, "Y": yname,
                               "col": meta.get("col"),
                               "src_col": meta.get("src_col", 0)})
        self._chunk(t, xname, i)
        self._chunk(t, yname, i, write=True)

    def _binary_chunk_op(self, call, kernel):
        xname, yname = call.reads
        (oname,) = call.writes
        w = self.chunked[oname]
        i = self._parts
        t = self._new(self.np_)
        self._tasks(kernel, t, i, _streams, (self._rows, w, 3), lambda k: {
            "i": k, "X": xname, "Y": yname, "OUT": oname})
        self._chunk(t, xname, i)
        self._chunk(t, yname, i)
        self._chunk(t, oname, i, write=True)

    def _op_add(self, call):
        self._binary_chunk_op(call, "ADD")

    def _op_sub(self, call):
        self._binary_chunk_op(call, "SUB")

    # -- small dense ops -----------------------------------------------------
    def _op_small(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        kernel = meta.get("kernel", "SMALL_EIGH")
        k = int(meta.get("k", 1))

        def params(_k):
            out = {"op": meta.get("op", kernel), "reads": list(call.reads),
                   "writes": list(call.writes)}
            out.update(
                {kk: vv for kk, vv in meta.items()
                 if kk not in ("kernel", "k", "op")}
            )
            return out

        i = meta.get("i")
        t = self._new(1)
        self._tasks(kernel, t, -1 if i is None else int(i), _dense, (k,),
                    params)
        for name in call.reads:
            self._small(t, name)
        for name in call.writes:
            self._small(t, name, write=True)


def _check_forward(dag: TaskDAG) -> None:
    """Raise unless every edge runs from a lower tid to a higher one.

    The builder only ever wires a task to tasks emitted before it, so
    tid order is a topological order; an edge that breaks it (a cycle
    included) means the dependence analysis is broken.  O(E) on the
    successor CSR, against Kahn's O(V + E) walk over Python lists.
    """
    indptr, indices = dag.succ_csr()
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    bad = np.flatnonzero(indices <= src)
    if bad.size:
        u, v = int(src[bad[0]]), int(indices[bad[0]])
        raise ValueError(
            f"task graph is not in program order (a cycle is possible): "
            f"edge {u} -> {v} does not run forward"
        )
