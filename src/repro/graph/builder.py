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

Dependencies are wired by last-writer/readers tracking per interned
handle id (the dense id the DAG's frozen view assigns each ``(name,
part)`` operand key in first-appearance order): RAW, WAR and WAW
hazards all become edges, which is exactly what OpenMP ``depend``
clauses, HPX futures, and Regent privilege analysis each compute for
the same program.  Every edge into a task is found while that task is
emitted, so its predecessors are deduplicated locally, in
first-occurrence order, and no global edge set is kept.

One expansion, two outputs.  :meth:`DAGBuilder.build` writes every
task straight into the DAG's frozen columns (:class:`~repro.graph.dag.
_Columns`) from interned handle ids: kernel code, read and write ids,
touch bytes, ``params["i"]``, the registry's flop count and the
SpMV/SpMM pricing inputs — no :class:`~repro.graph.task.Task`,
:class:`~repro.graph.task.DataHandle`, shape or params object is made.
The built DAG carries no task list; its first ``dag.tasks`` runs the
same op handlers again in *task mode*, where each emit builds the
``Task`` (shared handles, shape and params dicts) and adds it through
:meth:`TaskDAG.add_task`'s per-``Task`` column walk.  The DAG then
checks that the columns that walk derived equal the ones the build
wrote, field by field, before it adopts the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.dag import TaskDAG, _Columns
from repro.graph.task import DataHandle, Task
from repro.graph.trace import PrimitiveCall
from repro.kernels.registry import kernel_spec
from repro.matrices.csb import CSBMatrix

__all__ = ["BuildOptions", "DAGBuilder"]

_F8 = 8


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
# arguments, so column mode prices each distinct (kernel, maker, args)
# through the kernel registry once per build; task mode calls the maker
# per task.
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
        self._row_sizes = [
            csb.row_block_bounds(i)[1] - csb.row_block_bounds(i)[0]
            for i in range(self.np_)
        ]
        self._col_sizes = [
            csb.col_block_bounds(j)[1] - csb.col_block_bounds(j)[0]
            for j in range(csb.nbc)
        ]
        #: Task mode's handle memo: one shared DataHandle per key.
        self._handles: Dict[tuple, DataHandle] = {}
        self._idle()

    def _idle(self) -> None:
        """Drop the per-expansion state (the block tables included: a
        built DAG keeps its builder for task mode, not these)."""
        self._cols: Optional[_Columns] = None
        self._dag: Optional[TaskDAG] = None
        self._key_to_id: dict = {}
        self._nbytes: List[int] = []
        self._flops: dict = {}
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        self._writer: List[int] = []
        self._readers: List[List[int]] = []
        self._buf_counter = 0
        self._row_cols: List[List[int]] = []
        self._blk_nnz: List[List[int]] = []
        self._it = self._seq = 0

    def _start(self, cols: Optional[_Columns], dag: Optional[TaskDAG]):
        """Fresh per-expansion state: column mode writes ``cols``,
        task mode adds ``Task`` objects to ``dag``."""
        self._idle()
        self._cols = cols
        self._dag = dag
        if cols is not None:
            self._key_to_id = cols.key_to_id
        # Per-block nnz and per-row lists of non-empty block columns,
        # as plain ints.
        grid = self.csb.block_nnz_grid()
        self._row_cols = [np.nonzero(grid[i])[0].tolist()
                          for i in range(self.np_)]
        self._blk_nnz = grid.tolist()

    # ------------------------------------------------------------------
    # Handle references: an interned id in column mode, the shared
    # DataHandle in task mode.  Column mode interns on first reference,
    # so every handler references a task's reads, in order, before its
    # writes: the ids then come out in the first-appearance order over
    # reads-then-writes that the per-Task column walk assigns.
    # ------------------------------------------------------------------
    def _ref(self, name: str, part, nbytes: int):
        key = (name, part)
        if self._cols is not None:
            hid = self._key_to_id.get(key)
            if hid is None:
                hid = self._cols.intern(key)
                self._nbytes.append(nbytes)
            return hid
        h = self._handles.get(key)
        if h is None:
            h = self._handles[key] = DataHandle(name, part, nbytes)
        return h

    def _chunk(self, name: str, i: int):
        if self._cols is not None:  # the common case: interned already
            hid = self._key_to_id.get((name, i))
            if hid is not None:
                return hid
        return self._ref(name, i, self._row_sizes[i] * self.chunked[name]
                         * _F8)

    def _small(self, name: str):
        r, c = self.small[name]
        return self._ref(name, None, r * c * _F8)

    def _block(self, i: int, j: int):
        return self._ref(self.matrix_name, i * self.csb.nbc + j,
                         self._blk_nnz[i][j] * (_F8 + 8))

    # ------------------------------------------------------------------
    # Dependence bookkeeping
    # ------------------------------------------------------------------
    def _wire(self, tid: int, rids, wids, n_ids: int) -> List[int]:
        """Predecessors of task ``tid`` from its read and write ids.

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

    # ------------------------------------------------------------------
    # Emit
    # ------------------------------------------------------------------
    def _emit(self, kernel, reads, writes, i, shape_of, sargs, params_of,
              pargs) -> None:
        """One task of the current call.

        Column mode appends its row: ``i`` is its ``params["i"]`` (-1
        for none) and its flop count is ``shape_of(*sargs)`` priced by
        the registry, once per distinct maker and arguments.  Task mode
        builds the ``Task`` with ``shape_of(*sargs)`` and
        ``params_of(*pargs)``.
        """
        if self._cols is None:
            self._add_task(kernel, reads, writes, shape_of(*sargs),
                           params_of(*pargs))
            return
        key = (kernel, shape_of, sargs)
        flops = self._flops.get(key)
        if flops is None:
            flops = self._flops[key] = kernel_spec(kernel).flops(
                shape_of(*sargs))
        self._append(kernel, reads, writes, i, flops)

    def _emit_sparse(self, kernel, i, j, reads, writes, w, buffer,
                     params_of, pargs) -> None:
        """The SpMV/SpMM task on block ``(i, j)``; ``reads[1]`` is its
        input chunk.

        ``gather_span`` is the bytes of input vector its gathers range
        over: CSB confines column indices to one block (the chunk);
        CSR's are unrestricted, so ``libcsr`` gathers span the whole
        vector.  Column mode records the pricing inputs; the flop count
        is priced from them in bulk at ``freeze``.
        """
        nnz = self._blk_nnz[i][j]
        rows = self._row_sizes[i]
        cols = self._col_sizes[j]
        if self.options.csr_storage:
            span = self.csb.shape[1] * w * _F8
        else:
            span = self._row_sizes[j] * w * _F8
        if self._cols is None:
            self._add_task(kernel, reads, writes,
                           {"nnz": nnz, "rows": rows, "cols": cols,
                            "width": w, "gather_span": span},
                           params_of(*pargs))
            return
        self._append(kernel, reads, writes, i, 0.0,
                     (len(self._pred), nnz, rows, cols, w, span,
                      1 if buffer else 0, reads[1]))

    def _append(self, kernel, rids, wids, i, flops, sparse=None) -> None:
        """Column mode: one task's row and its wired predecessors."""
        tid = len(self._pred)
        self._cols.append(kernel, rids, wids, i, flops, self._seq,
                          self._nbytes, sparse)
        preds = self._wire(tid, rids, wids, len(self._nbytes))
        self._pred.append(preds)
        succ = self._succ
        succ.append([])
        for u in preds:
            succ[u].append(tid)

    def _add_task(self, kernel, reads, writes, shape, params) -> None:
        """Task mode: the ``Task``, through ``add_task``'s column walk."""
        self._dag._add_wired(
            Task(-1, kernel, tuple(reads), tuple(writes), shape, params,
                 self._it, self._seq),
            self._wire,
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, calls: List[PrimitiveCall]) -> TaskDAG:
        """Expand the trace into a validated, frozen TaskDAG.

        The DAG carries no task list: its first ``dag.tasks`` expands
        ``calls`` again through :meth:`_task_dag`.
        """
        cols = _Columns()
        self._start(cols, None)
        try:
            self._expand(calls)
            dag = TaskDAG._from_columns(cols, self._succ, self._pred,
                                        partial(self._task_dag, calls))
        finally:
            self._idle()
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
        self._start(None, dag)
        try:
            self._expand(calls)
        finally:
            self._idle()
        self._place(dag)
        return dag

    def _expand(self, calls: List[PrimitiveCall]) -> None:
        for seq, call in enumerate(calls):
            self._it = call.iteration
            self._seq = seq
            getattr(self, f"_op_{call.op.lower()}")(call)

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
        for i in range(self.np_):
            cols = (
                self._row_cols[i]
                if self.options.skip_empty
                else list(range(self.csb.nbc))
            )
            if not cols:
                # Row with no stored blocks: Y_i must still be zeroed.
                self._emit(
                    "SCALE", (), (self._chunk(yname, i),), i,
                    _streams_1op, (self._row_sizes[i], w, 1),
                    lambda i: {"i": i, "X": yname, "alpha": 0.0}, (i,),
                )
                continue
            if reduction:
                self._spmm_row_reduction(kernel, i, cols, xname, yname, w)
            else:
                self._spmm_row_dependency(kernel, i, cols, xname, yname, w)

    def _spmm_row_dependency(self, kernel, i, cols, xname, yname, w):
        """Chain tasks on (Y, i): first overwrites, rest accumulate."""

        def params(j, first):
            return {"i": i, "j": j, "A": self.matrix_name, "X": xname,
                    "Y": yname, "zero_first": first}

        first = True
        for j in cols:
            reads = [self._block(i, j), self._chunk(xname, j)]
            y = self._chunk(yname, i)
            if not first:
                reads.append(y)
            self._emit_sparse(kernel, i, j, reads, (y,), w, False,
                              params, (j, first))
            first = False

    def _spmm_row_reduction(self, kernel, i, cols, xname, yname, w):
        """Private partial buffer per task + one reduce task per row."""

        def params(j, bufname):
            return {"i": i, "j": j, "A": self.matrix_name, "X": xname,
                    "Y": bufname, "zero_first": True, "buffer": True}

        rows = self._row_sizes[i]
        parts = []
        bufs = []
        for j in cols:
            self._buf_counter += 1
            bufname = f"__{yname}__spmmbuf{self._buf_counter}"
            reads = [self._block(i, j), self._chunk(xname, j)]
            b = self._ref(bufname, i, rows * w * _F8)
            self._emit_sparse(kernel, i, j, reads, (b,), w, True,
                              params, (j, bufname))
            parts.append(b)
            bufs.append(bufname)
        self._emit(
            "SPMM_REDUCE", parts, (self._chunk(yname, i),), i,
            _reduce, (len(cols), rows * w),
            lambda: {"i": i, "bufs": bufs, "out": yname}, (),
        )

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

        def params(i):
            return {"i": i, "Y": yname, "Z": zname, "Q": qname,
                    "accumulate": accumulate, "beta": beta}

        for i in range(self.np_):
            reads = [self._chunk(yname, i), self._small(zname)]
            q = self._chunk(qname, i)
            if accumulate:
                reads.append(q)
            self._emit("XY", reads, (q,), i,
                       _gemm, (self._row_sizes[i], w1, w2), params, (i,))

    # -- XTY: P = Xᵀ @ Y ---------------------------------------------------
    def _op_xty(self, call: PrimitiveCall) -> None:
        xname, yname = call.reads
        (pname,) = call.writes
        w1 = self.chunked[xname]
        w2 = self.chunked[yname]
        self._buf_counter += 1
        bufname = f"__{pname}__xtybuf{self._buf_counter}"

        def params(i):
            return {"i": i, "X": xname, "Y": yname, "buf": bufname}

        parts = []
        for i in range(self.np_):
            reads = (self._chunk(xname, i), self._chunk(yname, i))
            b = self._ref(bufname, i, w1 * w2 * _F8)
            self._emit("XTY", reads, (b,), i,
                       _gemm, (self._row_sizes[i], w1, w2), params, (i,))
            parts.append(b)
        self._emit(
            "XTY_REDUCE", parts, (self._small(pname),), -1,
            _reduce, (self.np_, w1 * w2),
            lambda: {"buf": bufname, "out": pname, "n_parts": self.np_},
            (),
        )

    # -- BLAS-1 chunk ops -------------------------------------------------
    def _op_axpy(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        xname = call.reads[0]
        (yname,) = call.writes
        w = self.chunked[yname]
        alpha_name = meta.get("alpha_name")

        def params(i):
            return {"i": i, "X": xname, "Y": yname,
                    "alpha": meta.get("alpha", 1.0),
                    "alpha_name": alpha_name,
                    "alpha_op": meta.get("alpha_op", "identity")}

        for i in range(self.np_):
            reads = [self._chunk(xname, i), self._chunk(yname, i)]
            if alpha_name:
                reads.append(self._small(alpha_name))
            self._emit("AXPY", reads, (reads[1],), i,
                       _streams, (self._row_sizes[i], w, 3), params, (i,))

    def _op_scale(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        (xname,) = call.writes
        w = self.chunked[xname]
        alpha_name = meta.get("alpha_name")

        def params(i):
            return {"i": i, "X": xname, "alpha": meta.get("alpha", 1.0),
                    "alpha_name": alpha_name,
                    "alpha_op": meta.get("alpha_op", "identity")}

        for i in range(self.np_):
            x = self._chunk(xname, i)
            reads = [x]
            if alpha_name:
                reads.append(self._small(alpha_name))
            self._emit("SCALE", reads, (x,), i,
                       _streams_1op, (self._row_sizes[i], w, 2),
                       params, (i,))

    def _op_copy(self, call: PrimitiveCall) -> None:
        (xname,) = call.reads
        (yname,) = call.writes
        w = self.chunked[yname]
        meta = call.meta_dict

        def params(i):
            return {"i": i, "X": xname, "Y": yname,
                    "col": meta.get("col"),
                    "src_col": meta.get("src_col", 0)}

        for i in range(self.np_):
            reads = (self._chunk(xname, i),)
            self._emit("COPY", reads, (self._chunk(yname, i),), i,
                       _streams_1op, (self._row_sizes[i], w, 2),
                       params, (i,))

    def _binary_chunk_op(self, call, kernel):
        xname, yname = call.reads
        (oname,) = call.writes
        w = self.chunked[oname]

        def params(i):
            return {"i": i, "X": xname, "Y": yname, "OUT": oname}

        for i in range(self.np_):
            reads = (self._chunk(xname, i), self._chunk(yname, i))
            self._emit(kernel, reads, (self._chunk(oname, i),), i,
                       _streams, (self._row_sizes[i], w, 3), params, (i,))

    def _op_add(self, call):
        self._binary_chunk_op(call, "ADD")

    def _op_sub(self, call):
        self._binary_chunk_op(call, "SUB")

    # -- DOT: s = <X, Y> ----------------------------------------------------
    def _op_dot(self, call: PrimitiveCall) -> None:
        xname, yname = call.reads
        (sname,) = call.writes
        w = self.chunked[xname]
        self._buf_counter += 1
        bufname = f"__{sname}__dotbuf{self._buf_counter}"

        def params(i):
            return {"i": i, "X": xname, "Y": yname, "buf": bufname}

        parts = []
        for i in range(self.np_):
            reads = (self._chunk(xname, i), self._chunk(yname, i))
            b = self._ref(bufname, i, _F8)
            self._emit("DOT", reads, (b,), i,
                       _streams, (self._row_sizes[i], w, 2), params, (i,))
            parts.append(b)
        post = call.meta_dict.get("post", "identity")
        self._emit(
            "DOT_REDUCE", parts, (self._small(sname),), -1,
            _reduce, (self.np_, 1),
            lambda: {"buf": bufname, "out": sname, "post": post}, (),
        )

    # -- small dense ops -----------------------------------------------------
    def _op_small(self, call: PrimitiveCall) -> None:
        meta = call.meta_dict
        kernel = meta.get("kernel", "SMALL_EIGH")
        k = int(meta.get("k", 1))

        def params():
            out = {"op": meta.get("op", kernel), "reads": list(call.reads),
                   "writes": list(call.writes)}
            out.update(
                {kk: vv for kk, vv in meta.items()
                 if kk not in ("kernel", "k", "op")}
            )
            return out

        i = meta.get("i")
        reads = [self._small(n) for n in call.reads]
        writes = [self._small(n) for n in call.writes]
        self._emit(kernel, reads, writes, -1 if i is None else int(i),
                   _dense, (k,), params, ())


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
