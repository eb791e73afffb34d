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
handle id (the dense id :class:`~repro.graph.dag.TaskDAG` assigns each
:class:`~repro.graph.task.DataHandle` key as the task arrives): RAW,
WAR and WAW hazards all become edges, which is exactly what OpenMP
``depend`` clauses, HPX futures, and Regent privilege analysis each
compute for the same program.  Every edge into a task is found while
that task is emitted, so its predecessors are deduplicated locally, in
first-occurrence order, and no global edge set is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.graph.trace import PrimitiveCall
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
        # Dependence state, indexed by interned handle id: last writer
        # (-1 for none) and readers since that write.  Reset per build.
        self._writer: List[int] = []
        self._readers: List[List[int]] = []
        self._buf_counter = 0
        self._handles: Dict[tuple, DataHandle] = {}
        # Per-block nnz and per-row lists of non-empty block columns,
        # precomputed once as plain ints.
        grid = csb.block_nnz_grid()
        self._row_cols = [np.nonzero(grid[i])[0].tolist() for i in range(self.np_)]
        self._blk_nnz = grid.tolist()

    # ------------------------------------------------------------------
    # Handle constructors
    # ------------------------------------------------------------------
    # Each is a pure function of its (name, part) key, and DataHandle
    # is frozen, so one object per key is shared by every task that
    # touches it: fewer objects to build, pickle, load and collect.
    def chunk_handle(self, name: str, i: int) -> DataHandle:
        h = self._handles.get((name, i))
        if h is None:
            w = self.chunked[name]
            h = self._handles[name, i] = DataHandle(
                name, i, self._row_sizes[i] * w * _F8)
        return h

    def small_handle(self, name: str) -> DataHandle:
        h = self._handles.get((name, None))
        if h is None:
            r, c = self.small[name]
            h = self._handles[name, None] = DataHandle(
                name, None, r * c * _F8)
        return h

    def matrix_handle(self, i: int, j: int) -> DataHandle:
        bid = i * self.csb.nbc + j
        h = self._handles.get((self.matrix_name, bid))
        if h is None:
            nnz = self._blk_nnz[i][j]
            h = self._handles[self.matrix_name, bid] = DataHandle(
                self.matrix_name, bid, nnz * (_F8 + 8))
        return h

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

    def _emit(
        self, dag: TaskDAG, kernel, reads, writes, shape, params, call, seq
    ) -> int:
        t = Task(
            -1, kernel, tuple(reads), tuple(writes), shape, params,
            call.iteration, seq,
        )
        return dag._add_wired(t, self._wire)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, calls: List[PrimitiveCall]) -> TaskDAG:
        """Expand the trace into a validated TaskDAG."""
        dag = TaskDAG()
        self._writer = []
        self._readers = []
        for seq, call in enumerate(calls):
            handler = getattr(self, f"_op_{call.op.lower()}")
            handler(dag, call, seq)
        # Partition geometry for NUMA placement: vector chunks use row
        # partition indices; matrix handles use row-major block ids that
        # the memory model must map back to block rows.
        dag.n_partitions = self.np_
        dag.matrix_name = self.matrix_name
        dag.matrix_nbc = self.csb.nbc
        # Freeze the structure-of-arrays view once here: every engine,
        # cost model and scheduler that later executes this DAG reads
        # the same flat tables instead of re-deriving adjacency and
        # interning per instance, and the prep store persists them.
        _check_forward(dag.freeze())
        return dag

    # -- SPMM / SPMV ---------------------------------------------------
    def _op_spmm(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
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
                yh = self.chunk_handle(yname, i)
                self._emit(
                    dag, "SCALE", (), (yh,),
                    {"rows": self._row_sizes[i], "width": w, "streams": 1,
                     "ops_per_elem": 1},
                    {"i": i, "X": yname, "alpha": 0.0}, call, seq,
                )
                continue
            if reduction:
                self._spmm_row_reduction(dag, call, seq, kernel, i, cols,
                                         xname, yname, w)
            else:
                self._spmm_row_dependency(dag, call, seq, kernel, i, cols,
                                          xname, yname, w)

    def _spmm_shape(self, xname: str, i: int, j: int, w: int) -> dict:
        """Shape of the SpMV/SpMM task on block ``(i, j)``.

        ``gather_span`` is the bytes of input vector its gathers range
        over: CSB confines column indices to one block (the chunk);
        CSR's are unrestricted, so ``libcsr`` gathers span the whole
        vector.
        """
        if self.options.csr_storage:
            span = self.csb.shape[1] * w * 8
        else:
            span = self.chunk_handle(xname, j).nbytes
        return {"nnz": self._blk_nnz[i][j], "rows": self._row_sizes[i],
                "cols": self._col_sizes[j], "width": w,
                "gather_span": span}

    def _spmm_row_dependency(self, dag, call, seq, kernel, i, cols,
                             xname, yname, w):
        """Chain tasks on (Y, i): first overwrites, rest accumulate."""
        yh = self.chunk_handle(yname, i)
        first = True
        for j in cols:
            shape = self._spmm_shape(xname, i, j, w)
            reads = [self.matrix_handle(i, j), self.chunk_handle(xname, j)]
            if not first:
                reads.append(yh)
            params = {"i": i, "j": j, "A": self.matrix_name, "X": xname,
                      "Y": yname, "zero_first": first}
            self._emit(dag, kernel, reads, (yh,), shape, params, call, seq)
            first = False

    def _spmm_row_reduction(self, dag, call, seq, kernel, i, cols,
                            xname, yname, w):
        """Private partial buffer per task + one reduce task per row."""
        part_handles = []
        bufs = []
        for j in cols:
            self._buf_counter += 1
            bufname = f"__{yname}__spmmbuf{self._buf_counter}"
            bh = DataHandle(bufname, i, self._row_sizes[i] * w * _F8)
            shape = self._spmm_shape(xname, i, j, w)
            reads = [self.matrix_handle(i, j), self.chunk_handle(xname, j)]
            params = {"i": i, "j": j, "A": self.matrix_name, "X": xname,
                      "Y": bufname, "zero_first": True, "buffer": True}
            self._emit(dag, kernel, reads, (bh,), shape, params, call, seq)
            part_handles.append(bh)
            bufs.append(bufname)
        yh = self.chunk_handle(yname, i)
        shape = {"n_parts": len(cols), "elems": self._row_sizes[i] * w}
        self._emit(
            dag, "SPMM_REDUCE", part_handles, (yh,), shape,
            {"i": i, "bufs": bufs, "out": yname}, call, seq,
        )

    # -- XY: Q = Y @ Z ---------------------------------------------------
    def _op_xy(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        yname, zname = call.reads
        (qname,) = call.writes
        if qname == yname:
            raise ValueError(
                "XY cannot write its own input block "
                f"({yname!r}); dgemm output must not alias an operand"
            )
        w1 = self.chunked[yname]
        w2 = self.chunked[qname]
        zh = self.small_handle(zname)
        meta = call.meta_dict
        accumulate = bool(meta.get("accumulate", False))
        beta = float(meta.get("beta", 1.0))
        for i in range(self.np_):
            qh = self.chunk_handle(qname, i)
            reads = [self.chunk_handle(yname, i), zh]
            if accumulate:
                reads.append(qh)
            shape = {"rows": self._row_sizes[i], "w1": w1, "w2": w2}
            params = {"i": i, "Y": yname, "Z": zname, "Q": qname,
                      "accumulate": accumulate, "beta": beta}
            self._emit(dag, "XY", reads, (qh,), shape, params, call, seq)

    # -- XTY: P = Xᵀ @ Y ---------------------------------------------------
    def _op_xty(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        xname, yname = call.reads
        (pname,) = call.writes
        w1 = self.chunked[xname]
        w2 = self.chunked[yname]
        self._buf_counter += 1
        part_handles = []
        bufname = f"__{pname}__xtybuf{self._buf_counter}"
        for i in range(self.np_):
            bh = DataHandle(bufname, i, w1 * w2 * _F8)
            reads = [self.chunk_handle(xname, i), self.chunk_handle(yname, i)]
            shape = {"rows": self._row_sizes[i], "w1": w1, "w2": w2}
            params = {"i": i, "X": xname, "Y": yname, "buf": bufname}
            self._emit(dag, "XTY", reads, (bh,), shape, params, call, seq)
            part_handles.append(bh)
        ph = self.small_handle(pname)
        shape = {"n_parts": self.np_, "elems": w1 * w2}
        self._emit(
            dag, "XTY_REDUCE", part_handles, (ph,), shape,
            {"buf": bufname, "out": pname, "n_parts": self.np_}, call, seq,
        )

    # -- BLAS-1 chunk ops -------------------------------------------------
    def _op_axpy(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        meta = call.meta_dict
        xname = call.reads[0]
        (yname,) = call.writes
        w = self.chunked[yname]
        alpha_name = meta.get("alpha_name")
        extra = [self.small_handle(alpha_name)] if alpha_name else []
        for i in range(self.np_):
            yh = self.chunk_handle(yname, i)
            reads = [self.chunk_handle(xname, i), yh] + extra
            shape = {"rows": self._row_sizes[i], "width": w, "streams": 3}
            params = {"i": i, "X": xname, "Y": yname,
                      "alpha": meta.get("alpha", 1.0),
                      "alpha_name": alpha_name,
                      "alpha_op": meta.get("alpha_op", "identity")}
            self._emit(dag, "AXPY", reads, (yh,), shape, params, call, seq)

    def _op_scale(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        meta = call.meta_dict
        (xname,) = call.writes
        w = self.chunked[xname]
        alpha_name = meta.get("alpha_name")
        extra = [self.small_handle(alpha_name)] if alpha_name else []
        for i in range(self.np_):
            xh = self.chunk_handle(xname, i)
            shape = {"rows": self._row_sizes[i], "width": w, "streams": 2,
                     "ops_per_elem": 1}
            params = {"i": i, "X": xname, "alpha": meta.get("alpha", 1.0),
                      "alpha_name": alpha_name,
                      "alpha_op": meta.get("alpha_op", "identity")}
            self._emit(dag, "SCALE", [xh] + extra, (xh,), shape, params,
                       call, seq)

    def _op_copy(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        (xname,) = call.reads
        (yname,) = call.writes
        w = self.chunked[yname]
        meta = call.meta_dict
        for i in range(self.np_):
            shape = {"rows": self._row_sizes[i], "width": w, "streams": 2,
                     "ops_per_elem": 1}
            params = {"i": i, "X": xname, "Y": yname,
                      "col": meta.get("col"),
                      "src_col": meta.get("src_col", 0)}
            self._emit(dag, "COPY", (self.chunk_handle(xname, i),),
                       (self.chunk_handle(yname, i),), shape, params, call,
                       seq)

    def _binary_chunk_op(self, dag, call, seq, kernel):
        xname, yname = call.reads
        (oname,) = call.writes
        w = self.chunked[oname]
        for i in range(self.np_):
            shape = {"rows": self._row_sizes[i], "width": w, "streams": 3}
            params = {"i": i, "X": xname, "Y": yname, "OUT": oname}
            self._emit(
                dag, kernel,
                (self.chunk_handle(xname, i), self.chunk_handle(yname, i)),
                (self.chunk_handle(oname, i),), shape, params, call, seq,
            )

    def _op_add(self, dag, call, seq):
        self._binary_chunk_op(dag, call, seq, "ADD")

    def _op_sub(self, dag, call, seq):
        self._binary_chunk_op(dag, call, seq, "SUB")

    # -- DOT: s = <X, Y> ----------------------------------------------------
    def _op_dot(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        xname, yname = call.reads
        (sname,) = call.writes
        w = self.chunked[xname]
        self._buf_counter += 1
        bufname = f"__{sname}__dotbuf{self._buf_counter}"
        part_handles = []
        for i in range(self.np_):
            bh = DataHandle(bufname, i, _F8)
            shape = {"rows": self._row_sizes[i], "width": w, "streams": 2}
            params = {"i": i, "X": xname, "Y": yname, "buf": bufname}
            self._emit(
                dag, "DOT",
                (self.chunk_handle(xname, i), self.chunk_handle(yname, i)),
                (bh,), shape, params, call, seq,
            )
            part_handles.append(bh)
        sh = self.small_handle(sname)
        meta = call.meta_dict
        shape = {"n_parts": self.np_, "elems": 1}
        params = {"buf": bufname, "out": sname,
                  "post": meta.get("post", "identity")}
        self._emit(dag, "DOT_REDUCE", part_handles, (sh,), shape, params,
                   call, seq)

    # -- small dense ops -----------------------------------------------------
    def _op_small(self, dag: TaskDAG, call: PrimitiveCall, seq: int) -> None:
        meta = call.meta_dict
        kernel = meta.get("kernel", "SMALL_EIGH")
        k = int(meta.get("k", 1))
        reads = [self.small_handle(n) for n in call.reads]
        writes = [self.small_handle(n) for n in call.writes]
        params = {"op": meta.get("op", kernel), "reads": list(call.reads),
                  "writes": list(call.writes)}
        params.update(
            {kk: vv for kk, vv in meta.items()
             if kk not in ("kernel", "k", "op")}
        )
        self._emit(dag, kernel, reads, writes, {"k": k}, params, call, seq)


def _check_forward(soa) -> None:
    """Raise unless every edge of the frozen CSR runs from a lower tid
    to a higher one.

    The builder only ever wires a task to tasks emitted before it, so
    tid order is a topological order; an edge that breaks it (a cycle
    included) means the dependence analysis is broken.  O(E) on the
    arrays, against Kahn's O(V + E) walk over Python lists.
    """
    indptr = soa.succ_indptr
    src = np.repeat(np.arange(soa.n_tasks), np.diff(indptr))
    bad = np.flatnonzero(soa.succ_indices <= src)
    if bad.size:
        u, v = int(src[bad[0]]), int(soa.succ_indices[bad[0]])
        raise ValueError(
            f"task graph is not in program order (a cycle is possible): "
            f"edge {u} -> {v} does not run forward"
        )
