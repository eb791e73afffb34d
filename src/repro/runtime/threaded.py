"""Real execution of task DAGs: serial validator and thread-pool runtime.

This is the end-to-end proof that the DAGs are *correct programs*, not
just cost structures: every task has an executable body over the
workspace, and running the DAG (in any legal order, serially or on
threads) must produce the same numbers as the eager solver.

Performance caveat, per the repro plan: CPython's GIL serializes task
management, so threading here demonstrates the model and validates
correctness; the paper's performance comparisons are reproduced by the
simulator.

Both executors take a task DAG
(:meth:`repro.graph.builder.DAGBuilder.build_tasks`): they run each
``Task``'s body, and a simulation DAG has none (reading its ``tasks``
raises before anything runs).
"""

from __future__ import annotations

import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro.graph.dag import TaskDAG
from repro.solvers.primitives import apply_alpha_op
from repro.solvers.smallops import run_small_op
from repro.solvers.workspace import Workspace

__all__ = ["execute_task", "execute_dag_serial", "ThreadedRuntime"]


def _alpha_value(p: dict, ws: Workspace) -> float:
    """Resolve a task's scalar coefficient (constant or named + op)."""
    name = p.get("alpha_name")
    if name is None:
        return float(p.get("alpha", 1.0))
    return apply_alpha_op(ws.scalar(name), p.get("alpha_op", "identity"))


def execute_task(task, ws: Workspace) -> None:
    """Run one task's kernel body against the workspace (in place)."""
    k = task.kernel
    p = task.params
    if k in ("SPMV", "SPMM"):
        i, j = p["i"], p["j"]
        X = ws.chunk(p["X"], j)
        if p.get("buffer"):
            Y = ws.buffers[(p["Y"], i)]
        else:
            Y = ws.chunk(p["Y"], i)
        if p.get("zero_first"):
            Y[:] = 0.0
        ws.matrix.block_spmm(i, j, X, Y)
    elif k in ("SPMM_REDUCE",):
        i = p["i"]
        Y = ws.chunk(p["out"], i)
        Y[:] = 0.0
        for buf in p["bufs"]:
            Y += ws.buffers[(buf, i)]
    elif k == "XY":
        i = p["i"]
        Y = ws.chunk(p["Y"], i)
        Z = ws.smallarr(p["Z"])
        Q = ws.chunk(p["Q"], i)
        if p.get("accumulate"):
            Q += p.get("beta", 1.0) * (Y @ Z)
        else:
            np.matmul(Y, Z, out=Q)
    elif k == "XTY":
        i = p["i"]
        X = ws.chunk(p["X"], i)
        Y = ws.chunk(p["Y"], i)
        ws.buffers[(p["buf"], i)][:] = X.T @ Y
    elif k == "XTY_REDUCE":
        out = ws.smallarr(p["out"])
        out[:] = 0.0
        for i in range(p["n_parts"]):
            out += ws.buffers[(p["buf"], i)]
    elif k == "AXPY":
        i = p["i"]
        ws.chunk(p["Y"], i)[:] += _alpha_value(p, ws) * ws.chunk(p["X"], i)
    elif k == "SCALE":
        i = p["i"]
        X = ws.chunk(p["X"], i)
        a = _alpha_value(p, ws)
        if a == 0.0:
            X[:] = 0.0
        else:
            X *= a
    elif k == "COPY":
        i = p["i"]
        src = ws.chunk(p["X"], i)
        dst = ws.chunk(p["Y"], i)
        col = p.get("col")
        if col is None:
            dst[:] = src
        else:
            dst[:, int(col)] = src[:, int(p.get("src_col", 0))]
    elif k == "ADD":
        i = p["i"]
        np.add(ws.chunk(p["X"], i), ws.chunk(p["Y"], i),
               out=ws.chunk(p["OUT"], i))
    elif k == "SUB":
        i = p["i"]
        np.subtract(ws.chunk(p["X"], i), ws.chunk(p["Y"], i),
                    out=ws.chunk(p["OUT"], i))
    elif k == "DOT":
        i = p["i"]
        ws.buffers[(p["buf"], i)] = float(
            np.dot(ws.chunk(p["X"], i).ravel(), ws.chunk(p["Y"], i).ravel())
        )
    elif k == "DOT_REDUCE":
        s = sum(ws.buffers[(p["buf"], i)] for i in range(len(task.reads)))
        if p.get("post") == "sqrt":
            s = float(np.sqrt(max(s, 0.0)))
        ws.set_scalar(p["out"], s)
    else:
        # dense-small kind: dispatch by op name
        run_small_op(ws, p)


def execute_dag_serial(dag: TaskDAG, ws: Workspace,
                       order: Optional[List[int]] = None) -> None:
    """Execute every task of a task DAG in a legal order on the calling
    thread."""
    tasks = dag.tasks
    ws.prepare_buffers(dag)
    if order is None:
        order = dag.topo_order()
    else:
        dag.check_schedule(order)
    for tid in order:
        execute_task(tasks[tid], ws)


class ThreadedRuntime:
    """Dependency-driven thread-pool execution of a task DAG.

    NumPy kernels release the GIL during array work, so BLAS-heavy
    DAGs overlap for real; used in examples and equivalence tests.
    """

    name = "threaded"

    def __init__(self, n_workers: int = 4):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers

    def execute(self, dag: TaskDAG, ws: Workspace,
                iterations: int = 1) -> float:
        """Run a task DAG ``iterations`` times; returns elapsed
        seconds."""
        ws.prepare_buffers(dag)
        t0 = _time.perf_counter()
        for _ in range(iterations):
            self._run_once(dag, ws)
        return _time.perf_counter() - t0

    def _run_once(self, dag: TaskDAG, ws: Workspace) -> None:
        tasks = dag.tasks
        n = len(tasks)
        if n == 0:
            return
        indeg = dag.in_degrees()
        lock = threading.Lock()
        done = threading.Event()
        remaining = n
        errors: List[BaseException] = []
        pool = ThreadPoolExecutor(max_workers=self.n_workers)

        def body(tid):
            nonlocal remaining
            try:
                execute_task(tasks[tid], ws)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                    done.set()
                return
            ready = []
            with lock:
                remaining -= 1
                if remaining == 0:
                    done.set()
                for v in dag.succ[tid]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
            for v in ready:
                pool.submit(body, v)

        # Snapshot the sources before any worker can decrement indeg:
        # submitting from a live read of indeg would double-submit a
        # task that a fast worker enables mid-loop.
        sources = [tid for tid in range(n) if indeg[tid] == 0]
        for tid in sources:
            pool.submit(body, tid)
        done.wait()
        pool.shutdown(wait=True)
        if errors:
            raise errors[0]
