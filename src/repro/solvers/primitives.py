"""The primitive engine API — the DeepSparse PCU front end analogue.

Solvers call these ten primitives (SpMM, XY, XTY, AXPY, SCALE, COPY,
ADD, SUB, DOT, SMALL) against a :class:`~repro.solvers.workspace.Workspace`.
Two interpreters exist:

* :class:`EagerEngine` executes each call immediately with NumPy on
  the whole operands — the numerical ground truth.
* :class:`TracingEngine` records each call into a
  :class:`~repro.graph.trace.TraceRecorder`; the TDGG then expands the
  trace into the fine-grained task DAG.

Because the same solver function drives both, the DAG is by
construction a decomposition of the exact computation the eager path
performs — which the equivalence tests verify numerically.
"""

from __future__ import annotations

import numpy as np

from repro.graph.trace import TraceRecorder
from repro.solvers.smallops import run_small_op
from repro.solvers.workspace import Workspace

__all__ = ["EagerEngine", "TracingEngine", "apply_alpha_op"]


def apply_alpha_op(value: float, op: str) -> float:
    """Transform a named scalar coefficient (``1/β`` etc.)."""
    if op == "identity":
        return value
    if op == "inv":
        return 1.0 / value if value != 0.0 else 0.0
    raise ValueError(f"unknown alpha_op {op!r}")


class _EngineBase:
    """Shared workspace binding and call signatures."""

    def __init__(self, ws: Workspace):
        self.ws = ws

    def _resolve_alpha(self, alpha, alpha_name, alpha_op) -> float:
        if alpha_name is None:
            return float(alpha)
        return apply_alpha_op(self.ws.scalar(alpha_name), alpha_op)


class EagerEngine(_EngineBase):
    """Immediate NumPy execution on whole operands."""

    def spmm(self, X: str, Y: str) -> None:
        """Y = A @ X."""
        self.ws.matrix.spmm(self.ws.full(X), out=self.ws.full(Y))

    def xy(self, Y: str, Z: str, Q: str, accumulate: bool = False,
           beta: float = 1.0) -> None:
        """Q = Y @ Z (or Q += beta·(Y @ Z))."""
        if accumulate:
            self.ws.full(Q)[:] += beta * (self.ws.full(Y) @ self.ws.full(Z))
        else:
            np.matmul(self.ws.full(Y), self.ws.full(Z), out=self.ws.full(Q))

    def xty(self, X: str, Y: str, P: str) -> None:
        """P = Xᵀ @ Y."""
        np.matmul(self.ws.full(X).T, self.ws.full(Y), out=self.ws.full(P))

    def axpy(self, X: str, Y: str, alpha: float = 1.0,
             alpha_name: str = None, alpha_op: str = "identity") -> None:
        """Y += α · X."""
        self.ws.full(Y)[:] += (
            self._resolve_alpha(alpha, alpha_name, alpha_op) * self.ws.full(X)
        )

    def scale(self, X: str, alpha: float = 1.0, alpha_name: str = None,
              alpha_op: str = "identity") -> None:
        """X *= α."""
        a = self._resolve_alpha(alpha, alpha_name, alpha_op)
        arr = self.ws.full(X)
        if a == 0.0:
            arr[:] = 0.0
        else:
            arr *= a

    def copy(self, X: str, Y: str, col: int = None, src_col: int = 0) -> None:
        """Y = X, or column transfer Y[:, col] = X[:, src_col]."""
        if col is None:
            self.ws.full(Y)[:] = self.ws.full(X)
        else:
            self.ws.full(Y)[:, int(col)] = self.ws.full(X)[:, int(src_col)]

    def add(self, X: str, Y: str, OUT: str) -> None:
        np.add(self.ws.full(X), self.ws.full(Y), out=self.ws.full(OUT))

    def sub(self, X: str, Y: str, OUT: str) -> None:
        np.subtract(self.ws.full(X), self.ws.full(Y), out=self.ws.full(OUT))

    def dot(self, X: str, Y: str, out: str, post: str = "identity") -> None:
        """out = ⟨X, Y⟩ (flattened), optionally √ of it."""
        s = float(
            np.dot(self.ws.full(X).ravel(), self.ws.full(Y).ravel())
        )
        if post == "sqrt":
            s = float(np.sqrt(max(s, 0.0)))
        self.ws.set_scalar(out, s)

    def small(self, op: str, reads, writes, k: int, **meta) -> None:
        """Run a registered small dense op."""
        params = {"op": op, "reads": list(reads), "writes": list(writes)}
        params.update(meta)
        run_small_op(self.ws, params)

    def next_iteration(self) -> None:
        """No-op eagerly; kept so solver code is interpreter-agnostic."""


class TracingEngine(_EngineBase):
    """Records primitive calls for DAG construction (no numerics)."""

    def __init__(self, ws: Workspace):
        super().__init__(ws)
        self.trace = TraceRecorder()

    @property
    def calls(self):
        return self.trace.calls

    def spmm(self, X, Y):
        self.trace.record("SPMM", (self.ws.matrix_name, X), (Y,))

    def xy(self, Y, Z, Q, accumulate=False, beta=1.0):
        self.trace.record("XY", (Y, Z), (Q,), accumulate=accumulate,
                          beta=beta)

    def xty(self, X, Y, P):
        self.trace.record("XTY", (X, Y), (P,))

    def axpy(self, X, Y, alpha=1.0, alpha_name=None, alpha_op="identity"):
        self.trace.record("AXPY", (X,), (Y,), alpha=alpha,
                          alpha_name=alpha_name, alpha_op=alpha_op)

    def scale(self, X, alpha=1.0, alpha_name=None, alpha_op="identity"):
        self.trace.record("SCALE", (), (X,), alpha=alpha,
                          alpha_name=alpha_name, alpha_op=alpha_op)

    def copy(self, X, Y, col=None, src_col=0):
        self.trace.record("COPY", (X,), (Y,), col=col, src_col=src_col)

    def add(self, X, Y, OUT):
        self.trace.record("ADD", (X, Y), (OUT,))

    def sub(self, X, Y, OUT):
        self.trace.record("SUB", (X, Y), (OUT,))

    def dot(self, X, Y, out, post="identity"):
        self.trace.record("DOT", (X, Y), (out,), post=post)

    def small(self, op, reads, writes, k, **meta):
        self.trace.record("SMALL", tuple(reads), tuple(writes),
                          kernel=meta.pop("kernel", "SMALL_EIGH"),
                          op=op, k=k, **meta)

    def next_iteration(self):
        self.trace.next_iteration()
