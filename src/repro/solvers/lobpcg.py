"""LOBPCG eigensolver (Alg. 2): SpMM-based, long critical path.

Locally Optimal Block Preconditioned Conjugate Gradient (Knyazev 2001)
for the ``n`` algebraically smallest eigenpairs of a symmetric matrix.
The iteration body is written once against the primitive engine; the
subspace is span{Ψ, R, Q} with Q the conjugate direction block, and the
Rayleigh–Ritz step consumes the 12 Gram blocks produced by XTY calls —
the kernel mix ("SpMM and several level-3 BLAS calls") and data-reuse
structure the paper's LOBPCG evaluation hinges on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.kernels.ortho import orthonormalize
from repro.solvers.convergence import ConvergenceHistory
from repro.solvers.primitives import EagerEngine, TracingEngine
from repro.solvers.workspace import Workspace

__all__ = [
    "lobpcg_operands",
    "lobpcg_iteration",
    "lobpcg",
    "lobpcg_trace",
    "LOBPCGResult",
]

#: The 12 Gram blocks of span{Ψ, R, Q}.
_GRAM_PAIRS = [
    ("gA_PP", "Psi", "HPsi"), ("gA_PR", "Psi", "HR"),
    ("gA_PQ", "Psi", "HQ"),
    ("gA_RR", "R", "HR"), ("gA_RQ", "R", "HQ"),
    ("gA_QQ", "Qd", "HQ"),
    ("gB_PP", "Psi", "Psi"), ("gB_PR", "Psi", "R"),
    ("gB_PQ", "Psi", "Qd"),
    ("gB_RR", "R", "R"), ("gB_RQ", "R", "Qd"),
    ("gB_QQ", "Qd", "Qd"),
]


def lobpcg_operands(n: int) -> tuple:
    """(chunked, small) operand declarations for block width ``n``."""
    chunked = {
        "Psi": n, "HPsi": n, "R": n, "HR": n, "Qd": n, "HQ": n,
        "T1": n, "T2": n, "T3": n, "PsiNew": n,
    }
    small = {"M": (n, n), "evals": (n, 1), "rnorm": (1, 1), "conv": (1, 1)}
    for gname, _x, _y in _GRAM_PAIRS:
        small[gname] = (n, n)
    for cname in ("cp_p", "cp_r", "cp_q"):
        small[cname] = (n, n)
    return chunked, small


def lobpcg_iteration(eng, n: int, tol: float = 1e-8) -> None:
    """One LOBPCG step against either engine (eager or tracing).

    As in the paper's implementations, the new search direction is the
    residual R itself.
    """
    # Residual: R = HΨ − Ψ·(Ψᵀ H Ψ)
    eng.spmm("Psi", "HPsi")
    eng.xty("Psi", "HPsi", "M")
    eng.xy("Psi", "M", "T1")
    eng.sub("HPsi", "T1", "R")
    eng.dot("R", "R", "rnorm", post="sqrt")
    eng.small("CONV_CHECK", reads=("rnorm",), writes=("conv",), k=1,
              rnorm="rnorm", flag="conv", tol=tol)
    # Operator applications for the new directions.
    eng.spmm("R", "HR")
    eng.spmm("Qd", "HQ")
    # Gram blocks of span{Ψ, R, Q} — 12 XTY kernels.
    for gname, x, y in _GRAM_PAIRS:
        eng.xty(x, y, gname)
    # Rayleigh–Ritz on the 3n×3n pencil.
    eng.small(
        "LOBPCG_RR",
        reads=tuple(g for g, _x, _y in _GRAM_PAIRS),
        writes=("cp_p", "cp_r", "cp_q", "evals"),
        k=3 * n, kernel="RAYLEIGH_RITZ", n=n,
        **{g: g for g, _x, _y in _GRAM_PAIRS},
        cp_p="cp_p", cp_r="cp_r", cp_q="cp_q", evals="evals",
    )
    # Ψ_{i+1} = Ψ·C_P + R·C_R + Q·C_Q ;  Q_{i+1} = Ψ_{i+1} − Ψ_i
    eng.xy("Psi", "cp_p", "T1")
    eng.xy("R", "cp_r", "T2")
    eng.xy("Qd", "cp_q", "T3")
    eng.add("T1", "T2", "PsiNew")
    eng.add("PsiNew", "T3", "PsiNew")
    eng.sub("PsiNew", "Psi", "Qd")
    eng.copy("PsiNew", "Psi")


@dataclass
class LOBPCGResult:
    """Outcome of an eager LOBPCG run."""

    eigenvalues: np.ndarray      # n smallest Ritz values, ascending
    eigenvectors: np.ndarray     # m × n block
    history: ConvergenceHistory
    iterations: int
    converged: bool


def lobpcg(
    matrix,
    n: int = 4,
    maxiter: int = 60,
    tol: float = 1e-6,
    seed: int = 0,
) -> LOBPCGResult:
    """Eager LOBPCG for the ``n`` smallest eigenpairs.

    ``tol`` is on the Frobenius norm of the block residual
    ``HΨ − Ψ(ΨᵀHΨ)`` relative to the initial residual.
    """
    if n < 1:
        raise ValueError("block width n must be positive")
    ws = Workspace(matrix, *lobpcg_operands(n))
    eng = EagerEngine(ws)
    rng = np.random.default_rng(seed)
    ws.full("Psi")[:] = orthonormalize(rng.standard_normal((ws.m, n)))
    history = ConvergenceHistory()
    first_rnorm = None
    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        lobpcg_iteration(eng, n, tol=tol)
        rnorm = ws.scalar("rnorm")
        history.record(rnorm, ws.full("evals")[:, 0].copy())
        if first_rnorm is None:
            first_rnorm = max(rnorm, 1e-300)
        if rnorm / first_rnorm < tol or rnorm < tol:
            converged = True
            break
        # Guard against basis collapse near convergence.
        psi = ws.full("Psi")
        if not np.all(np.isfinite(psi)):
            raise FloatingPointError("LOBPCG iterate diverged")
        ws.full("Psi")[:] = orthonormalize(psi)
    evals = ws.full("evals")[:, 0].copy()
    order = np.argsort(evals)
    return LOBPCGResult(
        eigenvalues=evals[order],
        eigenvectors=ws.full("Psi")[:, order].copy(),
        history=history,
        iterations=it,
        converged=converged,
    )


def lobpcg_trace(matrix, n: int = 8, matrix_name: str = "A"):
    """One iteration's primitive trace plus the operand spec.

    Returns ``(calls, chunked, small)`` for the TDGG.  Width ``n``
    matches the paper's 8–16-column vector blocks.
    """
    chunked, small = lobpcg_operands(n)
    ws = Workspace(matrix, chunked, small, allocate=False,
                   matrix_name=matrix_name)
    eng = TracingEngine(ws)
    lobpcg_iteration(eng, n)
    calls: List = eng.calls
    return calls, chunked, small
