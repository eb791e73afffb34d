"""Small dense task bodies shared by the eager engine and real executors.

These are the unpartitioned tasks of the solver DAGs — Rayleigh–Ritz,
tridiagonal bookkeeping, convergence checks.  Each op takes the
workspace and the task's parameter dict; operand names arrive in
``params`` so the same body serves eager execution, the serial DAG
validator, and the threaded runtime.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dense import rayleigh_ritz

__all__ = ["SMALL_OPS", "register_small_op", "run_small_op"]

SMALL_OPS = {}


def register_small_op(name: str):
    """Register a small-op body under ``name`` (used in trace meta)."""

    def deco(fn):
        SMALL_OPS[name] = fn
        return fn

    return deco


def run_small_op(ws, params: dict) -> None:
    """Dispatch a small op by its ``op`` parameter."""
    op = params["op"]
    try:
        body = SMALL_OPS[op]
    except KeyError:
        raise KeyError(
            f"unknown small op {op!r}; registered: {sorted(SMALL_OPS)}"
        ) from None
    body(ws, params)


# ----------------------------------------------------------------------
@register_small_op("LOBPCG_RR")
def _lobpcg_rr(ws, p) -> None:
    """Rayleigh–Ritz over span{Ψ, R, Q} from the 12 Gram blocks.

    Reads ``gA_**`` and ``gB_**`` (PP, PR, PQ, RR, RQ, QQ), writes the
    per-basis coefficient blocks ``cp_p``, ``cp_r``, ``cp_q`` and the
    Ritz values ``evals``.
    """
    n = int(p["n"])

    def blockmat(prefix):
        g = np.zeros((3 * n, 3 * n))
        names = ["P", "R", "Q"]
        for bi in range(3):
            for bj in range(bi, 3):
                key = f"{prefix}_{names[bi]}{names[bj]}"
                blk = ws.smallarr(p[key])
                g[bi * n:(bi + 1) * n, bj * n:(bj + 1) * n] = blk
                if bi != bj:
                    g[bj * n:(bj + 1) * n, bi * n:(bi + 1) * n] = blk.T
        return g

    gA = blockmat("gA")
    gB = blockmat("gB")
    w, C = rayleigh_ritz(gA, gB, nev=n)
    k = w.size
    evals = ws.smallarr(p["evals"])
    evals[:] = 0.0
    evals[:k, 0] = w
    cp = np.zeros((3 * n, n))
    cp[:, :k] = C
    ws.smallarr(p["cp_p"])[:] = cp[0:n]
    ws.smallarr(p["cp_r"])[:] = cp[n:2 * n]
    ws.smallarr(p["cp_q"])[:] = cp[2 * n:3 * n]


@register_small_op("TRIDIAG_UPDATE")
def _tridiag_update(ws, p) -> None:
    """Store this iteration's (α, β) into the tridiagonal log."""
    it = int(p["it"])
    T = ws.smallarr(p["T"])
    T[it, 0] = ws.scalar(p["alpha"])
    T[it, 1] = ws.scalar(p["beta"])


@register_small_op("CONV_CHECK")
def _conv_check(ws, p) -> None:
    """Write 1.0 into the flag if the residual norm is below tol."""
    r = ws.scalar(p["rnorm"])
    ws.set_scalar(p["flag"], 1.0 if r < float(p["tol"]) else 0.0)
