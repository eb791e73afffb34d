"""Property-based tests on solver-level invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import random_symmetric
from repro.graph.builder import DAGBuilder
from repro.runtime import execute_dag_serial
from repro.solvers import Workspace, lanczos, lobpcg_trace


@st.composite
def spd_csb(draw):
    n = draw(st.integers(40, 160))
    b = draw(st.integers(10, 80))
    seed = draw(st.integers(0, 10_000))
    nnzpr = draw(st.integers(4, 12))
    return CSBMatrix.from_coo(random_symmetric(n, nnzpr, seed=seed), b)


@given(spd_csb())
@settings(max_examples=10, deadline=None)
def test_lanczos_ritz_values_inside_spectrum(csb):
    k = min(20, csb.shape[0] // 2)
    if k < 3:
        return
    res = lanczos(csb, k=k)
    ref = np.linalg.eigvalsh(csb.to_dense())
    assert res.eigenvalues[0] >= ref[0] - 1e-6
    assert res.eigenvalues[-1] <= ref[-1] + 1e-6


@given(spd_csb(), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=8, deadline=None)
def test_lobpcg_dag_preserves_orthonormality_drift(csb, n, seed):
    """Ritz values after one DAG iteration are real, finite and within
    the operator's spectral range."""
    from repro.kernels import orthonormalize
    from repro.solvers.lobpcg import lobpcg_trace

    n = min(n, max(1, csb.shape[0] // 8))
    rng = np.random.default_rng(seed)
    calls, chunked, small = lobpcg_trace(csb, n=n)
    dag = DAGBuilder(csb, "A", chunked, small).build_tasks(calls)
    ws = Workspace(csb, chunked, small)
    ws.full("Psi")[:] = orthonormalize(
        rng.standard_normal((csb.shape[0], n)))
    execute_dag_serial(dag, ws)
    evals = ws.full("evals")[:, 0]
    ref = np.linalg.eigvalsh(csb.to_dense())
    assert np.isfinite(evals).all()
    assert evals.min() >= ref[0] - 1e-6
    assert evals.max() <= ref[-1] + 1e-6
