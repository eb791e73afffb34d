"""End-to-end equivalence: task DAG execution ≡ eager solver numerics.

This is the validation that makes the DAGs trustworthy programs: the
TDGG-expanded graph, executed serially (any legal order) or on real
threads, must reproduce the eager engine's numbers — eigenvalues
exactly, iterates up to the orthogonal-transform freedom of the
Rayleigh–Ritz step.
"""

import numpy as np
import pytest

from repro.kernels import orthonormalize
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.graph.builder import DAGBuilder
from repro.runtime import ThreadedRuntime, execute_dag_serial
from repro.solvers import EagerEngine, Workspace, lanczos_trace, lobpcg_trace
from repro.solvers.lanczos import lanczos_iteration, lanczos_operands
from repro.solvers.lobpcg import lobpcg_iteration, lobpcg_operands


@pytest.fixture(scope="module")
def csb():
    return CSBMatrix.from_coo(banded_fem(240, 8, seed=12), 40)


def task_dag(csb, calls, chunked, small, options=None):
    """The trace's task DAG: the real executors run its ``Task``s."""
    return DAGBuilder(csb, "A", chunked, small, options).build_tasks(calls)


def _subspace_projector(X):
    Q = orthonormalize(X)
    return Q @ Q.T


class TestLOBPCGEquivalence:
    n = 4

    def setup_workspaces(self, csb, seed=3):
        rng = np.random.default_rng(seed)
        X0 = orthonormalize(rng.standard_normal((csb.shape[0], self.n)))
        chunked, small = lobpcg_operands(self.n)
        ws_e = Workspace(csb, chunked, small)
        ws_e.full("Psi")[:] = X0
        ws_d = Workspace(csb, chunked, small)
        ws_d.full("Psi")[:] = X0
        return ws_e, ws_d

    def test_serial_dag_matches_eager(self, csb):
        ws_e, ws_d = self.setup_workspaces(csb)
        lobpcg_iteration(EagerEngine(ws_e), self.n)
        calls, chunked, small = lobpcg_trace(csb, n=self.n)
        dag = task_dag(csb, calls, chunked, small)
        execute_dag_serial(dag, ws_d)
        # Gram blocks and eigenvalues agree to rounding
        np.testing.assert_allclose(ws_e.full("gA_PP"), ws_d.full("gA_PP"),
                                   atol=1e-10)
        np.testing.assert_allclose(ws_e.full("evals"), ws_d.full("evals"),
                                   atol=1e-9)
        # iterates agree as subspaces (RR rotation freedom)
        np.testing.assert_allclose(
            _subspace_projector(ws_e.full("Psi")),
            _subspace_projector(ws_d.full("Psi")),
            atol=1e-6,
        )

    def test_threaded_dag_matches_eager(self, csb):
        ws_e, ws_d = self.setup_workspaces(csb, seed=8)
        lobpcg_iteration(EagerEngine(ws_e), self.n)
        calls, chunked, small = lobpcg_trace(csb, n=self.n)
        dag = task_dag(csb, calls, chunked, small)
        ThreadedRuntime(n_workers=4).execute(dag, ws_d)
        np.testing.assert_allclose(ws_e.full("evals"), ws_d.full("evals"),
                                   atol=1e-9)
        np.testing.assert_allclose(
            _subspace_projector(ws_e.full("Psi")),
            _subspace_projector(ws_d.full("Psi")),
            atol=1e-6,
        )

    def test_multi_iteration_dag_converges(self, csb):
        """80 barriered DAG repetitions converge to the true spectrum
        (no orthonormalization rescue between iterations)."""
        _, ws = self.setup_workspaces(csb)
        calls, chunked, small = lobpcg_trace(csb, n=self.n)
        dag = task_dag(csb, calls, chunked, small)
        for _ in range(80):
            execute_dag_serial(dag, ws)
        got = np.sort(ws.full("evals")[:, 0])
        ref = np.linalg.eigvalsh(csb.to_dense())[:self.n]
        np.testing.assert_allclose(got, ref, rtol=1e-5)

    def test_reduction_mode_same_numerics(self, csb):
        """Fig. 7's two SpMM decompositions compute identical results."""
        from repro.graph.builder import BuildOptions

        ws_e, ws_d = self.setup_workspaces(csb, seed=5)
        calls, chunked, small = lobpcg_trace(csb, n=self.n)
        dag_dep = task_dag(csb, calls, chunked, small,
                           options=BuildOptions())
        dag_red = task_dag(
            csb, calls, chunked, small,
            options=BuildOptions(spmm_mode="reduction"))
        execute_dag_serial(dag_dep, ws_e)
        execute_dag_serial(dag_red, ws_d)
        np.testing.assert_allclose(ws_e.full("HPsi"), ws_d.full("HPsi"),
                                   atol=1e-10)
        np.testing.assert_allclose(ws_e.full("evals"), ws_d.full("evals"),
                                   atol=1e-9)


class TestLanczosEquivalence:
    k = 12

    def test_serial_dag_matches_eager(self, csb):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((csb.shape[0], 1))
        b /= np.linalg.norm(b)
        chunked, small = lanczos_operands(self.k)
        ws_e = Workspace(csb, chunked, small)
        ws_d = Workspace(csb, chunked, small)
        for ws in (ws_e, ws_d):
            ws.full("q")[:] = b
            ws.full("Qb")[:, 0:1] = b
        calls, chunked, small = lanczos_trace(csb, k=self.k)
        dag = task_dag(csb, calls, chunked, small)
        # the traced iteration writes basis column k//2; run the same
        # single step both ways
        lanczos_iteration(EagerEngine(ws_e), self.k // 2)
        execute_dag_serial(dag, ws_d)
        np.testing.assert_allclose(ws_e.scalar("alpha"),
                                   ws_d.scalar("alpha"), atol=1e-12)
        np.testing.assert_allclose(ws_e.scalar("beta"),
                                   ws_d.scalar("beta"), atol=1e-12)
        np.testing.assert_allclose(ws_e.full("q"), ws_d.full("q"),
                                   atol=1e-10)

    def test_threaded_lanczos_step(self, csb):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((csb.shape[0], 1))
        b /= np.linalg.norm(b)
        calls, chunked, small = lanczos_trace(csb, k=self.k)
        dag = task_dag(csb, calls, chunked, small)
        ws_s = Workspace(csb, chunked, small)
        ws_t = Workspace(csb, chunked, small)
        for ws in (ws_s, ws_t):
            ws.full("q")[:] = b
            ws.full("Qb")[:, 0:1] = b
        execute_dag_serial(dag, ws_s)
        ThreadedRuntime(n_workers=3).execute(dag, ws_t)
        np.testing.assert_allclose(ws_s.full("z"), ws_t.full("z"),
                                   atol=1e-10)


def test_arbitrary_legal_order_is_equivalent(csb):
    """Reversed-priority topological order gives the same numerics —
    the correctness claim of Fig. 3's discussion."""
    import heapq

    n = 3
    rng = np.random.default_rng(11)
    X0 = orthonormalize(rng.standard_normal((csb.shape[0], n)))
    calls, chunked, small = lobpcg_trace(csb, n=n)
    dag = task_dag(csb, calls, chunked, small)

    # max-id-first topological order (very different from default)
    indeg = dag.in_degrees()
    heap = [-t for t, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = -heapq.heappop(heap)
        order.append(u)
        for v in dag.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, -v)

    ws_a = Workspace(csb, chunked, small)
    ws_b = Workspace(csb, chunked, small)
    ws_a.full("Psi")[:] = X0
    ws_b.full("Psi")[:] = X0
    execute_dag_serial(dag, ws_a)
    execute_dag_serial(dag, ws_b, order=order)
    np.testing.assert_allclose(ws_a.full("evals"), ws_b.full("evals"),
                               atol=1e-9)
    np.testing.assert_allclose(ws_a.full("R"), ws_b.full("R"), atol=1e-9)
