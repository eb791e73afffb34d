"""repro: task-parallel runtime evaluation for sparse eigensolvers.

A full reproduction of "An Evaluation of Task-Parallel Frameworks for
Sparse Solvers on Multicore and Manycore CPU Architectures"
(Alperen et al., ICPP '21): CSB-tiled Lanczos and LOBPCG expressed as
task dependency graphs and executed under four runtime models --
DeepSparse/OpenMP tasking, HPX dataflow, Regent regions, and BSP
library baselines -- over an explicit machine model of the paper's
Broadwell and EPYC nodes (cache hierarchy, NUMA, per-runtime
scheduling).

Quick start::

    from repro.matrices import load_matrix, CSBMatrix
    from repro.solvers import lobpcg

    A = CSBMatrix.from_coo(load_matrix("nlpkkt160", scale=4096), 256)
    res = lobpcg(A, n=4, maxiter=50)
    print(res.eigenvalues)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

__version__ = "1.0.0"

__all__ = [
    "matrices",
    "kernels",
    "graph",
    "machine",
    "sim",
    "runtime",
    "solvers",
    "tuning",
    "analysis",
    "__version__",
]
