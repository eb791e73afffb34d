"""The benchmark solvers: Lanczos and LOBPCG (§4).

Both are written once against the primitive engine API
(:mod:`repro.solvers.primitives`) and interpreted two ways:

* **eagerly** — NumPy execution for numerical results and ground truth,
* **traced** — a per-iteration primitive trace that the TDGG expands
  into the task DAG every runtime executes.

This mirrors DeepSparse's design, where the solver is expressed as
GraphBLAS/BLAS-style calls and the framework derives the task graph.
"""

from repro.solvers.workspace import Workspace
from repro.solvers.primitives import EagerEngine, TracingEngine
from repro.solvers.lanczos import (
    lanczos,
    lanczos_trace,
    lanczos_operands,
    LanczosResult,
)
from repro.solvers.lobpcg import (
    lobpcg,
    lobpcg_trace,
    lobpcg_operands,
    LOBPCGResult,
)
from repro.solvers.convergence import ConvergenceHistory

__all__ = [
    "Workspace",
    "EagerEngine",
    "TracingEngine",
    "lanczos",
    "lanczos_trace",
    "lanczos_operands",
    "LanczosResult",
    "lobpcg",
    "lobpcg_trace",
    "lobpcg_operands",
    "LOBPCGResult",
    "ConvergenceHistory",
]
