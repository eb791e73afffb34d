"""Runtime systems: the four solver versions of the paper.

* :class:`~repro.runtime.bsp.BSPRuntime` — fork-join library baseline
  (``libcsr`` at one row chunk per core, ``libcsb`` at the CSB block
  size).
* :class:`~repro.runtime.deepsparse.DeepSparseRuntime` — OpenMP tasking
  driven by DeepSparse's explicitly generated TDG.
* :class:`~repro.runtime.hpx.HPXRuntime` — future/dataflow execution
  with NUMA-aware scheduling hints.
* :class:`~repro.runtime.regent.RegentRuntime` — region/privilege
  dependence analysis with reserved utility cores.

Each runtime takes the same task DAG (or builds it with its preferred
options) and executes it on a simulated machine, returning a
:class:`~repro.sim.engine.RunResult`.

:class:`~repro.runtime.threaded.ThreadedRuntime` and
:func:`~repro.runtime.threaded.execute_dag_serial` run the same DAG's
task bodies for real, on NumPy data, from its task DAG
(:meth:`~repro.graph.builder.DAGBuilder.build_tasks`); the equivalence
tests use them to check that every DAG computes what the eager solvers
compute.
"""

from repro.runtime.base import Runtime, build_solver_dag
from repro.runtime.bsp import BSPRuntime, libcsr_partitions
from repro.runtime.deepsparse import DeepSparseRuntime
from repro.runtime.hpx import HPXRuntime
from repro.runtime.regent import RegentRuntime
from repro.runtime.threaded import ThreadedRuntime, execute_dag_serial

__all__ = [
    "Runtime",
    "build_solver_dag",
    "BSPRuntime",
    "libcsr_partitions",
    "DeepSparseRuntime",
    "HPXRuntime",
    "RegentRuntime",
    "ThreadedRuntime",
    "execute_dag_serial",
]
