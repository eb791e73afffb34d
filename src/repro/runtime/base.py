"""Runtime façade: one interface for all four solver versions.

A runtime couples a DAG decomposition policy (its
:class:`~repro.graph.builder.BuildOptions`) with an execution strategy
(a scheduler on the event engine, or the BSP phase executor) on one
simulated machine.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.dag import TaskDAG
from repro.machine.topology import MachineSpec
from repro.sim.engine import RunResult, SimulationEngine

__all__ = ["Runtime", "build_solver_dag"]


def build_solver_dag(
    matrix,
    calls,
    chunked: Dict[str, int],
    small: Dict[str, Tuple[int, int]],
    matrix_name: str = "A",
    options: Optional[BuildOptions] = None,
) -> TaskDAG:
    """Expand a solver trace over a CSB matrix (or block census) into a
    simulation DAG (no ``Task`` list: the real executors take
    :meth:`DAGBuilder.build_tasks`)."""
    builder = DAGBuilder(
        matrix,
        matrix_name=matrix_name,
        chunked=chunked,
        small=small,
        options=options or BuildOptions(),
    )
    return builder.build(calls)


class Runtime:
    """Abstract solver-version runner.

    Parameters
    ----------
    machine:
        Simulated node the version runs on.
    first_touch:
        NUMA page-placement policy (§5.1 Fig. 5 ablation).
    seed:
        Determinism seed for stochastic scheduling decisions.
    overrides:
        Keyword overrides of :attr:`scheduler_cls`'s defaults (its
        overhead constants and policy switches, for ablations).  The
        scheduler's signature is the one place those defaults live.
    """

    name = "abstract"
    #: decomposition defaults; subclasses override for their ablations
    default_options = BuildOptions()
    #: Scheduler the event engine runs this version under (``None``
    #: for the BSP baselines, which bring their own executor).
    scheduler_cls = None

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
        options: Optional[BuildOptions] = None,
        **overrides,
    ):
        self.machine = machine
        self.first_touch = first_touch
        self.seed = seed
        self.options = options or self.default_options
        self.overrides = overrides
        if self.scheduler_cls is not None:
            self.make_scheduler()       # an unknown override fails here

    # ------------------------------------------------------------------
    def build_dag(
        self, matrix, calls, chunked, small, matrix_name: str = "A"
    ) -> TaskDAG:
        """Decompose a trace with this runtime's preferred options."""
        return build_solver_dag(
            matrix, calls, chunked, small, matrix_name, self.options
        )

    def make_scheduler(self):
        """A fresh scheduler (schedulers keep per-run state)."""
        return self.scheduler_cls(**self.overrides)

    def execute(self, dag: TaskDAG, iterations: int = 1,
                tracer=None,
                record_flow: bool = True) -> RunResult:
        """Run the DAG for ``iterations`` barriered repetitions.

        ``tracer`` (optional :class:`repro.trace.Tracer`) attaches the
        observability layer; results are bit-identical either way.
        ``record_flow=False`` drops the per-task flow records; the flow
        summary is the same either way.
        """
        engine = SimulationEngine(
            self.machine, first_touch=self.first_touch, seed=self.seed
        )
        return engine.run(dag, self.make_scheduler(),
                          iterations=iterations, tracer=tracer,
                          record_flow=record_flow)

    def run(
        self, matrix, calls, chunked, small, iterations: int = 1,
        matrix_name: str = "A", tracer=None,
    ) -> RunResult:
        """Build + execute in one step (the common benchmark path)."""
        dag = self.build_dag(matrix, calls, chunked, small, matrix_name)
        return self.execute(dag, iterations=iterations, tracer=tracer)

    def __repr__(self):
        return f"{type(self).__name__}({self.machine.name})"
