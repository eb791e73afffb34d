"""Regent: region/privilege dependence analysis on Legion (§3.3).

Regent discovers the same DAG implicitly from privileges; what it adds
— and what this runtime models — is the *cost* of that discovery: a
serial dependence-analysis pipeline (cheap only for
``__demand(__index_launch)`` loops), per-task mapping overhead, and a
``-ll:util`` core split that removes workers (4/28 on Broadwell, 18/128
on EPYC in the paper's tuning).  The reduction-privilege SpMM variant
(Fig. 7) is selected with ``options=BuildOptions(spmm_mode="reduction")``.
"""

from __future__ import annotations

from repro.graph.builder import BuildOptions
from repro.machine.topology import MachineSpec
from repro.runtime.base import Runtime
from repro.sim.engine import RunResult, SimulationEngine
from repro.sim.schedulers import RegentScheduler

__all__ = ["RegentRuntime"]


class RegentRuntime(Runtime):
    """Legion-style execution: analysis pipeline + reserved util cores."""

    name = "regent"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
        options: BuildOptions = None,
        overhead_per_task: float = 0.8e-6,
        analysis_cost: float = 15.0e-6,
        index_launch_cost: float = 0.25e-6,
        util_fraction: float = None,
        dynamic_tracing: bool = False,
    ):
        super().__init__(machine, first_touch, seed, options)
        self.overhead_per_task = overhead_per_task
        self.analysis_cost = analysis_cost
        self.index_launch_cost = index_launch_cost
        self.dynamic_tracing = dynamic_tracing
        if util_fraction is None:
            # Paper's empirically-optimal -ll:cpu/-ll:util splits.
            util_fraction = 4 / 28 if machine.n_cores <= 32 else 18 / 128
        self.util_fraction = util_fraction

    def make_scheduler(self) -> RegentScheduler:
        return RegentScheduler(
            overhead_per_task=self.overhead_per_task,
            analysis_cost=self.analysis_cost,
            index_launch_cost=self.index_launch_cost,
            util_fraction=self.util_fraction,
            dynamic_tracing=self.dynamic_tracing,
        )

    def execute(self, dag, iterations: int = 1, tracer=None,
                record_flow: bool = True) -> RunResult:
        engine = SimulationEngine(
            self.machine, first_touch=self.first_touch, seed=self.seed
        )
        return engine.run(dag, self.make_scheduler(),
                          iterations=iterations, tracer=tracer,
                          record_flow=record_flow)
