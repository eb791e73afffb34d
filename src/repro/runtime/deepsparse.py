"""DeepSparse: OpenMP tasking over the explicitly generated TDG (§3.1).

The PCU front end lives in :mod:`repro.graph` (trace → TDGG); this
class is the Task Executor analogue: it spawns the DAG's tasks in
depth-first topological order and lets the OpenMP-style scheduler run
them, with the cache-affinity preference that gives DeepSparse its
pipelined execution profile.
"""

from __future__ import annotations

from repro.graph.builder import BuildOptions
from repro.machine.topology import MachineSpec
from repro.runtime.base import Runtime
from repro.sim.engine import RunResult, SimulationEngine
from repro.sim.schedulers import DeepSparseScheduler

__all__ = ["DeepSparseRuntime"]


class DeepSparseRuntime(Runtime):
    """OpenMP-task execution of the DeepSparse TDG."""

    name = "deepsparse"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
        options: BuildOptions = None,
        overhead_per_task: float = 0.35e-6,
        spawn_cost: float = 0.15e-6,
    ):
        super().__init__(machine, first_touch, seed, options)
        self.overhead_per_task = overhead_per_task
        self.spawn_cost = spawn_cost

    def make_scheduler(self) -> DeepSparseScheduler:
        return DeepSparseScheduler(
            overhead_per_task=self.overhead_per_task,
            spawn_cost=self.spawn_cost,
        )

    def execute(self, dag, iterations: int = 1, tracer=None,
                record_flow: bool = True) -> RunResult:
        engine = SimulationEngine(
            self.machine, first_touch=self.first_touch, seed=self.seed
        )
        return engine.run(dag, self.make_scheduler(),
                          iterations=iterations, tracer=tracer,
                          record_flow=record_flow)
