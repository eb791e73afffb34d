"""HPX: future/dataflow execution with NUMA-aware scheduling (§3.2).

The Listing 2 structure — per-chunk ``shared_future`` chains, dataflow
nodes firing when inputs are ready, empty blocks skipped — is what the
DAG builder produces; this runtime adds HPX's scheduling personality:
NUMA-domain queues fed by scheduling hints (the §5.1 optimization worth
≈50 % on EPYC), work stealing across domains, and weak prioritization
of early-spawned tasks.
"""

from __future__ import annotations

from repro.graph.builder import BuildOptions
from repro.machine.topology import MachineSpec
from repro.runtime.base import Runtime
from repro.sim.engine import RunResult, SimulationEngine
from repro.sim.schedulers import HPXScheduler

__all__ = ["HPXRuntime"]


class HPXRuntime(Runtime):
    """Dataflow execution under the HPX scheduling model."""

    name = "hpx"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
        options: BuildOptions = None,
        overhead_per_task: float = 0.55e-6,
        spawn_cost: float = 0.25e-6,
        numa_aware: bool = True,
        shuffle_window: int = 8,
    ):
        super().__init__(machine, first_touch, seed, options)
        self.overhead_per_task = overhead_per_task
        self.spawn_cost = spawn_cost
        self.numa_aware = numa_aware
        self.shuffle_window = shuffle_window

    def make_scheduler(self) -> HPXScheduler:
        return HPXScheduler(
            overhead_per_task=self.overhead_per_task,
            spawn_cost=self.spawn_cost,
            numa_aware=self.numa_aware,
            shuffle_window=self.shuffle_window,
        )

    def execute(self, dag, iterations: int = 1, tracer=None,
                record_flow: bool = True) -> RunResult:
        engine = SimulationEngine(
            self.machine, first_touch=self.first_touch, seed=self.seed
        )
        return engine.run(dag, self.make_scheduler(),
                          iterations=iterations, tracer=tracer,
                          record_flow=record_flow)
