"""DeepSparse: OpenMP tasking over the explicitly generated TDG (§3.1).

The PCU front end lives in :mod:`repro.graph` (trace → TDGG); this
class is the Task Executor analogue: it spawns the DAG's tasks in
depth-first topological order and lets the OpenMP-style scheduler run
them, with the cache-affinity preference that gives DeepSparse its
pipelined execution profile.
"""

from __future__ import annotations

from repro.graph.builder import BuildOptions
from repro.runtime.base import Runtime
from repro.sim.schedulers import DeepSparseScheduler

__all__ = ["DeepSparseRuntime"]


class DeepSparseRuntime(Runtime):
    """OpenMP-task execution of the DeepSparse TDG."""

    name = "deepsparse"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")
    scheduler_cls = DeepSparseScheduler
