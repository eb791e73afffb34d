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
from repro.runtime.base import Runtime
from repro.sim.schedulers import HPXScheduler

__all__ = ["HPXRuntime"]


class HPXRuntime(Runtime):
    """Dataflow execution under the HPX scheduling model."""

    name = "hpx"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")
    scheduler_cls = HPXScheduler
