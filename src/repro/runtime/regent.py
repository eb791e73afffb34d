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
from repro.sim.schedulers import RegentScheduler

__all__ = ["RegentRuntime"]


class RegentRuntime(Runtime):
    """Legion-style execution: analysis pipeline + reserved util cores."""

    name = "regent"
    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")
    scheduler_cls = RegentScheduler

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
        options: BuildOptions = None,
        util_fraction: float = None,
        **overrides,
    ):
        if util_fraction is None:
            # Paper's empirically-optimal -ll:cpu/-ll:util splits.
            util_fraction = 4 / 28 if machine.n_cores <= 32 else 18 / 128
        self.util_fraction = util_fraction
        super().__init__(machine, first_touch, seed, options,
                         util_fraction=util_fraction, **overrides)
