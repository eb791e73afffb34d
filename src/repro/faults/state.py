"""Per-run mutable fault state threaded through the engines.

A :class:`FaultState` is built by ``FaultPlan.state(machine)`` at the
start of a run: selectors are resolved to concrete core ids, and the
engines then consult it at every iteration barrier
(:meth:`begin_iteration`) and, for task faults, at every task
completion (:meth:`task_fails`).  All accounting the engines charge to
the simulated clock is mirrored here so :meth:`finalize` can emit the
:class:`~repro.faults.report.FaultReport`.

Every decision is a pure function of the plan seed and the decision
coordinates (via :func:`~repro.faults.plan.fault_hash`), so two runs
of the same plan on the same inputs are bit-identical regardless of
process or platform.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, fault_hash
from repro.faults.report import RECOVERY_POLICIES, FaultReport

__all__ = ["FaultState"]


class FaultState:
    def __init__(self, plan: FaultPlan, machine) -> None:
        self.plan = plan
        self.machine = machine
        n = machine.n_cores

        # Resolve slow-core selectors.  core -> (factor, onset); a core
        # named twice keeps the harsher (larger) factor.
        self._slow: Dict[int, Tuple[float, int]] = {}
        for i, s in enumerate(plan.slow):
            for core in machine.select_cores(s.selector, plan.seed, f"slow:{i}"):
                prev = self._slow.get(core)
                if prev is None or s.factor > prev[0]:
                    self._slow[core] = (s.factor, s.onset)

        # Resolve core-loss selectors.  core -> death iteration; a core
        # named twice dies at the earlier iteration.
        self._loss_at: Dict[int, int] = {}
        for i, l in enumerate(plan.losses):
            for core in machine.select_cores(l.selector, plan.seed, f"loss:{i}"):
                prev = self._loss_at.get(core)
                if prev is None or l.at < prev:
                    self._loss_at[core] = l.at

        if len(self._loss_at) >= n:
            raise ValueError(
                f"fault plan {plan.spec!r} (seed {plan.seed}) kills all "
                f"{n} cores; at least one must survive"
            )

        tf = plan.task_faults
        self.rate = tf.rate if tf is not None else 0.0
        self.budget = tf.budget if tf is not None else 0
        self._backoff_base = tf.backoff if tf is not None else 0.0

        # Current-iteration view, refreshed by begin_iteration().
        self._it = -1
        self._dead: set = set()
        self._factors: Optional[Tuple[float, ...]] = None

        # Accounting (mirrors what the engines charge to the clock).
        self.retries = 0
        self.abandoned = 0
        self.re_executed_time = 0.0
        self.backoff_time = 0.0
        self.slow_time = 0.0
        self.stall_time = 0.0

    # ------------------------------------------------------------------
    # Iteration-barrier protocol
    # ------------------------------------------------------------------
    def begin_iteration(self, it: int) -> Tuple[List[int], List[int]]:
        """Advance to iteration ``it``; return (newly dead, newly slow).

        Deaths and straggler onsets take effect at the barrier, so the
        engines call this once per iteration before releasing sources.
        """
        newly_dead = sorted(
            c for c, at in self._loss_at.items() if at == it
        ) if it >= 0 else []
        newly_slow = sorted(
            c
            for c, (_, onset) in self._slow.items()
            if onset == it and c not in self._loss_at
        )
        self._it = it
        self._dead = {c for c, at in self._loss_at.items() if at <= it}
        n = self.machine.n_cores
        factors = [1.0] * n
        active = False
        for c, (factor, onset) in self._slow.items():
            if onset <= it and c not in self._dead:
                factors[c] = factor
                active = True
        self._factors = tuple(factors) if active else None
        return newly_dead, newly_slow

    def dead(self, core: int) -> bool:
        return core in self._dead

    @property
    def dead_cores(self) -> set:
        return self._dead

    @property
    def derates(self) -> Optional[Tuple[float, ...]]:
        """Per-core derate factors for the current iteration, or None."""
        return self._factors

    def factor(self, core: int) -> float:
        return self._factors[core] if self._factors is not None else 1.0

    @property
    def recovery_core(self) -> int:
        """Lowest core id that survives every planned loss.

        The BSP baselines re-run a dead lane's deferred share here.
        """
        for c in range(self.machine.n_cores):
            if c not in self._loss_at:
                return c
        raise AssertionError("unreachable: validated at construction")

    def derate(self, core: int, dur: float, compute: float,
               overhead: float) -> Tuple[float, float, float]:
        """Stretch one task charge on the derated ``core``.

        A derate slows the core clock, which stretches the *compute*
        component and the core-clock-bound ``overhead`` (scheduler
        dispatch, BSP loop overhead); the memory component is set by
        uncore/DRAM transfer rates and is unchanged.  Books the added
        seconds in :attr:`slow_time` and returns the derated
        ``(dur, compute, overhead)``; ``dur`` excludes the overhead,
        which the engines add afterwards.  Kept out of the cost model
        so the fault layer never perturbs healthy pricing.
        """
        f = self._factors[core]
        extra = compute * (f - 1.0)
        ovh_extra = overhead * (f - 1.0)
        self.slow_time += extra + ovh_extra
        return dur + extra, compute + extra, overhead + ovh_extra

    # ------------------------------------------------------------------
    # Task-fault protocol
    # ------------------------------------------------------------------
    def task_fails(self, it: int, tid: int, attempt: int) -> bool:
        if self.rate <= 0.0:
            return False
        return fault_hash(self.plan.seed, "task", it, tid, attempt) < self.rate

    def backoff_seconds(self, attempt: int) -> float:
        return self._backoff_base * (2.0**attempt)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finalize(
        self, runtime_name: str, iteration_times: Tuple[float, ...]
    ) -> FaultReport:
        """Build the FaultReport for a finished run.

        ``iteration_times`` are the per-iteration wall-clock durations
        the engine recorded.  The recovery latency of a loss at
        iteration ``at`` is the slowdown of that iteration relative to
        the one before it — how much the barrier slipped while the
        runtime absorbed the loss.  It is None when the loss hit
        iteration 0 (no healthy baseline) or fell past the end of the
        run (never took effect).
        """
        core_losses: List[List[Optional[float]]] = []
        for core in sorted(self._loss_at):
            at = self._loss_at[core]
            latency: Optional[float] = None
            if 0 < at < len(iteration_times):
                latency = iteration_times[at] - iteration_times[at - 1]
            core_losses.append([core, at, latency])
        slow_cores = [
            [core, factor, onset]
            for core, (factor, onset) in sorted(self._slow.items())
        ]
        return FaultReport(
            spec=self.plan.spec,
            seed=self.plan.seed,
            policy=RECOVERY_POLICIES.get(runtime_name, ""),
            slow_cores=slow_cores,
            core_losses=core_losses,
            retries=self.retries,
            abandoned=self.abandoned,
            re_executed_time=self.re_executed_time,
            backoff_time=self.backoff_time,
            slow_time=self.slow_time,
            stall_time=self.stall_time,
        )
