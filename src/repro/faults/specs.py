"""Named fault-spec registry.

A spec is a reusable recipe; combined with an integer seed it yields a
fully reproducible :class:`~repro.faults.plan.FaultPlan`.  The names
here are the vocabulary of ``repro chaos --spec`` and of the frozen
faulted cells in ``tests/fixtures/fault_equivalence.json``, so
changing a recipe changes recorded numbers — add new names instead of
editing existing ones.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.faults.plan import CoreLoss, FaultPlan, SlowCore, TaskFaults

__all__ = ["FAULT_SPECS", "make_plan"]


def _none(seed: int) -> FaultPlan:
    return FaultPlan(spec="none", seed=seed)


def _slow_core(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="slow-core",
        seed=seed,
        slow=(SlowCore(selector="random", factor=2.5, onset=0),),
    )


def _straggler(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="straggler",
        seed=seed,
        slow=(SlowCore(selector="random", factor=3.0, onset=2),),
    )


def _core_loss(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="core-loss",
        seed=seed,
        losses=(CoreLoss(selector="random", at=2),),
    )


def _domain_loss(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="domain-loss",
        seed=seed,
        losses=(CoreLoss(selector="domain:0", at=2),),
    )


def _flaky_tasks(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="flaky-tasks",
        seed=seed,
        task_faults=TaskFaults(rate=0.05, budget=3, backoff=5e-6),
    )


def _chaos(seed: int) -> FaultPlan:
    return FaultPlan(
        spec="chaos",
        seed=seed,
        slow=(SlowCore(selector="random", factor=2.5, onset=1),),
        losses=(CoreLoss(selector="random", at=2),),
        task_faults=TaskFaults(rate=0.02, budget=3, backoff=5e-6),
    )


FAULT_SPECS: Dict[str, Callable[[int], FaultPlan]] = {
    "none": _none,
    "slow-core": _slow_core,
    "straggler": _straggler,
    "core-loss": _core_loss,
    "domain-loss": _domain_loss,
    "flaky-tasks": _flaky_tasks,
    "chaos": _chaos,
}


def make_plan(spec: str, seed: int = 0) -> FaultPlan:
    try:
        factory = FAULT_SPECS[spec]
    except KeyError:
        known = ", ".join(sorted(FAULT_SPECS))
        raise ValueError(f"unknown fault spec {spec!r} (known: {known})") from None
    return factory(seed)
