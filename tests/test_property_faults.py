"""Property suite for the fault layer's load-bearing invariants.

1. **Determinism** — a seeded :class:`~repro.faults.FaultPlan` is the
   *only* source of randomness: two runs of the same plan over the same
   cell must produce bit-identical simulated numbers and fault reports,
   whatever combination of injections the plan contains.

2. **Identity** — a zero-fault plan must be observationally invisible:
   passing ``faults=FaultPlan.empty()`` (or no plan at all) must
   reproduce the frozen equivalence fixture exactly, with the engine
   kill-switch ``REPRO_NO_STEADY_STATE`` set or unset — the fault path
   may not perturb the steady-state replay, and the replay may not
   leak into the fault path.

3. **Model invariants** — under any plan, per-core executions never
   overlap, a lost core runs nothing from its loss iteration on, and
   ``tasks_executed`` counts every DAG task once per iteration plus
   every retry.
"""

from __future__ import annotations

import json
import os

from hypothesis import example, given, settings, strategies as st

from repro.analysis.experiment import run_version
from repro.faults import CoreLoss, FaultPlan, SlowCore, TaskFaults
from repro.sim.engine import _EPS

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "engine_equivalence.json")
with open(FIXTURE, "r", encoding="utf-8") as _f:
    _CELLS = json.load(_f)

_VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")


def _observed(res) -> dict:
    c = res.counters
    return {
        "total_time": res.total_time,
        "iteration_times": list(res.iteration_times),
        "n_cores": res.n_cores,
        "n_tasks_per_iteration": res.n_tasks_per_iteration,
        "l1_misses": c.l1_misses,
        "l2_misses": c.l2_misses,
        "l3_misses": c.l3_misses,
        "tasks_executed": c.tasks_executed,
        "busy_time": c.busy_time,
        "overhead_time": c.overhead_time,
        "compute_time": c.compute_time,
        "memory_time": c.memory_time,
        "kernel_time": c.kernel_time,
        "kernel_tasks": c.kernel_tasks,
    }


@st.composite
def fault_plans(draw):
    """A random non-empty plan: any subset of the three fault kinds."""
    seed = draw(st.integers(0, 2**31 - 1))
    slow = ()
    losses = ()
    tf = None
    kinds = draw(st.sets(st.sampled_from(["slow", "loss", "tasks"]),
                         min_size=1))
    if "slow" in kinds:
        slow = (SlowCore(
            selector=draw(st.sampled_from(["random", "first", "last", 3])),
            factor=draw(st.sampled_from([1.5, 2.0, 3.0, 4.0])),
            onset=draw(st.integers(0, 2)),
        ),)
    if "loss" in kinds:
        losses = (CoreLoss(
            selector=draw(st.sampled_from(["random", "first", "last", 5])),
            at=draw(st.integers(0, 3)),
        ),)
    if "tasks" in kinds:
        tf = TaskFaults(
            rate=draw(st.sampled_from([0.01, 0.05, 0.15])),
            budget=draw(st.integers(0, 3)),
            backoff=draw(st.sampled_from([0.0, 1e-6, 5e-6])),
        )
    return FaultPlan(spec="property", seed=seed, slow=slow,
                     losses=losses, task_faults=tf)


@given(plan=fault_plans(),
       version=st.sampled_from(["libcsb", "deepsparse", "hpx", "regent"]))
@settings(max_examples=15, deadline=None)
def test_same_plan_same_numbers(plan, version):
    """Same seed, same plan -> bit-identical run and fault report."""
    a = run_version("broadwell", "inline1", "lanczos", version,
                    block_count=16, iterations=4, faults=plan)
    b = run_version("broadwell", "inline1", "lanczos", version,
                    block_count=16, iterations=4, faults=plan)
    assert _observed(a) == _observed(b)  # floats compared with ==
    assert a.fault_report.to_dict() == b.fault_report.to_dict()
    assert [tuple(r) for r in a.flow.records] == \
        [tuple(r) for r in b.flow.records]


@given(version=st.sampled_from(_VERSIONS),
       no_steady_state=st.booleans())
@settings(max_examples=16, deadline=None)
def test_zero_fault_plan_reproduces_frozen_fixture(
        version, no_steady_state):
    """Empty plan == fixture, with and without the hot-path kill
    switch — the fault layer must neither perturb nor depend on the
    steady-state replay."""
    saved = os.environ.pop("REPRO_NO_STEADY_STATE", None)
    try:
        if no_steady_state:
            os.environ["REPRO_NO_STEADY_STATE"] = "1"
        res = run_version("broadwell", "inline1", "lanczos", version,
                          block_count=16, iterations=12,
                          faults=FaultPlan.empty())
    finally:
        os.environ.pop("REPRO_NO_STEADY_STATE", None)
        if saved is not None:
            os.environ["REPRO_NO_STEADY_STATE"] = saved
    assert res.fault_report is None
    got = _observed(res)
    expected = _CELLS[f"broadwell/inline1/lanczos/{version}/16/12"]
    for field, exp in expected.items():
        assert got[field] == exp, (version, field)


@given(plan=fault_plans(), version=st.sampled_from(_VERSIONS))
# A finish one ulp after the event that frees its core (see below).
@example(plan=FaultPlan(spec="property", seed=2436329,
                        slow=(SlowCore("first", 1.5, 0),),
                        losses=(CoreLoss("random", 2),),
                        task_faults=TaskFaults(rate=0.05, budget=1,
                                               backoff=0.0)),
         version="hpx")
@settings(max_examples=20, deadline=None)
def test_faulted_run_invariants(plan, version):
    """Model invariants every faulted run must satisfy, whatever the
    plan: a core runs one task at a time (retries included), a lost
    core executes nothing from its loss iteration on, and every
    executed task is either a DAG task of some iteration or a retry.

    The event loop folds every finish within ``_EPS`` of the current
    event into it, so a core freed that way takes its next task at the
    event time, which may precede its last finish by up to ``_EPS``:
    records on one core may touch within that reach, never overlap
    beyond it."""
    iterations = 4
    res = run_version("broadwell", "inline1", "lanczos", version,
                      block_count=16, iterations=iterations, faults=plan)
    report = res.fault_report
    last_end: dict = {}
    for r in sorted(res.flow.records, key=lambda r: (r.core, r.start,
                                                     r.end)):
        assert r.start >= last_end.get(r.core, r.start) - _EPS, r
        last_end[r.core] = r.end
    for core, at, _latency in report.core_losses:
        assert not any(r.core == core and r.iteration >= at
                       for r in res.flow.records), (core, at)
    assert res.counters.tasks_executed == \
        res.n_tasks_per_iteration * iterations + report.retries
