"""Metamorphic cross-scheduler invariants on random built DAGs.

Every runtime policy (DeepSparse, HPX, Regent, BSP) executing a random
builder-produced DAG must land between the scheduling-theory bounds —
makespan no better than the compute-only critical path or the work/P
bound, and no worse than serializing every charged second — and must
do so with the engine's equivalence switch ``REPRO_NO_STEADY_STATE``
(iteration fast path off) both set and unset.  The switch is
documented bit-identical; here that promise is pinned on random DAGs
rather than the fixed paper problems of ``test_engine_bounds.py``.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.trace import TraceRecorder
from repro.machine import broadwell
from repro.matrices.coo import COOMatrix
from repro.matrices.csb import CSBMatrix
from repro.sim.engine import _default_barrier_cost, SimulationEngine, run_bsp
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
)
from tests.test_property_dag import random_problem, random_twins

POLICIES = ("deepsparse", "hpx", "regent", "bsp")

_SCHEDULERS = {
    "deepsparse": DeepSparseScheduler,
    "hpx": HPXScheduler,
    "regent": RegentScheduler,
}

#: The engine switch is read at call time, so toggling the
#: environment between runs is enough — no re-import needed.
_FLAGS = ("REPRO_NO_STEADY_STATE",)

FLAG_COMBOS = (
    {},
    {"REPRO_NO_STEADY_STATE": "1"},
)


@contextmanager
def _flags(combo):
    saved = {k: os.environ.get(k) for k in _FLAGS}
    try:
        for k in _FLAGS:
            os.environ.pop(k, None)
        os.environ.update(combo)
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _run(machine, dag, policy, seed=0, iterations=1):
    """Run ``dag`` under ``policy``; returns (result, scheduler|None)."""
    if policy == "bsp":
        return run_bsp(machine, dag, iterations=iterations), None
    sched = _SCHEDULERS[policy]()
    res = SimulationEngine(machine, seed=seed).run(
        dag, sched, iterations=iterations
    )
    return res, sched


def _serial_bound(machine, dag, res, policy, sched, iterations):
    """Serializing every charged second is the slowest legal schedule.

    Busy time covers task durations; overhead time covers runtime
    charges billed outside them.  Barriers close each iteration — and,
    under BSP, each fork-join phase — with a little slop per phase for
    the static loop overhead.  Policies that serialize task *release*
    (Regent's dependence-analysis pipeline) can hold the last task
    invisible past the serial-charge horizon, so the latest release
    offset is added once per iteration.
    """
    phases = iterations
    if policy == "bsp":
        phases = iterations * (len(dag.freeze().phase_indptr) - 1)
    release = 0.0
    if sched is not None:
        release = max(
            (sched.release_time(tid, 0.0) for tid in range(len(dag))),
            default=0.0,
        )
    c = res.counters
    return (c.busy_time + c.overhead_time
            + iterations * release
            + phases * (_default_barrier_cost(machine.n_cores) + 1e-6)
            + 1e-9)


@given(random_twins(), st.sampled_from(POLICIES), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_makespan_between_span_and_serial_sum(pair, policy, seed):
    """work/P ≤ span-bound ≤ makespan ≤ serialized charges, any policy.
    The compute-only span weighs the task twin's ``Task`` list."""
    dag, twin = pair
    bw = broadwell()
    span = twin.critical_path(
        weight=SimulationEngine(bw).cost.compute_seconds)
    res, sched = _run(bw, dag, policy, seed=seed)
    assert res.counters.tasks_executed == len(dag)
    assert res.total_time >= span - 1e-12
    assert res.total_time >= res.counters.busy_time / bw.n_cores - 1e-12
    assert res.total_time <= _serial_bound(bw, dag, res, policy, sched, 1)


@given(random_problem(), st.sampled_from(POLICIES))
@settings(max_examples=15, deadline=None)
def test_flag_combos_are_bit_identical(dag, policy):
    """The steady-state switch never changes a single bit.

    Six iterations so the steady-state detector has room to arm (it
    needs ≥ 4); the replay must reproduce the plain double-loop
    exactly — total, per-iteration times, and
    the full counter block.
    """
    baseline = None
    for combo in FLAG_COMBOS:
        with _flags(combo):
            res, _ = _run(broadwell(), dag, policy, seed=7, iterations=6)
        obs = (res.total_time, tuple(res.iteration_times),
               res.counters.busy_time, res.counters.overhead_time,
               res.counters.compute_time, res.counters.memory_time,
               res.counters.misses(), res.counters.tasks_executed)
        if baseline is None:
            baseline = obs
        else:
            assert obs == baseline, combo
    # All six iterations ran, under whichever path produced them.
    assert baseline[7] == 6 * len(dag)


def _spmm_only_dag():
    """196-task SPMM-only DAG that ``random_problem()`` once drew.

    Under DeepSparse the steady-state detector arms at iteration 4.  In
    the taped iteration a spawn-time release (``t0 + 28 * spawn_cost``)
    and a task finish land one ulp apart; at the next anchor their
    rounding flips, so full simulation starts the released task at the
    other value and every later start moves by about one ulp.
    """
    rng = np.random.default_rng(0)
    coo = COOMatrix((66, 66), rng.integers(0, 66, 1),
                    rng.integers(0, 66, 1), rng.standard_normal(1))
    t = TraceRecorder()
    t.record("SPMM", ("A", "X"), ("Y",))
    builder = DAGBuilder(CSBMatrix.from_coo(coo, 5), "A",
                         {"X": 2, "Y": 2, "Q": 2},
                         {"Z": (2, 2), "P": (2, 2), "s": (1, 1)},
                         BuildOptions(skip_empty=False,
                                      spmm_mode="dependency"))
    return builder.build(t.calls)


def test_replay_refuses_anchor_dependent_near_ties(monkeypatch):
    """Replay must match full simulation to the bit, or not commit."""
    dag = _spmm_only_dag()
    assert len(dag) == 196
    replays = []
    original = SimulationEngine._replay_iterations

    def spy(self, *args, **kwargs):
        replays.append(len(args[2].iteration_times))  # so far
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimulationEngine, "_replay_iterations", spy)
    runs = [SimulationEngine(broadwell(), seed=7).run(
        dag, DeepSparseScheduler(), iterations=6, steady_state=ss)
        for ss in (True, False)]
    assert replays == [4]  # the detector did arm on this DAG
    fast, full = runs
    assert fast.total_time == full.total_time
    assert fast.iteration_times == full.iteration_times
    assert fast.counters.to_dict() == full.counters.to_dict()
    assert [tuple(r) for r in fast.flow.records] == \
        [tuple(r) for r in full.flow.records]


@given(random_twins(), st.sampled_from(POLICIES), st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_multi_iteration_bounds_hold_per_iteration(pair, policy, seed):
    """Each barriered repetition individually beats the span bound,
    and the iteration times sum back to the total."""
    dag, twin = pair
    bw = broadwell()
    span = twin.critical_path(
        weight=SimulationEngine(bw).cost.compute_seconds)
    res, sched = _run(bw, dag, policy, seed=seed, iterations=3)
    assert len(res.iteration_times) == 3
    assert sum(res.iteration_times) <= res.total_time + 1e-9
    assert res.total_time <= _serial_bound(bw, dag, res, policy, sched, 3)
    for t in res.iteration_times:
        # Every iteration executes the whole DAG, so the compute-only
        # critical path lower-bounds each repetition individually.
        assert t >= span - 1e-12
