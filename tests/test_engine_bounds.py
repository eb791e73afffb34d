"""Scheduling-theory bounds on the simulated executions.

Any legal schedule of a DAG on P cores satisfies the classic bounds:
makespan ≥ total-work / P and makespan ≥ critical-path time; and any
greedy (work-conserving) schedule stays within Graham's 2× of their
max.  The event engine must respect all three — these catch engine
accounting bugs (double-charged tasks, phantom idle time) that
correctness tests can't see.
"""

import pytest

from repro.analysis.experiment import _trace
from repro.graph.builder import DAGBuilder
from repro.machine import broadwell, epyc
from repro.matrices.suite import SUITE
from repro.runtime.base import build_solver_dag
from repro.sim.engine import SimulationEngine, run_bsp
from repro.sim.schedulers import DeepSparseScheduler, HPXScheduler
from repro.tuning.blocksize import block_size_for_count


@pytest.fixture(scope="module", params=["lanczos", "lobpcg"])
def trace(request):
    bs = block_size_for_count(SUITE["Queen4147"].paper_rows, 48)
    width = 20 if request.param == "lanczos" else 8
    return _trace("Queen4147", bs, request.param, width)


@pytest.fixture(scope="module")
def problem(trace):
    cen, calls, chunked, small = trace
    return build_solver_dag(cen, calls, chunked, small)


@pytest.mark.parametrize("sched_cls", [DeepSparseScheduler, HPXScheduler])
def test_makespan_respects_lower_bounds(problem, sched_cls, bw):
    eng = SimulationEngine(bw)
    res = eng.run(problem, sched_cls(), iterations=1)
    p = bw.n_cores
    busy = res.counters.busy_time
    # Work bound: P cores cannot retire more than P·T seconds of work.
    assert res.total_time >= busy / p - 1e-12
    # Sanity: busy time is positive and tasks all priced.
    assert busy > 0
    assert res.counters.tasks_executed == len(problem)


def test_makespan_at_least_critical_path_time(problem, trace, bw):
    """The span bound: no schedule beats the longest dependent chain.

    Chain time is evaluated with compute-only costs (a lower bound on
    any task's true duration, which adds memory time and overheads),
    over the same DAG's ``Task`` list (its ``build_tasks`` twin).
    """
    cen, calls, chunked, small = trace
    twin = DAGBuilder(cen, "A", chunked, small).build_tasks(calls)
    eng = SimulationEngine(bw)
    cm = eng.cost
    span = twin.critical_path(weight=cm.compute_seconds)
    res = eng.run(problem, DeepSparseScheduler(), iterations=1)
    assert res.total_time >= span - 1e-12


def test_greedy_schedule_graham_bound(problem, bw):
    """Graham: greedy ≤ work/P + span (with per-task costs bounded by
    each task's own charged duration, a generous span surrogate)."""
    eng = SimulationEngine(bw)
    res = eng.run(problem, DeepSparseScheduler(), iterations=1)
    busy = res.counters.busy_time
    # span surrogate: longest chain weighted by the heaviest observed
    # per-task duration (loose but engine-independent)
    max_dur = max(r.end - r.start for r in res.flow.records)
    span_bound = problem.critical_path() * max_dur
    assert res.total_time <= busy / bw.n_cores + span_bound + 1e-9


def test_bsp_never_faster_than_work_bound(problem, bw):
    res = run_bsp(bw, problem, iterations=1)
    assert res.total_time >= res.counters.busy_time / bw.n_cores - 1e-12


def test_iteration_times_stationary_after_warmup(problem, ep):
    """With warm caches, iterations 2..k have stable durations."""
    eng = SimulationEngine(ep)
    res = eng.run(problem, HPXScheduler(), iterations=4)
    tail = res.iteration_times[1:]
    assert max(tail) <= min(tail) * 1.2


def test_flow_accounts_every_second(problem, bw):
    """Busy time from the flow records equals the counters' busy time."""
    eng = SimulationEngine(bw)
    res = eng.run(problem, DeepSparseScheduler(), iterations=1)
    flow_busy = sum(r.end - r.start for r in res.flow.records)
    assert flow_busy == pytest.approx(res.counters.busy_time, rel=1e-9)
