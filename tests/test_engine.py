"""Discrete-event engine and BSP executor: schedules, barriers, flow."""

import pickle

import pytest

from repro.graph.builder import BuildOptions
from repro.graph.dag import TaskDAG
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.runtime.base import build_solver_dag
from repro.sim.engine import SimulationEngine, _bsp_phase_assignments, run_bsp
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
    Scheduler,
)
from repro.solvers import lanczos_trace, lobpcg_trace


@pytest.fixture(scope="module")
def small_problem():
    csb = CSBMatrix.from_coo(banded_fem(400, 8, seed=4), 50)
    calls, chunked, small = lobpcg_trace(csb, n=4)
    dag = build_solver_dag(csb, calls, chunked, small)
    return dag


def test_event_engine_executes_everything(bw, small_problem):
    eng = SimulationEngine(bw)
    res = eng.run(small_problem, DeepSparseScheduler(), iterations=1)
    assert res.counters.tasks_executed == len(small_problem)
    assert res.total_time > 0
    assert len(res.flow) == len(small_problem)


def test_flow_respects_dependences(bw, small_problem):
    """Every recorded start is after all predecessors' ends."""
    eng = SimulationEngine(bw)
    res = eng.run(small_problem, DeepSparseScheduler(), iterations=1)
    end_of = {r.tid: r.end for r in res.flow.records}
    start_of = {r.tid: r.start for r in res.flow.records}
    for (u, v) in small_problem._edge_pairs():
        assert end_of[u] <= start_of[v] + 1e-12


def test_no_core_overlap(bw, small_problem):
    """A core never executes two tasks at once, under every policy and
    across iteration barriers."""
    runs = [SimulationEngine(bw).run(small_problem, sched(), iterations=2)
            for sched in (DeepSparseScheduler, HPXScheduler,
                          RegentScheduler)]
    runs.append(run_bsp(bw, small_problem, iterations=2))
    for res in runs:
        per_core = {}
        for r in res.flow.records:
            per_core.setdefault(r.core, []).append((r.start, r.end))
        for ivs in per_core.values():
            ivs.sort()
            for (s1, e1), (s2, _e2) in zip(ivs, ivs[1:]):
                assert s2 >= e1 - 1e-12, res.policy


def test_iterations_accumulate(bw, small_problem):
    eng = SimulationEngine(bw)
    res = eng.run(small_problem, DeepSparseScheduler(), iterations=3)
    assert len(res.iteration_times) == 3
    assert res.counters.tasks_executed == 3 * len(small_problem)
    assert res.total_time == pytest.approx(sum(res.iteration_times))
    # warm caches: later iterations are no slower than the first
    assert res.iteration_times[1] <= res.iteration_times[0] * 1.01


def test_speedup_over(bw, small_problem):
    eng1 = SimulationEngine(bw)
    r1 = eng1.run(small_problem, DeepSparseScheduler(), iterations=1)
    r2 = run_bsp(bw, small_problem, iterations=1)
    assert r1.speedup_over(r2) == pytest.approx(
        r2.time_per_iteration / r1.time_per_iteration
    )


def test_bsp_phases_are_barriers(bw, small_problem):
    """BSP: kernels never overlap in time (phase envelopes disjoint)."""
    res = run_bsp(bw, small_problem, iterations=1)
    assert res.counters.tasks_executed == len(small_problem)
    # group flow records by primitive call (seq); consecutive phases
    # must be disjoint in time
    by_seq = {}
    for r in res.flow.records:
        t = small_problem.tasks[r.tid]
        lo, hi = by_seq.get(t.seq, (r.start, r.end))
        by_seq[t.seq] = (min(lo, r.start), max(hi, r.end))
    seqs = sorted(by_seq)
    for a, b in zip(seqs, seqs[1:]):
        assert by_seq[a][1] <= by_seq[b][0] + 1e-12


def test_amt_pipelines_across_phases(bw, small_problem):
    """AMT runs tasks of different primitive calls concurrently; BSP
    never does (phase barriers)."""
    amt = SimulationEngine(bw).run(small_problem, DeepSparseScheduler(),
                                   iterations=1)
    seq_of = {t.tid: t.seq for t in small_problem.tasks}

    def cross_seq_overlaps(flow):
        recs = sorted(flow.records, key=lambda r: r.start)
        count = 0
        for a, b in zip(recs, recs[1:]):
            if b.start < a.end and seq_of[a.tid] != seq_of[b.tid]:
                count += 1
        return count

    bsp = run_bsp(bw, small_problem, iterations=1)
    assert cross_seq_overlaps(amt.flow) > 0
    assert cross_seq_overlaps(bsp.flow) == 0


def test_base_scheduler_runs_lanczos(bw):
    csb = CSBMatrix.from_coo(banded_fem(300, 6, seed=9), 60)
    calls, chunked, small = lanczos_trace(csb, k=8)
    dag = build_solver_dag(csb, calls, chunked, small)
    res = SimulationEngine(bw).run(dag, Scheduler(), iterations=2)
    assert res.counters.tasks_executed == 2 * len(dag)


def test_empty_dag(bw):
    from repro.graph.dag import TaskDAG

    res = SimulationEngine(bw).run(TaskDAG(), DeepSparseScheduler())
    assert res.counters.tasks_executed == 0


class _PredlessDAG(TaskDAG):
    """A DAG whose predecessor lists cannot be read."""

    @property
    def pred(self):
        raise AssertionError("run_bsp read dag.pred")


@pytest.mark.parametrize("iterations", [1, 5])
def test_bsp_runs_from_its_phase_table_alone(bw, small_problem, iterations):
    """A prepped DAG's phases carry their intra-phase predecessors, so
    ``run_bsp`` on a loaded DAG whose ``pred`` raises gives the same
    run as the DAG it was pickled from."""
    dag = pickle.loads(pickle.dumps(small_problem))
    _bsp_phase_assignments(dag, bw.n_cores)
    loaded = pickle.loads(pickle.dumps(dag))
    loaded.__class__ = _PredlessDAG
    with pytest.raises(AssertionError):
        loaded.pred
    ref = run_bsp(bw, dag, iterations=iterations)
    res = run_bsp(bw, loaded, iterations=iterations)
    assert res.total_time == ref.total_time
    assert res.iteration_times == ref.iteration_times
    assert res.flow.records == ref.flow.records
    assert res.counters == ref.counters


def test_bsp_raises_on_a_predecessor_later_in_its_phase(bw, small_problem):
    """An intra-phase predecessor that runs after its task has no end
    to wait for: ``run_bsp`` raises rather than ignore the edge."""
    dag = pickle.loads(pickle.dumps(small_problem))
    phases = _bsp_phase_assignments(dag, bw.n_cores)
    p, k = next((p, k) for p, (_t, _c, preds) in enumerate(phases)
                for k, ps in enumerate(preds) if ps)
    tids, cores, preds = phases[p]
    u = preds[k][0]
    j = tids.index(u)
    tids[j], tids[k] = tids[k], tids[j]   # the task now runs first
    preds[j], preds[k] = preds[k], preds[j]
    with pytest.raises(KeyError):
        run_bsp(bw, dag, iterations=1)
