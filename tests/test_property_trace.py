"""Property-based tests: trace-stream invariants on random problems.

The golden-trace tests pin one concrete cell; these push randomly
generated DAGs through every execution policy with the observability
layer attached and check the invariants any consumer of the stream
(Chrome trace export, metrics table, gantt renderer) relies on:

* a worker lane never runs two tasks at once,
* every DAG task appears exactly once per iteration,
* the queue-depth series is never negative and only moves at
  scheduling points,
* attaching the tracer never changes a simulated number.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from repro.machine import broadwell
from repro.sim.engine import SimulationEngine, run_bsp
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
)
from repro.trace import InMemorySink, Tracer

from tests.test_property_dag import random_problem

#: Task assignment may occur up to the engine's time epsilon before
#: the previous task on the lane retires.
_SLACK = 1e-9

_SCHED = {
    "deepsparse": DeepSparseScheduler,
    "hpx": HPXScheduler,
    "regent": RegentScheduler,
}


def _traced_run(dag, policy, seed, iterations):
    tracer = Tracer(InMemorySink())
    bw = broadwell()
    if policy == "bsp":
        res = run_bsp(bw, dag, iterations=iterations, tracer=tracer)
    else:
        res = SimulationEngine(bw, seed=seed).run(
            dag, _SCHED[policy](), iterations=iterations, tracer=tracer)
    return res, tracer.events


@given(random_problem(),
       st.sampled_from(["deepsparse", "hpx", "regent", "bsp"]),
       st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_no_lane_ever_runs_two_tasks_at_once(dag, policy, seed):
    _, events = _traced_run(dag, policy, seed, iterations=2)
    by_lane = {}
    for e in events:
        if e.kind == "task":
            by_lane.setdefault(e.core, []).append(e)
    for lane, tasks in by_lane.items():
        tasks.sort(key=lambda t: (t.start, t.end))
        for a, b in zip(tasks, tasks[1:]):
            assert b.start >= a.end - _SLACK, (
                f"lane {lane}: {b.tid} starts at {b.start} before "
                f"{a.tid} ends at {a.end}"
            )


@given(random_problem(),
       st.sampled_from(["deepsparse", "hpx", "regent", "bsp"]),
       st.integers(0, 100), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_every_task_traced_exactly_once_per_iteration(
        dag, policy, seed, iterations):
    res, events = _traced_run(dag, policy, seed, iterations)
    want = set(range(len(dag)))
    for it in range(iterations):
        seen = Counter(e.tid for e in events
                       if e.kind == "task" and e.iteration == it)
        assert set(seen) == want
        assert all(n == 1 for n in seen.values())
    n_tasks = sum(1 for e in events if e.kind == "task")
    assert n_tasks == res.counters.tasks_executed == \
        len(dag) * iterations


@given(random_problem(),
       st.sampled_from(["deepsparse", "hpx", "regent"]),
       st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_queue_depth_series_is_sane(dag, policy, seed):
    # The strategy draws an empty DAG when every call is a skipped
    # ``COPY a→a``; an empty run reports no queue depth at all.
    assume(len(dag) > 0)
    _, events = _traced_run(dag, policy, seed, iterations=1)
    depths = [e for e in events if e.kind == "queue"]
    assert depths, "schedulers must report queue depth"
    for e in depths:
        assert e.depth >= 0
        assert e.time >= 0.0
    # Steal events name a real victim distinct from the thief's own
    # queue.  (HPX victims are *domain* queue indices, so the lane
    # inequality only holds for the per-core-deque policies.)
    for e in events:
        if e.kind == "steal":
            assert e.victim >= 0 and e.core >= 0
            if policy in ("deepsparse", "regent"):
                assert e.victim != e.core


@given(random_problem(),
       st.sampled_from(["deepsparse", "hpx", "regent", "bsp"]),
       st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_tracer_never_perturbs_random_runs(dag, policy, seed):
    """Bit-identity on arbitrary DAGs, not just the fixture cell."""
    bw = broadwell()
    if policy == "bsp":
        plain = run_bsp(bw, dag, iterations=2)
    else:
        plain = SimulationEngine(bw, seed=seed).run(
            dag, _SCHED[policy](), iterations=2)
    traced, events = _traced_run(dag, policy, seed, iterations=2)
    assert traced.total_time == plain.total_time
    assert list(traced.iteration_times) == list(plain.iteration_times)
    assert traced.counters.l1_misses == plain.counters.l1_misses
    assert traced.counters.l2_misses == plain.counters.l2_misses
    assert traced.counters.l3_misses == plain.counters.l3_misses
    assert traced.counters.busy_time == plain.counters.busy_time
    assert [tuple(r) for r in traced.flow.records] == \
        [tuple(r) for r in plain.flow.records]
    tasks = [e for e in events if e.kind == "task"]
    assert sum(t.l1 for t in tasks) == plain.counters.l1_misses
    assert sum(t.l2 for t in tasks) == plain.counters.l2_misses
    assert sum(t.l3 for t in tasks) == plain.counters.l3_misses
