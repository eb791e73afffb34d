"""The fused charge walk must agree with its oracle.

``CostModel.charge`` prices a compiled plan through one of two walks:
the fused ``_charge_bare`` loop (prepared DAG, valid home arrays, no
trace hook) or the generic loop over :meth:`CacheHierarchy.access` /
:meth:`MemoryModel.dram_line_cost` (traced runs, ad-hoc pricing,
epoch mismatches).  Attaching a trace hook is therefore a switch
between the two, and these tests pin that it switches nothing else:

* property level — random task sets charged over random schedules for
  several rounds must produce bit-identical
  :class:`~repro.sim.cost.TaskCharge` values *and* leave the
  :class:`~repro.machine.cache.CacheHierarchy` in bit-identical state
  (LRU insertion order, which the steady-state fingerprint hashes, and
  the lazy coherence directory ``_holders`` exactly, compaction
  included) after every round, untraced vs traced;

* engine level — full simulated runs of every task-parallel scheduler
  (deepsparse / hpx / regent) must report identical numbers traced and
  untraced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.presets import broadwell
from repro.sim.cost import CostModel

# Enough repeats of one schedule for the cache to pass from cold
# through its warm fixed point.
_ROUNDS = 6


def _fingerprint(cache: CacheHierarchy):
    """Exact hierarchy state: entries in insertion order + directory."""
    return (
        tuple((tuple(l._entries.items()), l.used) for l in cache.l1),
        tuple((tuple(l._entries.items()), l.used) for l in cache.l2),
        tuple((tuple(l._entries.items()), l.used) for l in cache.l3),
        tuple(cache._holders.items()),
        cache._holder_limit,
    )


def _charge_rounds(tasks, schedule, traced: bool):
    """Charge ``schedule`` for ``_ROUNDS`` rounds on a fresh model.

    Returns per-round ``(charges, hierarchy fingerprint)`` pairs and
    the trace hook's event list (empty when untraced).
    """
    bw = broadwell()
    cache = CacheHierarchy(bw)
    mem = MemoryModel(bw, first_touch=True, n_parts=8)
    cm = CostModel(bw, cache, mem)
    dag = TaskDAG.from_tasks(tasks)
    cm.prepare(dag)
    # The compiled walk is armed: only the hook decides the path.
    assert cm._bare_common is not None
    events = []
    if traced:
        cache.trace_hook = events.append
    rounds = []
    for _ in range(_ROUNDS):
        charges = [tuple(cm.charge(ti, core))
                   for ti, core in schedule]
        rounds.append((charges, _fingerprint(cache)))
    return rounds, events


@st.composite
def task_workloads(draw):
    """A random task set plus a (task, core) charge schedule.

    Handle sizes range up to several hundred KB so evictions, whole-
    level clobbers, L2/L3 spills and cross-core sharing all occur.
    """
    n_handles = draw(st.integers(2, 8))
    handles = [
        DataHandle(f"h{i}", draw(st.integers(0, 7)),
                   draw(st.integers(64, 400_000)))
        for i in range(n_handles)
    ]
    n_tasks = draw(st.integers(1, 5))
    tasks = []
    for _ in range(n_tasks):
        reads = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(1, 3)))
        )
        writes = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(0, 1)))
        )
        tasks.append(Task(0, "AXPY", reads, writes,
                          {"rows": draw(st.integers(1, 10_000))}))
    schedule = [
        (draw(st.integers(0, n_tasks - 1)), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return tasks, schedule


@given(task_workloads())
@settings(max_examples=40, deadline=None)
def test_fused_walk_matches_access_oracle(workload):
    tasks, schedule = workload
    bare, _ = _charge_rounds(tasks, schedule, traced=False)
    oracle, events = _charge_rounds(tasks, schedule, traced=True)
    for r, (got, want) in enumerate(zip(bare, oracle)):
        assert got == want, r  # charges (floats with ==), then state
    # The traced side really walked through ``access``: one hook call
    # per non-empty operand touch.
    touches = sum(
        sum(1 for h in tasks[ti].touched() if h.nbytes > 0)
        for ti, _ in schedule
    )
    assert len(events) == _ROUNDS * touches


# ---------------------------------------------------------------------------
# Engine level: whole simulated runs, every task-parallel scheduler.

def _observed(res) -> dict:
    c = res.counters
    return {
        "total_time": res.total_time,
        "iteration_times": list(res.iteration_times),
        "l1_misses": c.l1_misses,
        "l2_misses": c.l2_misses,
        "l3_misses": c.l3_misses,
        "tasks_executed": c.tasks_executed,
        "busy_time": c.busy_time,
        "compute_time": c.compute_time,
        "memory_time": c.memory_time,
    }


@pytest.mark.parametrize("version", ["deepsparse", "hpx", "regent"])
def test_engine_runs_identical_traced_and_untraced(version, monkeypatch):
    """iterations=4 with the steady-state replay disabled keeps every
    iteration live, so both walks price cold and warm iterations."""
    from repro.analysis.experiment import run_version
    from repro.trace import InMemorySink, Tracer

    monkeypatch.setenv("REPRO_NO_STEADY_STATE", "1")
    untraced = run_version("broadwell", "inline1", "lanczos", version,
                           block_count=32, iterations=4)
    traced = run_version("broadwell", "inline1", "lanczos", version,
                         block_count=32, iterations=4,
                         tracer=Tracer(InMemorySink()))
    assert _observed(traced) == _observed(untraced)
