"""Scheduler policies: queue discipline, locality, Regent pipeline."""

import pytest

from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.machine.memory import MemoryModel
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
    Scheduler,
)


def simple_dag(n=8):
    return TaskDAG.from_tasks(
        Task(-1, "COPY", (DataHandle("x", k, 8),), (DataHandle("y", k, 8),),
             {"rows": 1, "width": 1}, {"i": k}, 0, k)
        for k in range(n))


@pytest.fixture
def memory(bw):
    return MemoryModel(bw, first_touch=True, n_parts=8)


def test_base_fifo(bw, memory):
    s = Scheduler()
    s.prepare(simple_dag(), bw, memory)
    for t in (3, 1, 2):
        s.on_ready(t, 0.0)
    assert [s.pick(0, 0.0) for _ in range(3)] == [3, 1, 2]
    assert s.pick(0, 0.0) is None
    assert not s.has_ready()


def test_deepsparse_continuation_lifo(bw, memory):
    s = DeepSparseScheduler()
    s.prepare(simple_dag(), bw, memory)
    # core 2 enabled tasks 4 then 5: LIFO pops 5 first on core 2
    s.on_ready(4, 0.0, enabler_core=2)
    s.on_ready(5, 0.0, enabler_core=2)
    assert s.pick(2, 0.0) == 5
    assert s.pick(2, 0.0) == 4


def test_deepsparse_steals_oldest(bw, memory):
    s = DeepSparseScheduler()
    s.prepare(simple_dag(), bw, memory)
    s.on_ready(1, 0.0, enabler_core=0)
    s.on_ready(2, 0.0, enabler_core=0)
    # core 7 has nothing: steals the OLDEST from core 0's deque
    assert s.pick(7, 0.0) == 1
    assert s.pick(0, 0.0) == 2


def test_deepsparse_shared_queue_for_sources(bw, memory):
    s = DeepSparseScheduler()
    s.prepare(simple_dag(), bw, memory)
    s.on_ready(3, 0.0, enabler_core=None)
    s.on_ready(6, 0.0, enabler_core=None)
    assert s.pick(5, 0.0) == 3  # FIFO in spawn order
    assert s.pick(5, 0.0) == 6


def test_deepsparse_spawn_serialization(bw, memory):
    s = DeepSparseScheduler(spawn_cost=1e-6)
    s.prepare(simple_dag(), bw, memory)
    assert s.release_time(0, 10.0) == pytest.approx(10.0 + 1e-6)
    assert s.release_time(9, 10.0) == pytest.approx(10.0 + 10e-6)


def test_hpx_numa_queues(ep):
    mem = MemoryModel(ep, first_touch=True, n_parts=8)
    s = HPXScheduler(numa_aware=True, shuffle_window=1)
    s.prepare(simple_dag(), ep, mem)
    # task k writes ("y", k); with 8 parts over 8 domains, chunk k
    # lives on domain k — a core of domain 0 prefers task 0.
    for k in range(8):
        s.on_ready(k, 0.0)
    assert s.pick(0, 0.0) == 0       # core 0 → domain 0
    assert s.pick(16, 0.0) == 1      # core 16 → domain 1
    # stealing: core 0's local queue is now empty, takes remote work
    got = s.pick(0, 0.0)
    assert got is not None and got != 0


def test_hpx_shuffle_window_deterministic(bw):
    mem = MemoryModel(bw, first_touch=True, n_parts=8)
    picks = []
    for _ in range(2):
        s = HPXScheduler(numa_aware=False, shuffle_window=4)
        s.prepare(simple_dag(), bw, mem, seed=7)
        for k in range(8):
            s.on_ready(k, 0.0)
        picks.append([s.pick(0, 0.0) for _ in range(8)])
    assert picks[0] == picks[1]  # seeded => reproducible
    assert sorted(picks[0]) == list(range(8))  # nothing lost


def test_regent_reserved_util_cores(bw, memory):
    s = RegentScheduler(util_fraction=4 / 28)
    s.prepare(simple_dag(), bw, memory)
    assert s.n_util == 4 and s.n_workers == 24
    s.on_ready(0, 0.0)
    assert s.pick(27, 0.0) is None  # util core refuses app tasks
    assert s.pick(0, 0.0) == 0


def test_regent_analysis_pipeline_rates(bw, memory):
    """Index-launched kernels pass analysis much faster than SPMM."""
    tasks = []
    for k, kern in enumerate(["SPMM", "SPMM", "XY", "XY"]):
        shape = ({"nnz": 1, "rows": 1, "cols": 1, "width": 1}
                 if kern == "SPMM" else {"rows": 1, "w1": 1, "w2": 1})
        tasks.append(Task(-1, kern, (), (DataHandle("y", k, 8),),
                          shape, {"i": k}, 0, k))
    dag = TaskDAG.from_tasks(tasks)
    s = RegentScheduler(analysis_cost=10e-6, index_launch_cost=1e-6)
    s.prepare(dag, bw, memory)
    r = [s.release_time(t, 0.0) for t in range(4)]
    assert r == sorted(r)  # pipeline is serial
    assert r[1] - r[0] == pytest.approx(10e-6)  # SPMM: full analysis
    assert r[3] - r[2] == pytest.approx(1e-6)   # XY: index launch


def test_numa_picks_read_domain_tables_never_a_task_list(ep):
    """DeepSparse's shared-queue NUMA scan and HPX's domain queues
    (hints on and off) resolve homes from the DAG's domain tables:
    they never build a task list, and they need no memory model that
    adopted the DAG's interning beforehand."""
    dag = simple_dag(16)
    dag._tasks = None           # a task list read raises from here on
    ref = MemoryModel(ep, first_touch=True, n_parts=16)

    def home(tid):  # task k writes ("y", k)
        return ref.domain_of(("y", tid))

    s = DeepSparseScheduler()
    s.prepare(dag, ep, MemoryModel(ep, first_touch=True, n_parts=16))
    shared = list(range(16))
    for tid in shared:
        s.on_ready(tid, 0.0)
    for core in (48, 16, 112, 0, 127, 64):
        dom = ep.domain_of_core(core)
        window = shared[:s.numa_window]
        want = next((t for t in window if home(t) == dom), shared[0])
        assert s.pick(core, 0.0) == want
        shared.remove(want)

    for numa_aware in (True, False):
        s = HPXScheduler(numa_aware=numa_aware, shuffle_window=1)
        s.prepare(dag, ep, MemoryModel(ep, first_touch=True, n_parts=16))
        for tid in range(16):
            s.on_ready(tid, 0.0)
        if numa_aware:
            assert s._queues == [[t for t in range(16) if home(t) == d]
                                 for d in range(ep.n_numa_domains)]
        else:
            assert s._queues == [list(range(16))]
        picks = [s.pick(core, 0.0) for core in range(0, 128, 8)]
        assert sorted(picks) == list(range(16))
