"""Task DAG structure: tasks, edges, ordering, validation, analyses."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.graph.analyze import (
    average_parallelism,
    critical_path_length,
    max_width,
    parallelism_profile,
)
from repro.graph.builder import DAGBuilder
from repro.graph.dag import GraphArrays, TaskDAG
from repro.graph.task import DataHandle, Task
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.runtime import ThreadedRuntime, execute_dag_serial
from repro.solvers import Workspace, lanczos_trace, lobpcg_trace
from tests.test_property_dag import _builder_dag, _builder_task_dag


def mk_task(kernel="COPY", reads=(), writes=(), shape=None, seq=0):
    shape = shape or {"rows": 10, "width": 1}
    return Task(-1, kernel, tuple(reads), tuple(writes), shape, {}, 0, seq)


def chain_dag(n=5):
    dag = TaskDAG()
    prev = None
    for _ in range(n):
        tid = dag.add_task(mk_task())
        if prev is not None:
            dag.add_edge(prev, tid)
        prev = tid
    return dag


def diamond_dag():
    dag = TaskDAG()
    a = dag.add_task(mk_task())
    b = dag.add_task(mk_task())
    c = dag.add_task(mk_task())
    d = dag.add_task(mk_task())
    dag.add_edge(a, b)
    dag.add_edge(a, c)
    dag.add_edge(b, d)
    dag.add_edge(c, d)
    return dag


def test_handles_equality_ignores_nbytes():
    assert DataHandle("x", 1, 100) == DataHandle("x", 1, 999)
    assert DataHandle("x", 1) != DataHandle("x", 2)
    assert str(DataHandle("x", 3)) == "x[3]"
    assert str(DataHandle("g")) == "g"


def test_task_touched_dedup():
    h = DataHandle("y", 0, 8)
    t = mk_task(reads=(h, DataHandle("x", 0, 8)), writes=(h,))
    assert len(t.touched()) == 2


def test_add_edge_validation():
    dag = chain_dag(2)
    with pytest.raises(IndexError):
        dag.add_edge(0, 99)
    n = dag.n_edges
    dag.add_edge(0, 1)  # duplicate ignored
    dag.add_edge(1, 1)  # self edge ignored
    assert dag.n_edges == n


def test_topo_order_chain():
    dag = chain_dag(6)
    assert dag.topo_order() == list(range(6))


def test_topo_order_detects_cycle():
    dag = chain_dag(3)
    dag.add_edge(2, 0)
    with pytest.raises(ValueError, match="cycle"):
        dag.topo_order()


def test_check_schedule():
    dag = diamond_dag()
    dag.check_schedule([0, 1, 2, 3])
    dag.check_schedule([0, 2, 1, 3])
    with pytest.raises(ValueError, match="violated"):
        dag.check_schedule([1, 0, 2, 3])
    with pytest.raises(ValueError, match="covers"):
        dag.check_schedule([0, 1])
    with pytest.raises(ValueError, match="twice"):
        dag.check_schedule([0, 0, 1, 2])


def test_critical_path_and_levels():
    dag = diamond_dag()
    assert dag.critical_path() == 3  # a → b → d
    assert dag.levels() == [0, 1, 1, 2]
    assert critical_path_length(dag) == 3
    assert parallelism_profile(dag) == [1, 2, 1]
    assert max_width(dag) == 2
    assert average_parallelism(dag) == pytest.approx(4 / 3)


def test_weighted_critical_path():
    dag = chain_dag(4)
    assert dag.critical_path(weight=lambda t: 2.0) == 8.0


def test_sources_and_degrees():
    dag = diamond_dag()
    assert dag.sources() == [0]
    assert dag.in_degrees() == [0, 1, 1, 2]


def test_by_kernel_census():
    dag = TaskDAG()
    dag.add_task(mk_task("COPY"))
    dag.add_task(mk_task("COPY"))
    dag.add_task(mk_task("ADD", shape={"rows": 5, "width": 1}))
    assert dag.by_kernel() == {"COPY": 2, "ADD": 1}
    assert "TaskDAG(3 tasks" in repr(dag)


def test_empty_dag():
    dag = TaskDAG()
    assert dag.topo_order() == []
    assert dag.critical_path() == 0.0
    assert parallelism_profile(dag) == []
    assert max_width(dag) == 0


def test_frozen_columns_narrow_only_when_every_value_fits():
    """A column whose values fit in 32 bits is int32; one value past
    that keeps the whole column int64, exact, through a pickle."""
    big = 3 * 2**30                     # 3 GiB: past int32
    small = TaskDAG()
    small.add_task(mk_task(writes=[DataHandle("y", 0, 4096)]))
    wide = TaskDAG()
    wide.add_task(mk_task(writes=[DataHandle("y", 0, 4096)]))
    wide.add_task(Task(-1, "COPY", (), (DataHandle("z", 0, big),),
                       {"rows": 10, "width": 1}, {"i": big}, 0, 0))
    assert small.freeze().touch_nbytes.dtype == np.int32
    assert small.freeze().param_i.dtype == np.int32
    for soa in (wide.freeze(), pickle.loads(pickle.dumps(wide))._soa):
        assert soa.touch_nbytes.dtype == soa.param_i.dtype == np.int64
        assert soa.touch_nbytes.tolist() == [4096, big]
        assert soa.param_i.tolist() == [-1, big]
        assert soa.touch_indptr.dtype == np.int32


def test_by_kernel_reads_kernel_codes_when_frozen():
    """Frozen census == the Task walk, first-appearance order included."""
    dag = TaskDAG()
    for k in ("SPMV", "COPY", "SPMV", "ADD", "COPY", "SPMV"):
        dag.add_task(mk_task(k))
    walked = {}
    for t in dag.tasks:
        walked[t.kernel] = walked.get(t.kernel, 0) + 1
    assert list(dag.by_kernel().items()) == list(walked.items())
    dag.freeze()
    assert list(dag.by_kernel().items()) == list(walked.items())
    assert list(TaskDAG().by_kernel().items()) == []


# ----------------------------------------------------------------------
# Simulation DAGs pickle without a task list; task DAGs with theirs

@pytest.fixture(scope="module")
def prepped_dag():
    """A freshly built LOBPCG simulation DAG with every prep table
    compiled on it."""
    from repro.analysis.experiment import _compile_prep

    dag = _builder_dag("lobpcg")
    _compile_prep("broadwell", dag)
    return dag


@pytest.fixture(scope="module")
def prepped_task_dag():
    """``prepped_dag``'s task DAG, prep tables compiled on it too."""
    from repro.analysis.experiment import _compile_prep

    dag = _builder_task_dag("lobpcg")
    _compile_prep("broadwell", dag)
    return dag


def test_add_edge_on_built_dag_still_dedups():
    """The builder keeps no edge set; ``add_edge`` on a task DAG
    derives one from ``succ``, so an edge the build made stays a no-op,
    and a new edge still invalidates the frozen view."""
    dag = _builder_task_dag("lanczos")
    assert dag.frozen
    assert dag._edge_set is None
    succ = [list(vs) for vs in dag.succ]
    pred = [list(us) for us in dag.pred]
    n_edges = dag.n_edges
    u = next(i for i, vs in enumerate(succ) if vs)
    v = succ[u][-1]
    dag.add_edge(u, v)
    assert dag.succ == succ and dag.pred == pred
    assert dag.n_edges == n_edges
    assert dag.frozen
    w = next(x for x in range(v + 1, len(dag)) if x not in succ[u])
    dag.add_edge(u, w)
    assert not dag.frozen
    assert dag.succ[u] == succ[u] + [w] and dag.pred[w] == pred[w] + [u]
    assert dag.n_edges == n_edges + 1 == dag.freeze().n_edges


def _loaded(dag):
    out = pickle.loads(pickle.dumps(dag, protocol=pickle.HIGHEST_PROTOCOL))
    assert (out._tasks is None) == (dag._tasks is None)
    return out


def _task_fields(t):
    def hs(handles):
        return [(h.name, h.part, h.nbytes) for h in handles]

    return (t.tid, t.kernel, hs(t.reads), hs(t.writes), t.shape, t.params,
            t.iteration, t.seq)


def test_pickle_round_trip_keeps_tasks_arrays_and_plans(prepped_task_dag):
    dag = prepped_task_dag
    loaded = _loaded(dag)
    for f in dataclasses.fields(GraphArrays):
        a, b = getattr(dag._soa, f.name), getattr(loaded._soa, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    for attr in ("succ", "pred", "_cost_prep", "_home_arrays",
                 "_sched_domains", "_bsp_phases", "n_partitions",
                 "matrix_name", "matrix_nbc"):
        assert getattr(loaded, attr) == getattr(dag, attr), attr
    assert [_task_fields(t) for t in loaded.tasks] == \
        [_task_fields(t) for t in dag.tasks]
    # A list of its own: no Task object is shared.
    assert not {id(t) for t in loaded.tasks} & {id(t) for t in dag.tasks}


def test_recipe_less_dag_pickles_its_tasks():
    """A hand-built DAG pickles its task list like any task DAG."""
    dag = chain_dag(3)
    dag.freeze()
    out = pickle.loads(pickle.dumps(dag))
    assert out._tasks is not None
    assert [_task_fields(t) for t in out.tasks] == \
        [_task_fields(t) for t in dag.tasks]


def test_repickling_an_unrebuilt_dag_stays_task_free(prepped_dag,
                                                     prepped_task_dag):
    loaded = _loaded(prepped_dag)
    blob = pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL)
    assert loaded._tasks is None
    assert b"repro.graph.task" not in blob      # no Task, no DataHandle
    assert b"repro.graph.task" in pickle.dumps(
        prepped_task_dag, protocol=pickle.HIGHEST_PROTOCOL)
    again = _loaded(loaded)
    assert again.kernel_of() == [t.kernel for t in prepped_task_dag.tasks]


def test_structural_queries_do_not_decode(prepped_dag, prepped_task_dag):
    """A loaded simulation DAG answers every structural query without a
    task list, equal to its task twin's answers."""
    dag = prepped_dag
    loaded = _loaded(dag)
    assert len(loaded) == len(dag)
    assert loaded.sources() == dag.sources()
    assert loaded.in_degrees() == dag.in_degrees()
    assert loaded.handle_interning() == dag.handle_interning()
    assert loaded.n_edges == dag.n_edges
    assert list(loaded.by_kernel().items()) == list(dag.by_kernel().items())
    assert repr(loaded) == repr(dag) == repr(prepped_task_dag)
    assert loaded.kernel_of() == [t.kernel for t in prepped_task_dag.tasks]
    assert loaded.levels() == dag.levels()
    assert loaded.critical_path() == dag.critical_path()
    assert loaded._tasks is None


def test_add_task_on_loaded_dag_decodes_then_invalidates(prepped_task_dag):
    """``add_task`` on a loaded task DAG re-derives its columns from its
    list, then drops the frozen view."""
    loaded = _loaded(prepped_task_dag)
    n = len(loaded)
    kernels = loaded.kernel_of()
    assert loaded._cols is None
    tid = loaded.add_task(mk_task("ADD"))
    assert tid == n and len(loaded.tasks) == n + 1
    assert not loaded.frozen
    assert len(prepped_task_dag.tasks) == n
    assert loaded.kernel_of() == kernels + ["ADD"]
    assert loaded.freeze().n_tasks == n + 1
    key_to_id, _ = loaded.handle_interning()
    assert len(key_to_id) == len(prepped_task_dag.handle_interning()[0])
    again = pickle.loads(pickle.dumps(loaded))
    assert [t.kernel for t in again.tasks] == kernels + ["ADD"]


def _striped_copies(lo, hi, seq0=0):
    """COPY tasks ``lo..hi-1``: task ``i`` copies part ``i % 16`` of
    ``x`` into a new handle over the same part, one phase per 16,
    numbered from ``seq0``."""
    return [mk_task("COPY", [DataHandle("x", i % 16, 8192)],
                    [DataHandle(f"y{i // 16}", i % 16, 8192)],
                    {"rows": 64, "width": 1}, seq=seq0 + i // 16)
            for i in range(lo, hi)]


@pytest.mark.parametrize("n_tasks", [64, 200])
def test_runs_after_add_task_match_a_fresh_build(n_tasks):
    """A run memoizes plans, homes, domain tables and BSP phases on
    the DAG; ``add_task`` after it must drop them all.  A task DAG of
    16 row blocks gets ``n_tasks`` striped copies over the same 16
    partitions, so every memo key repeats: a stale domain table indexes
    past its end, stale phases run the old tasks only."""
    from repro.machine import epyc
    from repro.sim.engine import SimulationEngine, run_bsp
    from repro.sim.schedulers import DeepSparseScheduler, HPXScheduler

    machine = epyc()
    csb = CSBMatrix.from_coo(banded_fem(320, 6, seed=2), 20)  # 16 x 16
    calls, chunked, small = lanczos_trace(csb, k=2)
    builder = DAGBuilder(csb, "A", chunked, small)

    def runs(dag):
        return [SimulationEngine(machine).run(dag, s, iterations=2).summary()
                for s in (DeepSparseScheduler(), HPXScheduler())] + \
            [run_bsp(machine, dag, iterations=2).summary()]

    mutated = builder.build_tasks(calls)
    fresh = builder.build_tasks(calls)
    n = len(mutated)
    seq0 = len(calls)
    runs(mutated)
    for dag in (mutated, fresh):
        for t in _striped_copies(0, n_tasks, seq0):
            dag.add_task(t)
    got, want = runs(mutated), runs(fresh)
    assert [r.counters.tasks_executed for r in got] == \
        [2 * (n + n_tasks)] * 3
    assert got == want


# ----------------------------------------------------------------------
# A simulation DAG never makes a task list

@pytest.fixture(scope="module")
def small_lobpcg():
    """A real LOBPCG trace over a 4 x 4 block matrix: its operands and
    its simulation DAG."""
    csb = CSBMatrix.from_coo(banded_fem(160, 6, seed=2), 40)
    calls, chunked, small = lobpcg_trace(csb, n=2)
    dag = DAGBuilder(csb, "A", chunked, small).build(calls)
    return csb, chunked, small, dag


_REFUSALS = {
    "tasks": lambda dag, ws: dag.tasks,
    "add_task": lambda dag, ws: dag.add_task(mk_task()),
    "add_edge": lambda dag, ws: dag.add_edge(0, len(dag) - 1),
    "execute_dag_serial": lambda dag, ws: execute_dag_serial(dag, ws),
    "ThreadedRuntime.execute":
        lambda dag, ws: ThreadedRuntime(2).execute(dag, ws),
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("call", sorted(_REFUSALS))
def test_simulation_dag_refuses_task_access(small_lobpcg, call, loaded):
    """A built or loaded simulation DAG has no task list and never
    makes one: reading it, mutating the DAG and running it for real
    each raise, naming the task-mode build, and leave the DAG and the
    workspace as they were."""
    csb, chunked, small, built = small_lobpcg
    dag = _loaded(built) if loaded else built
    edges, soa = dag.n_edges, dag.freeze()
    ws = Workspace(csb, chunked, small)
    with pytest.raises(RuntimeError, match="no task list.*build_tasks"):
        _REFUSALS[call](dag, ws)
    assert dag._tasks is None and dag.freeze() is soa
    assert dag.n_edges == edges and len(dag) == soa.n_tasks
    assert ws.buffers == {}
    assert not any(a.any() for a in ws.arrays.values())
