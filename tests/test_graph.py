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
from repro.solvers import Workspace, lobpcg_trace
from tests.test_property_dag import _builder_dag, _builder_task_dag


def mk_task(kernel="COPY", reads=(), writes=(), shape=None, seq=0):
    shape = shape or {"rows": 10, "width": 1}
    return Task(-1, kernel, tuple(reads), tuple(writes), shape, {}, 0, seq)


def chain_dag(n=5, edges=()):
    return TaskDAG.from_tasks((mk_task() for _ in range(n)),
                              [(t, t + 1) for t in range(n - 1)] + list(edges))


def diamond_dag():
    return TaskDAG.from_tasks((mk_task() for _ in range(4)),
                              [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_handles_equality_ignores_nbytes():
    assert DataHandle("x", 1, 100) == DataHandle("x", 1, 999)
    assert DataHandle("x", 1) != DataHandle("x", 2)
    assert str(DataHandle("x", 3)) == "x[3]"
    assert str(DataHandle("g")) == "g"


def test_task_touched_dedup():
    h = DataHandle("y", 0, 8)
    t = mk_task(reads=(h, DataHandle("x", 0, 8)), writes=(h,))
    assert len(t.touched()) == 2


def test_from_tasks_edge_rules():
    """An unknown tid raises; duplicate and self edges are dropped; a
    backward edge is kept and makes ``topo_order`` find the cycle."""
    with pytest.raises(IndexError, match="unknown task"):
        chain_dag(2, [(0, 99)])
    with pytest.raises(IndexError, match="unknown task"):
        chain_dag(2, [(-1, 0)])
    dag = chain_dag(3, [(0, 1), (1, 1), (0, 2), (0, 2)])
    assert dag.n_edges == 3
    assert dag.succ == [[1, 2], [2], []]
    assert dag.pred == [[], [0], [1, 0]]
    assert [t.tid for t in dag.tasks] == [0, 1, 2]
    assert dag.topo_order() == [0, 1, 2]
    cyclic = chain_dag(3, [(2, 0)])
    assert cyclic.n_edges == 3
    with pytest.raises(ValueError, match="cycle"):
        cyclic.topo_order()
    with pytest.raises(ValueError, match="cycle"):
        cyclic.levels()


def test_topo_order_chain():
    dag = chain_dag(6)
    assert dag.topo_order() == list(range(6))


def test_topo_order_detects_cycle():
    dag = chain_dag(3, [(2, 0)])
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


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_check_schedule_reads_the_adjacency(small_lobpcg, loaded):
    """A built simulation DAG, and the same DAG loaded, accept their
    topological order and reject it with one edge's ends swapped."""
    built = small_lobpcg[3]
    dag = _loaded(built) if loaded else built
    order = dag.topo_order()
    dag.check_schedule(order)
    # Adjacent in the order, so the swap breaks this edge alone.
    k = next(k for k in range(len(order) - 1)
             if order[k + 1] in dag.succ[order[k]])
    u, v = order[k], order[k + 1]
    order[k], order[k + 1] = v, u
    with pytest.raises(ValueError,
                       match=f"task {u} must precede task {v}"):
        dag.check_schedule(order)


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
    dag = TaskDAG.from_tasks([
        mk_task("COPY"), mk_task("COPY"),
        mk_task("ADD", shape={"rows": 5, "width": 1})])
    assert dag.by_kernel() == {"COPY": 2, "ADD": 1}
    assert "TaskDAG(3 tasks" in repr(dag)


def test_empty_dag():
    dag = TaskDAG.from_tasks([])
    assert len(dag) == dag.n_edges == 0
    assert dag.tasks == [] and dag.sources() == []
    assert dag.topo_order() == []
    assert dag.critical_path() == 0.0
    assert parallelism_profile(dag) == []
    assert max_width(dag) == 0


def test_frozen_columns_narrow_only_when_every_value_fits():
    """A column whose values fit in 32 bits is int32; one value past
    that keeps the whole column int64, exact, through a pickle."""
    big = 3 * 2**30                     # 3 GiB: past int32
    small = TaskDAG.from_tasks([mk_task(writes=[DataHandle("y", 0, 4096)])])
    wide = TaskDAG.from_tasks([
        mk_task(writes=[DataHandle("y", 0, 4096)]),
        Task(-1, "COPY", (), (DataHandle("z", 0, big),),
             {"rows": 10, "width": 1}, {"i": big}, 0, 0)])
    assert small.freeze().touch_nbytes.dtype == np.int32
    assert small.freeze().param_i.dtype == np.int32
    for soa in (wide.freeze(), pickle.loads(pickle.dumps(wide))._soa):
        assert soa.touch_nbytes.dtype == soa.param_i.dtype == np.int64
        assert soa.touch_nbytes.tolist() == [4096, big]
        assert soa.param_i.tolist() == [-1, big]
        assert soa.touch_indptr.dtype == np.int32


def test_by_kernel_reads_kernel_codes_when_frozen():
    """Frozen census == the Task walk, first-appearance order included."""
    dag = TaskDAG.from_tasks(
        mk_task(k) for k in ("SPMV", "COPY", "SPMV", "ADD", "COPY", "SPMV"))
    walked = {}
    for t in dag.tasks:
        walked[t.kernel] = walked.get(t.kernel, 0) + 1
    assert list(dag.by_kernel().items()) == list(walked.items())
    assert list(TaskDAG.from_tasks([]).by_kernel().items()) == []


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
                 "_sched_domains", "n_partitions", "matrix_name",
                 "matrix_nbc"):
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
    "execute_dag_serial": lambda dag, ws: execute_dag_serial(dag, ws),
    "ThreadedRuntime.execute":
        lambda dag, ws: ThreadedRuntime(2).execute(dag, ws),
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("call", sorted(_REFUSALS))
def test_simulation_dag_refuses_task_access(small_lobpcg, call, loaded):
    """A built or loaded simulation DAG has no task list and never
    makes one: reading it and running it for real each raise, naming
    ``build_tasks``, and leave the DAG and the workspace as they
    were."""
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
