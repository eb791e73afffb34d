"""Property-based tests: DAG construction and scheduling invariants.

Includes the structure-of-arrays equivalence suite: the frozen
:class:`~repro.graph.dag.GraphArrays` view (vectorized levels,
critical path, CSR adjacency, compiled access plans) is pinned equal —
bit-identical, not approximately — to the retained per-node reference
implementations in :mod:`repro.graph.analyze` on random DAGs.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.analyze import critical_path_reference, levels_reference
from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.graph.trace import TraceRecorder
from repro.machine import broadwell
from repro.matrices.coo import COOMatrix
from repro.matrices.csb import CSBMatrix
from repro.sim.cost import CostModel
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.sim.engine import SimulationEngine, run_bsp
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
)


@st.composite
def random_problem(draw):
    """A random CSB matrix + a random legal primitive trace."""
    n = draw(st.integers(20, 120))
    b = draw(st.integers(5, 60))
    nnz = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    coo = COOMatrix(
        (n, n), rng.integers(0, n, nnz), rng.integers(0, n, nnz),
        rng.standard_normal(nnz),
    )
    csb = CSBMatrix.from_coo(coo, b)
    t = TraceRecorder()
    n_calls = draw(st.integers(1, 8))
    chunked = {"X": 2, "Y": 2, "Q": 2}
    small = {"Z": (2, 2), "P": (2, 2), "s": (1, 1)}
    names = list(chunked)
    for _ in range(n_calls):
        op = draw(st.sampled_from(["SPMM", "XY", "XTY", "COPY", "ADD",
                                   "DOT", "SCALE"]))
        if op == "SPMM":
            x = draw(st.sampled_from(names))
            y = draw(st.sampled_from([n for n in names if n != x]))
            t.record("SPMM", ("A", x), (y,))
        elif op == "XY":
            y = draw(st.sampled_from(names))
            q = draw(st.sampled_from([n for n in names if n != y]))
            t.record("XY", (y, "Z"), (q,))
        elif op == "XTY":
            t.record("XTY", tuple(draw(st.sampled_from(names))
                                  for _ in range(2)), ("P",))
        elif op == "COPY":
            a, bn = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            if a != bn:
                t.record("COPY", (a,), (bn,))
        elif op == "ADD":
            t.record("ADD", (draw(st.sampled_from(names)),
                             draw(st.sampled_from(names))),
                     (draw(st.sampled_from(names)),))
        elif op == "DOT":
            t.record("DOT", (draw(st.sampled_from(names)),
                             draw(st.sampled_from(names))), ("s",))
        else:
            t.record("SCALE", (), (draw(st.sampled_from(names)),),
                     alpha=0.5)
    opts = BuildOptions(
        skip_empty=draw(st.booleans()),
        spmm_mode=draw(st.sampled_from(["dependency", "reduction"])),
    )
    builder = DAGBuilder(csb, "A", chunked, small, opts)
    return builder.build(t.calls)


@given(random_problem())
@settings(max_examples=30, deadline=None)
def test_builder_always_produces_valid_dag(dag):
    dag.validate()  # acyclic
    order = dag.topo_order()
    dag.check_schedule(order)


@given(random_problem())
@settings(max_examples=20, deadline=None)
def test_conflicting_tasks_always_ordered(dag):
    """Any two tasks sharing a written handle are path-connected."""
    reach = [set() for _ in range(len(dag))]
    for u in reversed(dag.topo_order()):
        r = {u}
        for v in dag.succ[u]:
            r |= reach[v]
        reach[u] = r
    tasks = dag.tasks
    for a in tasks:
        aw = {(h.name, h.part) for h in a.writes}
        ar = {(h.name, h.part) for h in a.reads}
        for b in tasks:
            if b.tid <= a.tid:
                continue
            bw = {(h.name, h.part) for h in b.writes}
            br = {(h.name, h.part) for h in b.reads}
            if (aw & bw) or (aw & br) or (ar & bw):
                assert (b.tid in reach[a.tid]) or (a.tid in reach[b.tid])


@given(random_problem(),
       st.sampled_from(["deepsparse", "hpx", "regent", "bsp"]),
       st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_every_policy_executes_every_task_in_dependence_order(
        dag, policy, seed):
    bw = broadwell()
    if policy == "bsp":
        res = run_bsp(bw, dag, iterations=1)
    else:
        sched = {"deepsparse": DeepSparseScheduler,
                 "hpx": HPXScheduler,
                 "regent": RegentScheduler}[policy]()
        res = SimulationEngine(bw, seed=seed).run(dag, sched, iterations=1)
    assert res.counters.tasks_executed == len(dag)
    end_of = {r.tid: r.end for r in res.flow.records}
    start_of = {r.tid: r.start for r in res.flow.records}
    assert len(end_of) == len(dag)  # each task exactly once
    for (u, v) in dag._edge_pairs():
        assert end_of[u] <= start_of[v] + 1e-12


@given(random_problem())
@settings(max_examples=20, deadline=None)
def test_charges_are_finite_positive(dag):
    bw = broadwell()
    cache = CacheHierarchy(bw)
    mem = MemoryModel(bw, n_parts=16)
    cm = CostModel(bw, cache, mem)
    for t in dag.tasks:
        ch = cm.charge_task(t, 0)
        assert np.isfinite(ch.duration) and ch.duration >= 0
        assert all(m >= 0 for m in ch.misses)


# ----------------------------------------------------------------------
# Structure-of-arrays equivalence: the frozen GraphArrays view must
# answer every query bit-identically to the retained per-node
# reference implementations.
# ----------------------------------------------------------------------

@st.composite
def random_bare_dag(draw):
    """A random DAG of synthetic tasks — edges drawn freely, not via
    the builder — to exercise shapes (fan-in/fan-out, isolated nodes,
    empty edge sets) the solver builder never produces."""
    n = draw(st.integers(1, 40))
    dag = TaskDAG()
    for i in range(n):
        dag.add_task(Task(
            -1, "COPY",
            (DataHandle("x", i, 64),), (DataHandle("y", i, 64),),
            {"rows": 1, "width": 1}, {"i": i},
        ))
    max_edges = min(120, n * (n - 1) // 2)
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges,
    ))
    for u, v in pairs:
        if u != v:
            dag.add_edge(min(u, v), max(u, v))  # forward edges: acyclic
    return dag


_dag_strategies = st.one_of(random_problem(), random_bare_dag())


@given(_dag_strategies)
@settings(max_examples=30, deadline=None)
def test_levels_match_reference(dag):
    assert dag.levels() == levels_reference(dag)


@given(_dag_strategies)
@settings(max_examples=30, deadline=None)
def test_critical_path_matches_reference(dag):
    assert dag.critical_path() == critical_path_reference(dag)
    # A weight function that varies per task and is registry-free.
    w = lambda t: 0.25 + (t.tid % 7) * 1.5  # noqa: E731
    assert dag.critical_path(weight=w) == critical_path_reference(dag, w)


@given(_dag_strategies)
@settings(max_examples=30, deadline=None)
def test_soa_adjacency_matches_lists(dag):
    soa = dag.freeze()
    n = len(dag)
    assert soa.n_tasks == n
    assert soa.n_edges == sum(len(vs) for vs in dag.succ) == dag.n_edges
    sp, si = soa.succ_indptr, soa.succ_indices
    pp, pi = soa.pred_indptr, soa.pred_indices
    for u in range(n):
        assert si[sp[u]:sp[u + 1]].tolist() == dag.succ[u]
        assert pi[pp[u]:pp[u + 1]].tolist() == dag.pred[u]
        assert int(soa.indegree[u]) == len(dag.pred[u])


@given(_dag_strategies)
@settings(max_examples=25, deadline=None)
def test_soa_operand_tables_match_tasks(dag):
    soa = dag.freeze()
    key_to_id, id_to_key = dag.handle_interning()
    assert soa.id_to_key == id_to_key
    for t in dag.tasks:
        tid = t.tid
        a, b = soa.read_indptr[tid], soa.read_indptr[tid + 1]
        assert [id_to_key[i] for i in soa.read_ids[a:b]] == \
            [(h.name, h.part) for h in t.reads]
        a, b = soa.write_indptr[tid], soa.write_indptr[tid + 1]
        assert [id_to_key[i] for i in soa.write_ids[a:b]] == \
            [(h.name, h.part) for h in t.writes]
        a, b = soa.touch_indptr[tid], soa.touch_indptr[tid + 1]
        touched = t.touched()
        assert [id_to_key[i] for i in soa.touch_ids[a:b]] == \
            [(h.name, h.part) for h in touched]
        assert soa.touch_nbytes[a:b].tolist() == \
            [h.nbytes for h in touched]
        assert soa.kernel_names[soa.kernel_codes[tid]] == t.kernel


@given(random_problem())
@settings(max_examples=15, deadline=None)
def test_soa_compiled_plans_match_reference(dag):
    """SoA plan compiler == a handle-object walk, tuple-exact.

    The reference compiles each task with ``_task_info`` (its
    ``reads``/``writes`` handle objects, interned keys) and drops
    zero-byte touches, as a plan does."""
    bw = broadwell()
    cm = CostModel(bw, CacheHierarchy(bw), MemoryModel(bw, n_parts=16))
    key_to_id, _ = dag.handle_interning()
    via_soa = cm._compile_plans(dag.tasks, dag.freeze(), key_to_id)
    via_ref = []
    for t in dag.tasks:
        compute, touches, gather = cm._task_info(t, key_to_id)
        via_ref.append((compute, tuple(tt for tt in touches if tt[1] > 0),
                        gather))
    assert via_soa == via_ref


@given(random_problem())
@settings(max_examples=10, deadline=None)
def test_frozen_dag_pickle_roundtrip(dag):
    """Pickling (what the prep store does) preserves the whole graph;
    the dropped edge-dedup set is rebuilt lazily and stays correct."""
    dag.freeze()
    clone = pickle.loads(pickle.dumps(dag))
    assert clone.n_edges == dag.n_edges
    assert clone.succ == dag.succ and clone.pred == dag.pred
    assert clone.levels() == dag.levels()
    assert clone._edge_set is None  # dropped by __getstate__
    if clone.n_edges:  # re-adding an existing edge must still dedup
        u = next(i for i, vs in enumerate(clone.succ) if vs)
        v = clone.succ[u][0]
        clone.add_edge(u, v)
        assert clone.n_edges == dag.n_edges
