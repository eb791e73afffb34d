"""Property-based tests: DAG construction and scheduling invariants.

Includes the structure-of-arrays equivalence suite: the frozen
:class:`~repro.graph.dag.GraphArrays` view (vectorized levels,
critical path, CSR adjacency, compiled access plans) is pinned equal —
bit-identical, not approximately — to the retained per-node reference
implementations in :mod:`repro.graph.analyze` on random DAGs, and
every frozen column (the builder's bulk passes or ``from_tasks``'s
per-``Task`` walk, converted by ``freeze``) to
:func:`reference_columns`, the per-``Task`` walk ``freeze`` used to
make, on random DAGs and on real builder DAGs.  The builder's hazard
wiring (by interned handle id, one predecessor list per task) is pinned
list for list to :func:`reference_adjacency`, the tuple-keyed walk with
a global edge set it replaced.  A built DAG has no task list, so the
per-``Task`` references read the list of its twin
(:meth:`DAGBuilder.build_tasks` over the same trace), and the built
DAG's own frozen view and adjacency are what they check.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.analyze import critical_path_reference, levels_reference
from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.graph.trace import TraceRecorder
from repro.kernels.registry import KERNELS
from repro.machine import broadwell, epyc
from repro.matrices.coo import COOMatrix
from repro.matrices.csb import CSBMatrix
from repro.sim.cost import CostModel
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.sim.engine import (
    SimulationEngine,
    _decode_phases,
    _phase_columns,
    run_bsp,
)
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
)


@st.composite
def random_trace(draw):
    """A random CSB matrix + a random legal primitive trace, drawing
    every op the builder handles with the metadata the solvers pass:
    named AXPY/SCALE coefficients, accumulating XY, DOT
    post-operations, and SMALL ops over the small operands (a read
    written again, a write repeated): ``(builder, calls)``."""
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
    alpha_name = st.sampled_from([None, "s"])
    for _ in range(n_calls):
        op = draw(st.sampled_from(["SPMM", "XY", "XTY", "AXPY", "SCALE",
                                   "COPY", "ADD", "SUB", "DOT", "SMALL"]))
        if op == "SPMM":
            x = draw(st.sampled_from(names))
            y = draw(st.sampled_from([n for n in names if n != x]))
            t.record("SPMM", ("A", x), (y,))
        elif op == "XY":
            y = draw(st.sampled_from(names))
            q = draw(st.sampled_from([n for n in names if n != y]))
            t.record("XY", (y, "Z"), (q,), accumulate=draw(st.booleans()),
                     beta=0.5)
        elif op == "XTY":
            t.record("XTY", tuple(draw(st.sampled_from(names))
                                  for _ in range(2)), ("P",))
        elif op == "AXPY":
            t.record("AXPY", (draw(st.sampled_from(names)),),
                     (draw(st.sampled_from(names)),), alpha=2.0,
                     alpha_name=draw(alpha_name), alpha_op="neg")
        elif op == "SCALE":
            t.record("SCALE", (), (draw(st.sampled_from(names)),),
                     alpha=0.5, alpha_name=draw(alpha_name),
                     alpha_op="inv")
        elif op == "COPY":
            a, bn = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            if a != bn:
                t.record("COPY", (a,), (bn,))
        elif op in ("ADD", "SUB"):
            t.record(op, (draw(st.sampled_from(names)),
                          draw(st.sampled_from(names))),
                     (draw(st.sampled_from(names)),))
        elif op == "DOT":
            t.record("DOT", (draw(st.sampled_from(names)),
                             draw(st.sampled_from(names))), ("s",),
                     post=draw(st.sampled_from(["identity", "sqrt"])))
        else:
            operands = st.lists(st.sampled_from(list(small)), max_size=3)
            meta = {"i": 0} if draw(st.booleans()) else {}
            t.record("SMALL", draw(operands),
                     draw(operands.filter(bool)),
                     kernel=draw(st.sampled_from(
                         ["SMALL_EIGH", "RAYLEIGH_RITZ", "ORTHO"])),
                     op="RANDOM", k=draw(st.integers(1, 4)), **meta)
    opts = BuildOptions(
        skip_empty=draw(st.booleans()),
        spmm_mode=draw(st.sampled_from(["dependency", "reduction"])),
        csr_storage=draw(st.booleans()),
    )
    return DAGBuilder(csb, "A", chunked, small, opts), t.calls


def edge_set(dag) -> set:
    """The ``(u, v)`` edges of ``dag``, from its successor lists."""
    return {(u, v) for u, vs in enumerate(dag.succ) for v in vs}


def random_problem():
    """The simulation DAG (``build``) of a :func:`random_trace`."""
    return random_trace().map(lambda bc: bc[0].build(bc[1]))


def random_twins():
    """``(built, twin)``: a :func:`random_trace`'s simulation DAG and its
    task DAG (``build_tasks``)."""
    return random_trace().map(
        lambda bc: (bc[0].build(bc[1]), bc[0].build_tasks(bc[1])))


@given(random_problem())
@settings(max_examples=30, deadline=None)
def test_builder_always_produces_valid_dag(dag):
    order = dag.topo_order()  # raises on a cycle
    dag.check_schedule(order)


@given(random_twins())
@settings(max_examples=20, deadline=None)
def test_conflicting_tasks_always_ordered(pair):
    """Any two tasks sharing a written handle are path-connected."""
    dag, twin = pair
    reach = [set() for _ in range(len(dag))]
    for u in reversed(dag.topo_order()):
        r = {u}
        for v in dag.succ[u]:
            r |= reach[v]
        reach[u] = r
    tasks = twin.tasks
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
    for (u, v) in edge_set(dag):
        assert end_of[u] <= start_of[v] + 1e-12


@given(random_twins())
@settings(max_examples=20, deadline=None)
def test_charges_are_finite_positive(pair):
    _, dag = pair
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
def random_bare_dag(draw, min_tasks=1):
    """A random DAG of synthetic tasks — edges drawn freely, not via
    the builder — to exercise shapes (fan-in/fan-out, isolated nodes,
    empty edge sets) the solver builder never produces."""
    n = draw(st.integers(min_tasks, 40))
    tasks = [Task(-1, "COPY",
                  (DataHandle("x", i, 64),), (DataHandle("y", i, 64),),
                  {"rows": 1, "width": 1}, {"i": i})
             for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=min(120, n * (n - 1) // 2),
    )) if n else []
    # Forward edges: acyclic.
    return TaskDAG.from_tasks(tasks, [(min(u, v), max(u, v))
                                      for u, v in pairs])


_dag_strategies = st.one_of(random_problem(), random_bare_dag())
#: ``(dag, twin)``: a built DAG and its task DAG, or a bare DAG twice
_twin_strategies = st.one_of(random_twins(),
                             random_bare_dag().map(lambda d: (d, d)))


@given(_dag_strategies)
@settings(max_examples=30, deadline=None)
def test_levels_match_reference(dag):
    assert dag.levels() == levels_reference(dag)


@given(_twin_strategies)
@settings(max_examples=30, deadline=None)
def test_critical_path_matches_reference(pair):
    dag, twin = pair
    assert dag.critical_path() == critical_path_reference(dag)
    # A weight function that varies per task and is registry-free: it
    # reads Tasks, so only the task DAG takes it.
    w = lambda t: 0.25 + (t.tid % 7) * 1.5  # noqa: E731
    assert twin.critical_path(weight=w) == critical_path_reference(twin, w)


@given(_dag_strategies)
@settings(max_examples=30, deadline=None)
def test_soa_adjacency_matches_lists(dag):
    soa = dag.freeze()
    n = len(dag)
    assert soa.n_tasks == n
    assert soa.n_edges == sum(len(vs) for vs in dag.succ) == dag.n_edges
    sp, si = dag.succ_csr()
    for u in range(n):
        assert si[sp[u]:sp[u + 1]].tolist() == dag.succ[u]
        assert int(soa.indegree[u]) == len(dag.pred[u])
    # The predecessor view the frozen arrays no longer carry: every
    # edge appears once in each direction.
    assert sorted((u, v) for v, us in enumerate(dag.pred) for u in us) \
        == sorted((u, v) for u, vs in enumerate(dag.succ) for v in vs)


@given(_twin_strategies)
@settings(max_examples=25, deadline=None)
def test_soa_operand_tables_match_tasks(pair):
    dag, twin = pair
    soa = dag.freeze()
    key_to_id, id_to_key = dag.handle_interning()
    assert soa.id_to_key is id_to_key
    for t in twin.tasks:
        tid = t.tid
        # Reads are not repeated in the frozen view; interning covers
        # them in reads-then-writes order.
        assert all(key_to_id[(h.name, h.part)] < len(id_to_key)
                   for h in t.reads)
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


# ----------------------------------------------------------------------
# Frozen columns against the per-Task walk.  The builder's bulk passes
# or ``from_tasks`` make the columns and ``freeze`` converts them; this
# is the loop ``freeze`` ran over the task list before, extended to the
# SpMV/SpMM pricing inputs.
# ----------------------------------------------------------------------

def reference_columns(dag, twin=None) -> dict:
    """Every :class:`GraphArrays` field, from ``twin.tasks`` (``dag``'s
    own if no twin) and ``dag``'s adjacency lists, one task at a
    time."""
    tasks = (dag if twin is None else twin).tasks
    n = len(tasks)
    key_to_id, id_to_key = {}, []
    for t in tasks:
        for h in t.reads + t.writes:
            k = (h.name, h.part)
            if k not in key_to_id:
                key_to_id[k] = len(id_to_key)
                id_to_key.append(k)
    kernel_code, kernel_names, kernel_codes = {}, [], []
    param_i, first_write, write_counts, write_ids = [], [], [], []
    touch_counts, touch_ids, touch_nbytes = [], [], []
    touch_is_write, touch_role = [], []
    flops, phase_starts = [], []
    sparse = []
    max_part = 0
    for tid, t in enumerate(tasks):
        spec = KERNELS.get(t.kernel)
        flops.append(np.nan if spec is None else spec.flops(t.shape))
        if tid == 0 or t.seq != tasks[tid - 1].seq:
            phase_starts.append(tid)
        code = kernel_code.setdefault(t.kernel, len(kernel_names))
        if code == len(kernel_names):
            kernel_names.append(t.kernel)
        kernel_codes.append(code)
        i = t.params.get("i")
        param_i.append(-1 if i is None else int(i))
        wkeys = [(h.name, h.part) for h in t.writes]
        write_ids += [key_to_id[k] for k in wkeys]
        write_counts.append(len(wkeys))
        first_write.append(key_to_id[wkeys[0]] if wkeys else -1)
        # Touch table: reads then writes, first occurrence kept, with
        # the first-kept handle's nbytes (Task.touched()).
        seen = {}
        for h in t.reads + t.writes:
            seen.setdefault((h.name, h.part), h)
            if h.part is not None:
                max_part = max(max_part, h.part + 1)
        touch_counts.append(len(seen))
        sparse_task = t.kernel in ("SPMV", "SPMM")
        for k, h in seen.items():
            touch_ids.append(key_to_id[k])
            touch_nbytes.append(h.nbytes)
            touch_is_write.append(k in wkeys)
            # CostModel._effective_bytes keys its overrides by operand
            # name, the output's last.
            role = 0
            if sparse_task and h.name == t.params.get("Y"):
                role = 2
            elif sparse_task and h.name == t.params.get("X"):
                role = 1
            touch_role.append(role)
        if sparse_task:
            gx = -1
            for h in t.reads:
                if h.part is not None and h.name != t.params.get("A"):
                    gx = key_to_id[(h.name, h.part)]
                    break
            s = t.shape
            sparse.append((tid, s.get("nnz", 0), s.get("rows", 0),
                           s.get("cols", 0), s.get("width", 1),
                           s.get("gather_span", 0),
                           bool(t.params.get("buffer")), gx))

    i32, i64 = np.int32, np.int64

    def fit(values):
        """int32 if every value fits in 32 bits, else int64."""
        values = list(values)
        lo, hi = np.iinfo(i32).min, np.iinfo(i32).max
        dtype = i32 if all(lo <= v <= hi for v in values) else i64
        return np.array(values, dtype=dtype)

    def indptr(counts):
        return fit([0] + np.cumsum(counts, dtype=np.int64).tolist())

    def col(j, dtype=None):
        """Sparse column ``j``; narrowed like the frozen one unless a
        fixed ``dtype`` is given."""
        values = [row[j] for row in sparse]
        return fit(values) if dtype is None else np.array(values, dtype)

    return dict(
        n_tasks=n,
        n_edges=sum(len(vs) for vs in dag.succ),
        indegree=np.array([len(us) for us in dag.pred], dtype=i32),
        id_to_key=id_to_key,
        write_indptr=indptr(write_counts),
        write_ids=np.array(write_ids, dtype=i32),
        touch_indptr=indptr(touch_counts),
        touch_ids=np.array(touch_ids, dtype=i32),
        touch_nbytes=fit(touch_nbytes),
        touch_is_write=np.array(touch_is_write, dtype=bool),
        touch_role=np.array(touch_role, dtype=np.int8),
        kernel_names=kernel_names,
        kernel_codes=np.array(kernel_codes, dtype=i32),
        param_i=fit(param_i),
        first_write_id=np.array(first_write, dtype=i32),
        flops=np.array(flops, dtype=np.float64),
        phase_indptr=fit(phase_starts + [n] if n else [0]),
        max_part=max_part,
        sparse_tids=col(0, i32),
        sparse_nnz=col(1),
        sparse_rows=col(2),
        sparse_cols=col(3),
        sparse_width=col(4),
        sparse_span=col(5, i64),
        sparse_buffer=col(6, bool),
        sparse_x=col(7, i32),
    )


def assert_columns_match_reference(dag, twin=None):
    soa = dag.freeze()
    want = reference_columns(dag, twin)
    fields = [f.name for f in dataclasses.fields(soa)]
    assert fields == list(want)
    for name in fields:
        got, ref = getattr(soa, name), want[name]
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype, name
            assert np.array_equal(got, ref), name
        else:
            assert got == ref, name


@given(_twin_strategies)
@settings(max_examples=30, deadline=None)
def test_frozen_columns_match_reference(pair):
    assert_columns_match_reference(*pair)


def _builder_subkey(solver, **options):
    from repro.matrices.suite import SUITE
    from repro.tuning.blocksize import block_size_for_count

    width = {"lanczos": 20, "lobpcg": 8}[solver]
    bs = block_size_for_count(SUITE["inline1"].paper_rows, 16)
    return "inline1", bs, solver, width, BuildOptions(**options)


def _builder_dag(solver, **options):
    """A real solver DAG, built as `repro.analysis.experiment._dag` does."""
    from repro.analysis.experiment import _dag

    return _dag.__wrapped__(*_builder_subkey(solver, **options))


def build_tasks_for(matrix, block_size, solver, width, options):
    """The task DAG of one experiment subkey: the trace
    `repro.analysis.experiment._dag` builds, through ``build_tasks``."""
    from repro.analysis.experiment import _trace

    cen, calls, chunked, small = _trace(matrix, block_size, solver, width)
    return DAGBuilder(cen, "A", chunked, small, options).build_tasks(calls)


def _builder_task_dag(solver, **options):
    """:func:`_builder_dag`'s task DAG (``build_tasks``)."""
    return build_tasks_for(*_builder_subkey(solver, **options))


_BUILDER_CASES = {
    "lanczos": ("lanczos", {}),
    "lobpcg": ("lobpcg", {}),
    "lanczos-reduction": ("lanczos", {"spmm_mode": "reduction"}),
    "lobpcg-reduction": ("lobpcg", {"spmm_mode": "reduction"}),
    "lanczos-csr": ("lanczos", {"csr_storage": True}),
    "lobpcg-csr": ("lobpcg", {"csr_storage": True}),
    "lanczos-all-blocks": ("lanczos", {"skip_empty": False}),
}


@pytest.fixture(scope="module", params=sorted(_BUILDER_CASES))
def builder_dag(request):
    solver, options = _BUILDER_CASES[request.param]
    return request.param, _builder_dag(solver, **options)


@pytest.fixture(scope="module")
def builder_twin(builder_dag):
    """``builder_dag``'s task DAG."""
    solver, options = _BUILDER_CASES[builder_dag[0]]
    return _builder_task_dag(solver, **options)


def test_builder_dag_columns_match_reference(builder_dag, builder_twin):
    _, dag = builder_dag
    assert_columns_match_reference(dag, builder_twin)


# ----------------------------------------------------------------------
# Hazard wiring against the tuple-keyed walk.  The builder wires each
# task's RAW/WAR/WAW edges by interned handle id and deduplicates them
# per task; this is the walk it made before, keyed by ``(name, part)``
# and deduplicated through one global edge set.
# ----------------------------------------------------------------------

def reference_adjacency(tasks, matrix_name="A"):
    """``succ``, ``pred`` and the edge count of a builder DAG, from its
    (or its twin's) task list: last writer and readers since that write per ``(name,
    part)`` key, every edge offered to a global ``(u, v)`` set in
    hazard order (reads' writers, then each write's writer and its
    readers), self edges dropped, the never-written matrix's reads not
    tracked."""
    succ = [[] for _ in tasks]
    pred = [[] for _ in tasks]
    edges = set()
    last_writer, readers = {}, {}

    def edge(u, v):
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            succ[u].append(v)
            pred[v].append(u)

    for t in tasks:
        tid = t.tid
        for h in t.reads:
            if h.name == matrix_name:
                continue
            k = (h.name, h.part)
            if k in last_writer:
                edge(last_writer[k], tid)               # RAW
            readers.setdefault(k, []).append(tid)
        for h in t.writes:
            k = (h.name, h.part)
            if k in last_writer:
                edge(last_writer[k], tid)               # WAW
            for r in readers.get(k, ()):
                edge(r, tid)                            # WAR
            last_writer[k] = tid
            readers[k] = []
    return succ, pred, len(edges)


def assert_adjacency_matches_reference(dag, twin):
    succ, pred, n_edges = reference_adjacency(twin.tasks)
    assert dag.succ == succ
    assert dag.pred == pred       # order included: first occurrence
    assert dag.n_edges == n_edges


@given(random_twins())
@settings(max_examples=30, deadline=None)
def test_builder_adjacency_matches_reference(pair):
    """The bulk hazard pass against the tuple-keyed walk over the task
    twin's list."""
    dag, twin = pair
    assert dag._tasks is None
    assert len(twin.tasks) == len(dag)
    assert_adjacency_matches_reference(dag, twin)


def test_builder_dag_adjacency_matches_reference(builder_dag, builder_twin):
    _, dag = builder_dag
    assert_adjacency_matches_reference(dag, builder_twin)


def test_self_hazards_match_reference():
    """Tasks that read and write one handle, or write it twice, wire no
    self edge, and their other hazards keep their order."""
    coo = COOMatrix((60, 60), [0, 7, 33, 59], [5, 40, 33, 2],
                    [1.0, 2.0, 3.0, 4.0])
    csb = CSBMatrix.from_coo(coo, 20)
    t = TraceRecorder()
    t.record("SCALE", (), ("X",), alpha=0.5)   # first access reads it too
    t.record("COPY", ("X",), ("Y",))
    t.record("AXPY", ("X",), ("Y",), alpha=2.0)
    t.record("SMALL", ("P", "s"), ("P", "P"), kernel="SMALL_EIGH", k=2)
    t.record("XY", ("Y", "P"), ("Q",), accumulate=True)
    t.record("SPMM", ("A", "Q"), ("X",))
    t.record("DOT", ("X", "Q"), ("s",))
    t.record("SCALE", (), ("Q",), alpha_name="s")
    t.record("ADD", ("Q", "Y"), ("X",))         # preds not in tid order
    chunked = {"X": 2, "Y": 2, "Q": 2}
    small = {"P": (2, 2), "s": (1, 1)}
    for options in (BuildOptions(), BuildOptions(spmm_mode="reduction"),
                    BuildOptions(skip_empty=False)):
        builder = DAGBuilder(csb, "A", chunked, small, options)
        dag = builder.build(t.calls)
        assert_adjacency_matches_reference(dag, builder.build_tasks(t.calls))
        small_tid = dag.kernel_of().index("SMALL_EIGH")
        assert small_tid not in dag.pred[small_tid]


def _extra_spmv(dag):
    """One more SpMV task over the DAG's own operands."""
    a = next(k for k in dag.freeze().id_to_key if k[0] == "A")
    return Task(-1, "SPMV",
                (DataHandle("A", a[1], 96), DataHandle("x", 0, 160)),
                (DataHandle("y", 0, 160),),
                {"nnz": 3, "rows": 20, "cols": 20, "width": 1,
                 "gather_span": 160},
                {"i": 0, "j": 0, "A": "A", "X": "x", "Y": "y"})


def test_from_tasks_columns_match_reference(builder_dag, builder_twin):
    """``from_tasks``'s per-``Task`` column walk over a real task list,
    fresh and loaded, plus one more SpMV task, matches the reference;
    the builder's interning and adjacency come through unchanged."""
    before = builder_twin.freeze()
    loaded = pickle.loads(pickle.dumps(builder_twin))
    assert loaded._tasks is not None
    for d in (builder_twin, loaded):
        dag = TaskDAG.from_tasks(d.tasks + [_extra_spmv(d)],
                                 sorted(edge_set(d)))
        assert_columns_match_reference(dag)
        after = dag.freeze()
        assert after.n_tasks == before.n_tasks + 1
        assert after.id_to_key[:len(before.id_to_key)] == \
            before.id_to_key
        assert dag.succ == d.succ + [[]]
        assert dag.pred == [sorted(us) for us in d.pred] + [[]]


def test_hand_built_columns_match_reference():
    tasks = [Task(-1, "COPY", (DataHandle("x", i, 64),),
                  (DataHandle("y", i, 64),), {"rows": 8}, {"i": i})
             for i in range(3)]
    tasks.append(Task(-1, "SPMM",
                      (DataHandle("A", 4, 32), DataHandle("y", 1, 64),
                       DataHandle("z", 1, 64)),
                      (DataHandle("z", 1, 64), DataHandle("w", None, 8)),
                      {"nnz": 2, "rows": 8, "cols": 8, "width": 2},
                      {"A": "A", "X": "y", "Y": "z", "buffer": True}))
    dag = TaskDAG.from_tasks(tasks, [(0, 1)])
    assert_columns_match_reference(dag)
    soa = dag.freeze()
    assert soa.max_part == 5
    assert soa.touch_is_write[-3:].tolist() == [False, True, True]
    assert soa.touch_role[-4:].tolist() == [0, 1, 2, 0]


def test_from_tasks_refuses_an_unpriceable_sparse_task():
    """A sparse task missing a shape key the cost model needs is
    refused when the DAG is made; without it the DAG is whole."""
    copy = Task(-1, "COPY", (DataHandle("x", 0, 64),),
                (DataHandle("y", 0, 64),), {"rows": 8}, {"i": 0})
    bad = Task(-1, "SPMV", (DataHandle("x", 0, 64),),
               (DataHandle("y", 1, 64),), {"nnz": 1}, {"X": "x"})
    with pytest.raises(KeyError):
        TaskDAG.from_tasks([copy, bad])
    dag = TaskDAG.from_tasks([copy])
    assert len(dag) == 1 and len(dag.tasks) == 1
    assert_columns_match_reference(dag)


def _reference_plans(cm, dag, twin=None):
    """Each task of ``twin`` (``dag`` if none) compiled with
    ``_task_info`` (its ``reads``/``writes`` handle objects, keys
    interned as ``dag`` does), zero-byte touches dropped, as a plan
    does."""
    key_to_id, _ = dag.handle_interning()
    plans = []
    for t in (dag if twin is None else twin).tasks:
        compute, touches, gather = cm._task_info(t, key_to_id)
        plans.append((compute, tuple(tt for tt in touches if tt[1] > 0),
                      gather))
    return plans


@given(random_twins())
@settings(max_examples=15, deadline=None)
def test_soa_compiled_plans_match_reference(pair):
    """SoA plan compiler == a handle-object walk, tuple-exact."""
    dag, twin = pair
    bw = broadwell()
    cm = CostModel(bw, CacheHierarchy(bw), MemoryModel(bw, n_parts=16))
    assert cm._compile_plans(dag.freeze()).plans == \
        _reference_plans(cm, dag, twin)


def test_plans_match_reference_with_sizes_near_64_bits():
    """Touch sizes so large that ``id * (largest size + 1)`` passes
    2**62: the plan compiler groups equal touches by the rank of their
    size instead, and the plans stay tuple-exact and shared.  (Coded by
    the size itself, ids 0 and 2 at size 2**62 - 1 would wrap to one
    int64 code.)"""
    dag = TaskDAG.from_tasks(
        Task(-1, "COPY", (DataHandle("x", x, 2**62 - 1),),
             (DataHandle("y", y, 64),), {"rows": 1, "width": 1}, {})
        for x, y in ((0, 0), (1, 1), (0, 0), (1, 0)))
    bw = broadwell()
    cm = CostModel(bw, CacheHierarchy(bw), MemoryModel(bw, n_parts=16))
    plans = cm._compile_plans(dag.freeze()).plans
    assert plans == _reference_plans(cm, dag)
    touches = [t for _c, ts, _g in plans for t in ts]
    assert len({id(t) for t in touches}) == len(set(touches)) == 4


def test_builder_dag_plans_match_reference(builder_dag, builder_twin):
    """Tuple-exact on real DAGs, whose reduction buffers (full-chunk
    output bytes) and CSR gathers (scattered, no input key) the random
    problems reach only by chance."""
    name, dag = builder_dag
    soa = dag.freeze()
    for machine in (broadwell(), epyc()):
        cm = CostModel(machine, CacheHierarchy(machine),
                       MemoryModel(machine, n_parts=16))
        plans = cm._compile_plans(soa).plans
        assert plans == _reference_plans(cm, dag, builder_twin)
    gathers = [g for _c, _t, g in plans if g is not None]
    assert gathers
    assert all(g[4] for g in gathers) == name.endswith("-csr")
    assert all(g[5] is None for g in gathers if g[4])
    assert soa.sparse_buffer.any() == ("reduction" in name)


# ----------------------------------------------------------------------
# BSP phases against the per-phase walk.  A BSP run computes its phases
# in bulk when it starts (one sort for every phase, one mask over the
# pred CSR for the intra-phase predecessors); this is the per-phase sort
# and split that replaced, with each task's predecessors filtered to its
# phase from ``dag.pred``.
# ----------------------------------------------------------------------

def run_phases(dag, n_cores):
    """The phases ``run_bsp`` computes and decodes when it starts."""
    return _decode_phases(_phase_columns(dag, n_cores))


def reference_phases(dag, n_cores):
    """``(tids, cores, preds)`` of every BSP phase: each phase's tasks
    by ``(params["i"] or inf, tid)``, split into runs of equal ``i``
    (the tid for a task without one), run ``k`` of ``ng`` on core
    ``k * n_cores // ng``; ``preds`` is the same-phase filter of each
    task's ``dag.pred`` list, in its order."""
    soa = dag.freeze()
    param_i = soa.param_i.tolist()
    bounds = soa.phase_indptr.tolist()
    phases = []
    for start, stop in zip(bounds, bounds[1:]):
        order = sorted(range(start, stop), key=lambda t: (
            param_i[t] if param_i[t] >= 0 else float("inf"), t))
        groups, last = [], object()
        for t in order:
            gi = param_i[t] if param_i[t] >= 0 else t
            if gi != last:
                groups.append([])
                last = gi
            groups[-1].append(t)
        cores = [k * n_cores // len(groups)
                 for k, g in enumerate(groups) for _ in g]
        preds = [tuple(u for u in dag.pred[t] if start <= u < stop)
                 for t in order]
        phases.append((order, cores, preds))
    return phases


def assert_phases_match_reference(dag):
    """Every core count: tids, cores and intra-phase predecessors equal
    the per-phase walk, and each predecessor runs earlier in its phase
    (``run_bsp`` reads its end, and raises if it has none)."""
    for n_cores in (1, 3, 28, 128):
        phases = run_phases(dag, n_cores)
        assert phases == reference_phases(dag, n_cores)
        for tids, _cores, preds in phases:
            at = {t: k for k, t in enumerate(tids)}
            assert all(at[u] < at[t]
                       for t, ps in zip(tids, preds) for u in ps)


@given(_dag_strategies)
@settings(max_examples=25, deadline=None)
def test_bsp_phases_match_reference(dag):
    assert_phases_match_reference(dag)


def test_builder_dag_bsp_phases_match_reference(builder_dag):
    _, dag = builder_dag
    dag = pickle.loads(pickle.dumps(dag))  # own pred lists
    assert_phases_match_reference(dag)
    assert any(ps for _t, _c, preds in run_phases(dag, 28)
               for ps in preds)


def test_loaded_bsp_phases_match_reference_without_pred_lists(
        builder_dag):
    """A loaded DAG computes its phases from its pred CSR pair, without
    building the lists, equal to the built DAG's."""
    _, dag = builder_dag
    dag = pickle.loads(pickle.dumps(dag))
    loaded = pickle.loads(pickle.dumps(dag))
    for n_cores in (28, 7):
        phases = run_phases(loaded, n_cores)
        assert type(loaded._pred) is tuple        # still the CSR pair
        assert phases == run_phases(dag, n_cores)
        assert phases == reference_phases(dag, n_cores)


@given(st.one_of(random_problem(), random_bare_dag(min_tasks=0)))
@example(TaskDAG.from_tasks([]))
@settings(max_examples=20, deadline=None)
def test_frozen_dag_pickle_roundtrip(dag):
    """Pickling (what the prep store does) preserves the whole graph,
    isolated tasks and empty DAGs included: the adjacency lists come
    back from their CSR arrays, order kept and one ``int`` per tid, and
    a simulation DAG comes back without a task list."""
    clone = pickle.loads(pickle.dumps(dag))
    assert clone.n_edges == dag.n_edges
    assert len(clone) == len(dag)
    assert clone.succ == dag.succ and clone.pred == dag.pred
    one = {}
    for row in clone.succ + clone.pred:
        assert all(one.setdefault(v, v) is v for v in row)
    assert clone.levels() == dag.levels()
    assert edge_set(clone) == edge_set(dag)
    assert (clone._tasks is None) == (dag._tasks is None)


@pytest.mark.parametrize("first_touch", [True, False])
@pytest.mark.parametrize("n_parts", [None, 3])
def test_home_arrays_and_domain_tables_match_domain_of(
        builder_dag, first_touch, n_parts):
    """Bulk homes == ``domain_of`` key by key (matrix block rows,
    striping with and without a partition count, no first touch), and
    the schedulers' domain tables index them per write."""
    from repro.sim.schedulers import _domain_tables

    _, dag = builder_dag
    dag = pickle.loads(pickle.dumps(dag))  # own memo tables
    soa = dag.freeze()
    for machine in (broadwell(), epyc()):
        mem = MemoryModel(machine, first_touch=first_touch)
        mem.configure_from_dag(dag)
        if n_parts is not None:
            mem.n_parts = n_parts
        homes, has_part = mem.home_arrays()
        ref = MemoryModel(machine, first_touch=first_touch)
        ref.configure_from_dag(dag)
        ref.n_parts = mem.n_parts
        assert homes == [ref.domain_of(k) for k in soa.id_to_key]
        assert has_part == [k[1] is not None for k in soa.id_to_key]
        dag._sched_domains.clear()
        first_dom, write_doms = _domain_tables(dag, mem)
        ids = soa.write_ids.tolist()
        ip = soa.write_indptr.tolist()
        assert write_doms == [tuple(homes[i] for i in ids[a:b])
                              for a, b in zip(ip, ip[1:])]
        assert first_dom == [d[0] if d else -1 for d in write_doms]
