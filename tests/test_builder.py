"""TDGG: trace → fine-grained task DAG with correct dependences."""

import numpy as np
import pytest

from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.trace import PrimitiveCall, TraceRecorder
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.solvers import lanczos_trace, lobpcg_trace


@pytest.fixture(scope="module")
def csb():
    return CSBMatrix.from_coo(banded_fem(160, 6, seed=2), 40)  # 4×4 blocks


def build(csb, calls, options=None, width=2):
    chunked = {"X": width, "Y": width, "Q": width}
    small = {"Z": (width, width), "P": (width, width), "s": (1, 1)}
    b = DAGBuilder(csb, "A", chunked, small, options)
    return b.build(calls)


def rec():
    return TraceRecorder()


def test_spmm_tasks_per_nonempty_block(csb):
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag = build(csb, t.calls)
    n_spmm = dag.by_kernel().get("SPMM", 0)
    assert n_spmm == len(csb.nonempty_blocks())


def test_spmm_row_chain_dependencies(csb):
    """Tasks updating the same Y row chunk are serialized (§3)."""
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag = build(csb, t.calls)
    # group tasks by output row
    rows = {}
    for task in dag.tasks:
        if task.kernel == "SPMM":
            rows.setdefault(task.params["i"], []).append(task.tid)
    for i, tids in rows.items():
        # chain: each consecutive pair connected
        for u, v in zip(tids, tids[1:]):
            assert (u, v) in dag._edge_pairs()
        # exactly the first in each row zeroes the output
        firsts = [dag.tasks[t0].params["zero_first"] for t0 in tids]
        assert firsts[0] and not any(firsts[1:])


def test_skip_empty_ablation(csb):
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag_skip = build(csb, t.calls, BuildOptions(skip_empty=True))
    dag_all = build(csb, t.calls, BuildOptions(skip_empty=False))
    assert len(dag_all) == csb.nbr * csb.nbc  # every block spawns
    assert len(dag_skip) < len(dag_all)


def test_reduction_mode_structure(csb):
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag = build(csb, t.calls, BuildOptions(spmm_mode="reduction"))
    kinds = dag.by_kernel()
    assert kinds["SPMM_REDUCE"] == csb.nbr
    # SPMM tasks in reduction mode are mutually independent per row
    spmm = [t_ for t_ in dag.tasks if t_.kernel == "SPMM"]
    for a in spmm:
        for b in spmm:
            assert (a.tid, b.tid) not in dag._edge_pairs()


def test_bad_spmm_mode():
    with pytest.raises(ValueError, match="spmm_mode"):
        BuildOptions(spmm_mode="nope")


def test_xy_reads_small_z(csb):
    t = rec()
    t.record("XY", ("Y", "Z"), ("Q",))
    dag = build(csb, t.calls)
    assert len(dag) == csb.nbr
    for task in dag.tasks:
        names = [h.name for h in task.reads]
        assert "Z" in names and "Y" in names


def test_xty_partials_and_reduce(csb):
    t = rec()
    t.record("XTY", ("X", "Y"), ("P",))
    dag = build(csb, t.calls)
    assert dag.by_kernel()["XTY"] == csb.nbr
    assert dag.by_kernel()["XTY_REDUCE"] == 1
    red = [x for x in dag.tasks if x.kernel == "XTY_REDUCE"][0]
    assert len(dag.pred[red.tid]) == csb.nbr  # reduce waits for all


def test_raw_war_waw_edges(csb):
    """RAW, WAR and WAW hazards all become edges."""
    t = rec()
    t.record("COPY", ("X",), ("Y",))   # writes Y
    t.record("ADD", ("Y", "X"), ("Q",))  # reads Y (RAW)
    t.record("COPY", ("X",), ("Y",))   # rewrites Y (WAW + WAR vs reader)
    dag = build(csb, t.calls)
    np_ = csb.nbr
    for i in range(np_):
        w1, r, w2 = i, np_ + i, 2 * np_ + i
        assert (w1, r) in dag._edge_pairs()      # RAW
        assert (w1, w2) in dag._edge_pairs()     # WAW
        assert (r, w2) in dag._edge_pairs()      # WAR


def test_scale_zero_for_empty_rows():
    """Rows with no stored blocks still get their output zeroed."""
    from repro.matrices.coo import COOMatrix

    coo = COOMatrix((80, 80), [0], [0], [1.0])  # only block (0,0)
    csb1 = CSBMatrix.from_coo(coo, 20)
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag = build(csb1, t.calls)
    scale = [x for x in dag.tasks if x.kernel == "SCALE"]
    assert len(scale) == csb1.nbr - 1  # all rows but row 0


def test_dot_chain_serializes_scalar_consumers(csb):
    """A SCALE using a named scalar waits for the DOT reduce."""
    t = rec()
    t.record("DOT", ("X", "X"), ("s",), post="sqrt")
    t.record("SCALE", (), ("X",), alpha_name="s", alpha_op="inv")
    dag = build(csb, t.calls)
    red = [x for x in dag.tasks if x.kernel == "DOT_REDUCE"][0]
    scales = [x for x in dag.tasks if x.kernel == "SCALE"]
    for s in scales:
        assert (red.tid, s.tid) in dag._edge_pairs()


def test_csr_storage_gather_span(csb):
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    dag_csb = build(csb, t.calls)
    dag_csr = build(csb, t.calls, BuildOptions(csr_storage=True))
    span_csb = dag_csb.tasks[0].shape["gather_span"]
    span_csr = dag_csr.tasks[0].shape["gather_span"]
    assert span_csr == csb.shape[1] * 2 * 8  # whole vector, width 2
    assert span_csb < span_csr


def test_builder_deterministic(csb):
    t = rec()
    t.record("SPMM", ("A", "X"), ("Y",))
    t.record("XTY", ("X", "Y"), ("P",))
    d1 = build(csb, t.calls)
    d2 = build(csb, t.calls)
    assert [x.kernel for x in d1.tasks] == [x.kernel for x in d2.tasks]
    assert d1._edge_pairs() == d2._edge_pairs()


def test_backward_edge_rejected(csb):
    """The build checks every edge runs forward in tid order, so a
    broken dependence analysis (here: a self edge) is refused."""

    class SelfLoop(DAGBuilder):
        def _hazards(self, tid, hid, write, n):
            indptr, indices = super()._hazards(tid, hid, write, n)
            # Task 3 gains itself as its last predecessor.
            indices = np.insert(indices, indptr[4], 3)
            indptr = indptr + (np.arange(n + 1) >= 4)
            return indptr, indices

    t = rec()
    t.record("COPY", ("X",), ("Y",))
    b = SelfLoop(csb, "A", {"X": 2, "Y": 2}, {})
    with pytest.raises(ValueError, match="edge 3 -> 3"):
        b.build(t.calls)


def test_unknown_primitive_rejected():
    with pytest.raises(ValueError, match="unknown primitive"):
        PrimitiveCall("FROBNICATE", (), ())


class _Forgetful(dict):
    """A handle memo that never stores: every call builds afresh."""

    def __setitem__(self, key, value):
        pass


def _handles_by_key(dag):
    out = {}
    for t in dag.tasks:
        for h in t.reads + t.writes:
            out.setdefault((h.name, h.part), {})[id(h)] = h
    return out


@pytest.mark.parametrize("trace", [lanczos_trace, lobpcg_trace])
def test_one_shared_handle_per_key(csb, trace):
    calls, chunked, small = trace(csb)
    dag = DAGBuilder(csb, "A", chunked, small).build(calls)
    unshared_builder = DAGBuilder(csb, "A", chunked, small)
    unshared_builder._handles = _Forgetful()
    unshared = unshared_builder.build(calls)

    shared = _handles_by_key(dag)
    fresh = _handles_by_key(unshared)
    assert shared.keys() == fresh.keys()
    assert any(len(hs) > 1 for hs in fresh.values())
    for key, hs in shared.items():
        assert len(hs) == 1, key
        (h,) = hs.values()
        assert {x.nbytes for x in fresh[key].values()} == {h.nbytes}, key
