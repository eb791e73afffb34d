"""Workspace mechanics and threaded/serial task execution bodies."""

import numpy as np
import pytest

from repro.graph.task import DataHandle, Task
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.runtime.threaded import ThreadedRuntime, execute_task
from repro.solvers.workspace import Workspace


@pytest.fixture(scope="module")
def csb():
    return CSBMatrix.from_coo(banded_fem(100, 6, seed=1), 25)


@pytest.fixture
def ws(csb):
    return Workspace(csb, {"u": 2, "v": 2, "w": 2},
                     {"g": (2, 2), "s": (1, 1)})


def test_workspace_chunks_are_views(ws):
    ws.chunk("u", 0)[:] = 3.0
    assert (ws.full("u")[:25] == 3.0).all()
    assert (ws.full("u")[25:] == 0.0).all()


def test_workspace_scalars(ws):
    ws.set_scalar("s", 2.5)
    assert ws.scalar("s") == 2.5


def test_spec_only_workspace(csb):
    w = Workspace(csb, {"u": 1}, {}, allocate=False)
    assert not w.allocated
    chunked, small = w.operand_spec()
    assert chunked == {"u": 1}


def test_execute_task_axpy_named_alpha(ws):
    ws.full("u")[:] = 1.0
    ws.full("v")[:] = 2.0
    ws.set_scalar("s", 4.0)
    t = Task(0, "AXPY", (), (), {"rows": 25, "width": 2},
             {"i": 0, "X": "u", "Y": "v", "alpha_name": "s",
              "alpha_op": "inv"})
    execute_task(t, ws)
    np.testing.assert_allclose(ws.chunk("v", 0), 2.25)  # 2 + 1/4
    np.testing.assert_allclose(ws.chunk("v", 1), 2.0)


@pytest.mark.parametrize("op,val,expected", [
    ("identity", 2.0, 2.0),
    ("inv", 4.0, 0.25),
    ("inv", 0.0, 0.0),  # guarded division
])
def test_alpha_ops(ws, op, val, expected):
    ws.set_scalar("s", val)
    ws.full("u")[:] = 1.0
    t = Task(0, "SCALE", (), (), {"rows": 25, "width": 2},
             {"i": 0, "X": "u", "alpha_name": "s", "alpha_op": op})
    execute_task(t, ws)
    np.testing.assert_allclose(ws.chunk("u", 0), expected)


def test_unknown_alpha_op(ws):
    t = Task(0, "SCALE", (), (), {"rows": 25, "width": 2},
             {"i": 0, "X": "u", "alpha_name": "s", "alpha_op": "log"})
    ws.set_scalar("s", 1.0)
    with pytest.raises(ValueError, match="alpha_op"):
        execute_task(t, ws)


def test_retired_neg_alpha_op_raises(ws):
    """``neg``/``neg_inv`` went with the solver that emitted them."""
    t = Task(0, "SCALE", (), (), {"rows": 25, "width": 2},
             {"i": 0, "X": "u", "alpha_name": "s", "alpha_op": "neg"})
    ws.set_scalar("s", 1.0)
    with pytest.raises(ValueError, match="alpha_op"):
        execute_task(t, ws)


def test_copy_column_transfer(ws):
    ws.full("u")[:, 0] = 7.0
    t = Task(0, "COPY", (), (), {"rows": 25, "width": 2},
             {"i": 0, "X": "u", "Y": "v", "col": 1, "src_col": 0})
    execute_task(t, ws)
    np.testing.assert_allclose(ws.chunk("v", 0)[:, 1], 7.0)
    np.testing.assert_allclose(ws.chunk("v", 0)[:, 0], 0.0)


def test_unknown_small_op(ws):
    t = Task(0, "SMALL_EIGH", (), (), {"k": 1}, {"op": "NOPE"})
    with pytest.raises(KeyError, match="unknown small op"):
        execute_task(t, ws)


def test_prepare_buffers_covers_dot_xty_spmm(csb):
    from repro.solvers import lobpcg_trace
    from repro.graph.builder import BuildOptions, DAGBuilder

    calls, chunked, small = lobpcg_trace(csb, n=2)
    dag = DAGBuilder(csb, "A", chunked, small,
                     BuildOptions(spmm_mode="reduction")).build_tasks(calls)
    ws = Workspace(csb, chunked, small)
    ws.prepare_buffers(dag)
    kinds = {k for k in ("XTY", "DOT") for t in dag.tasks
             if t.kernel == k}
    # every partial buffer key exists before execution starts
    for t in dag.tasks:
        if t.kernel == "XTY":
            assert (t.params["buf"], t.params["i"]) in ws.buffers
        if t.kernel in ("SPMV", "SPMM") and t.params.get("buffer"):
            assert (t.params["Y"], t.params["i"]) in ws.buffers


def test_threaded_runtime_validation():
    with pytest.raises(ValueError, match="positive"):
        ThreadedRuntime(n_workers=0)


def test_threaded_runtime_propagates_errors(csb):
    from repro.graph.dag import TaskDAG

    dag = TaskDAG.from_tasks(
        [Task(-1, "SMALL_EIGH", (), (), {"k": 1}, {"op": "NOPE"})])
    ws = Workspace(csb, {}, {})
    with pytest.raises(KeyError, match="unknown small op"):
        ThreadedRuntime(2).execute(dag, ws)


def test_threaded_deterministic_repeats(csb):
    """Racing would break bitwise repeatability across runs."""
    from repro.graph.builder import DAGBuilder
    from repro.solvers import lobpcg_trace
    from repro.kernels import orthonormalize

    calls, chunked, small = lobpcg_trace(csb, n=2)
    dag = DAGBuilder(csb, "A", chunked, small).build_tasks(calls)
    rng = np.random.default_rng(2)
    X0 = orthonormalize(rng.standard_normal((csb.shape[0], 2)))
    outs = []
    for _ in range(3):
        ws = Workspace(csb, chunked, small)
        ws.full("Psi")[:] = X0
        ThreadedRuntime(4).execute(dag, ws)
        outs.append(ws.full("Psi").copy())
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])
