"""Primitive engines: eager/tracing parity and trace recording."""

import numpy as np
import pytest

from repro.graph.trace import PrimitiveCall, TraceRecorder
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.solvers.primitives import (
    EagerEngine,
    TracingEngine,
    apply_alpha_op,
)
from repro.solvers.workspace import Workspace


@pytest.fixture
def ws():
    csb = CSBMatrix.from_coo(banded_fem(90, 6, seed=2), 30)
    return Workspace(csb, {"x": 2, "y": 2, "q": 2},
                     {"Z": (2, 2), "P": (2, 2), "s": (1, 1)})


def test_apply_alpha_op_table():
    assert apply_alpha_op(4.0, "identity") == 4.0
    assert apply_alpha_op(4.0, "inv") == 0.25
    assert apply_alpha_op(0.0, "inv") == 0.0
    with pytest.raises(ValueError):
        apply_alpha_op(1.0, "exp")
    with pytest.raises(ValueError):
        apply_alpha_op(1.0, "neg")  # retired: no solver emits it


def test_eager_ops_match_numpy(ws, rng):
    e = EagerEngine(ws)
    ws.full("x")[:] = rng.standard_normal(ws.full("x").shape)
    ws.full("Z")[:] = rng.standard_normal((2, 2))
    e.spmm("x", "y")
    np.testing.assert_allclose(ws.full("y"),
                               ws.matrix.spmm(ws.full("x")), atol=1e-12)
    e.xy("y", "Z", "q")
    np.testing.assert_allclose(ws.full("q"),
                               ws.full("y") @ ws.full("Z"), atol=1e-12)
    e.xty("y", "q", "P")
    np.testing.assert_allclose(ws.full("P"),
                               ws.full("y").T @ ws.full("q"), atol=1e-12)
    before = ws.full("q").copy()
    e.xy("y", "Z", "q", accumulate=True, beta=0.5)
    np.testing.assert_allclose(
        ws.full("q"), before + 0.5 * (ws.full("y") @ ws.full("Z")),
        atol=1e-12)
    e.dot("x", "x", "s")
    assert ws.scalar("s") == pytest.approx(
        float(ws.full("x").ravel() @ ws.full("x").ravel()))
    e.dot("x", "x", "s", post="sqrt")
    assert ws.scalar("s") == pytest.approx(
        np.linalg.norm(ws.full("x")))


def test_tracing_engine_records_in_order(ws):
    t = TracingEngine(ws)
    t.spmm("x", "y")
    t.xy("y", "Z", "q")
    t.dot("x", "y", "s", post="sqrt")
    t.next_iteration()
    t.copy("x", "y", col=3)
    assert [c.op for c in t.calls] == ["SPMM", "XY", "DOT", "COPY"]
    assert t.calls[0].reads == ("A", "x")
    assert t.calls[2].meta_dict["post"] == "sqrt"
    assert t.calls[3].iteration == 1
    assert t.calls[3].meta_dict["col"] == 3


def test_trace_recorder_iterations():
    r = TraceRecorder()
    r.record("COPY", ("a",), ("b",))
    r.next_iteration()
    r.record("COPY", ("b",), ("a",))
    assert len(r) == 2
    assert [c.iteration for c in r.calls] == [0, 1]


def test_primitive_call_is_hashable_value():
    a = PrimitiveCall("COPY", ("x",), ("y",), (("col", 1),), 0)
    b = PrimitiveCall("COPY", ("x",), ("y",), (("col", 1),), 0)
    assert a == b and hash(a) == hash(b)


def test_eager_scale_and_axpy_named(ws, rng):
    e = EagerEngine(ws)
    ws.full("x")[:] = 1.0
    ws.full("y")[:] = 2.0
    ws.set_scalar("s", 4.0)
    e.axpy("x", "y", alpha_name="s", alpha_op="inv")  # y += x/4
    np.testing.assert_allclose(ws.full("y"), 2.25)
    e.scale("y", alpha=0.0)
    assert not ws.full("y").any()
