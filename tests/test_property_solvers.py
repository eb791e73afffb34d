"""Property-based tests on solver-level invariants."""

import bisect
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels import orthonormalize
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import random_symmetric
from repro.graph.builder import BuildOptions, DAGBuilder
from repro.runtime import execute_dag_serial
from repro.solvers import (
    EagerEngine,
    TracingEngine,
    Workspace,
    lanczos,
    lobpcg_trace,
)
from repro.solvers.lanczos import lanczos_iteration, lanczos_operands
from repro.solvers.lobpcg import lobpcg_iteration, lobpcg_operands


@st.composite
def spd_csb(draw):
    n = draw(st.integers(40, 160))
    b = draw(st.integers(10, 80))
    seed = draw(st.integers(0, 10_000))
    nnzpr = draw(st.integers(4, 12))
    return CSBMatrix.from_coo(random_symmetric(n, nnzpr, seed=seed), b)


@given(spd_csb())
@settings(max_examples=10, deadline=None)
def test_lanczos_ritz_values_inside_spectrum(csb):
    k = min(20, csb.shape[0] // 2)
    if k < 3:
        return
    res = lanczos(csb, k=k)
    ref = np.linalg.eigvalsh(csb.to_dense())
    assert res.eigenvalues[0] >= ref[0] - 1e-6
    assert res.eigenvalues[-1] <= ref[-1] + 1e-6


@given(spd_csb(), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=8, deadline=None)
def test_lobpcg_dag_preserves_orthonormality_drift(csb, n, seed):
    """Ritz values after one DAG iteration are real, finite and within
    the operator's spectral range."""
    from repro.kernels import orthonormalize
    from repro.solvers.lobpcg import lobpcg_trace

    n = min(n, max(1, csb.shape[0] // 8))
    rng = np.random.default_rng(seed)
    calls, chunked, small = lobpcg_trace(csb, n=n)
    dag = DAGBuilder(csb, "A", chunked, small).build_tasks(calls)
    ws = Workspace(csb, chunked, small)
    ws.full("Psi")[:] = orthonormalize(
        rng.standard_normal((csb.shape[0], n)))
    execute_dag_serial(dag, ws)
    evals = ws.full("evals")[:, 0]
    ref = np.linalg.eigvalsh(csb.to_dense())
    assert np.isfinite(evals).all()
    assert evals.min() >= ref[0] - 1e-6
    assert evals.max() <= ref[-1] + 1e-6


# ----------------------------------------------------------------------
# The DAG as a program: every legal order computes the same values.
# ----------------------------------------------------------------------

_OPTIONS = [BuildOptions(skip_empty=s, spmm_mode=m, csr_storage=c)
            for s, m, c in itertools.product(
                (True, False), ("dependency", "reduction"), (False, True))]


def drawn_order(dag, choices: bytes) -> list:
    """A topological order of ``dag``: step ``s`` runs the ready task of
    rank ``choices[s] % len(ready)`` in tid order.  All-zero choices
    give ``topo_order``'s smallest-id-first order, which a failing
    example shrinks toward."""
    indeg = dag.in_degrees()
    ready = [t for t, d in enumerate(indeg) if d == 0]
    order = []
    for c in choices:
        u = ready.pop(c % len(ready))
        order.append(u)
        for v in dag.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                bisect.insort(ready, v)
    return order


def _operand_bytes(ws) -> dict:
    """Every operand and partial buffer of ``ws``, as its bytes."""
    out = {name: a.tobytes() for name, a in ws.arrays.items()}
    for key, buf in ws.buffers.items():
        out[key] = np.asarray(buf).tobytes()
    return out


def _projector(X):
    Q = orthonormalize(X)
    return Q @ Q.T


def _lanczos_case(csb, k, rng):
    """One Lanczos step from a random unit vector: operands, the step,
    its start and the eager comparison of its named outputs."""
    chunked, small = lanczos_operands(k)
    b = rng.standard_normal((csb.shape[0], 1))
    b /= np.linalg.norm(b)

    def start(ws):
        ws.full("q")[:] = b
        ws.full("Qb")[:, 0:1] = b

    def check(eager, ws):
        for name in ("alpha", "beta"):
            np.testing.assert_allclose(eager.scalar(name), ws.scalar(name),
                                       atol=1e-12, err_msg=name)
        np.testing.assert_allclose(eager.full("q"), ws.full("q"),
                                   atol=1e-10)

    # lanczos_trace records the step that writes basis column k // 2.
    return (chunked, small, lambda eng: lanczos_iteration(eng, k // 2),
            start, check)


def _lobpcg_case(csb, n, rng):
    """One LOBPCG step from a random orthonormal block: operands, the
    step, its start and the eager comparison of its named outputs."""
    chunked, small = lobpcg_operands(n)
    psi = orthonormalize(rng.standard_normal((csb.shape[0], n)))

    def start(ws):
        ws.full("Psi")[:] = psi

    def check(eager, ws):
        for name, atol in (("gA_PP", 1e-10), ("HPsi", 1e-10), ("R", 1e-9),
                           ("evals", 1e-9)):
            np.testing.assert_allclose(eager.full(name), ws.full(name),
                                       atol=atol, err_msg=name)
        np.testing.assert_allclose(_projector(eager.full("Psi")),
                                   _projector(ws.full("Psi")), atol=1e-6)

    return (chunked, small, lambda eng: lobpcg_iteration(eng, n), start,
            check)


@st.composite
def primitive_program(draw):
    """A short random program over the solvers' primitives on width-2
    vectors ``u``, ``v``, ``w``, a 2x2 ``g`` and a scalar ``s``: a list
    of ``(method, args, kwargs)``.  Unlike the two solvers' steps, it
    overwrites operands nothing read in between (a write-after-write
    hazard no read-based edge implies)."""
    vectors = st.sampled_from("uvw")
    coef = st.sampled_from([{"alpha": 0.5}, {"alpha_name": "s"}])
    program = []
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(["spmm", "xy", "xty", "axpy", "scale",
                                   "copy", "add", "sub", "dot"]))
        x = draw(vectors)
        other = draw(st.sampled_from([v for v in "uvw" if v != x]))
        if op in ("spmm", "copy"):
            program.append((op, (x, other), {}))
        elif op == "xy":
            program.append((op, (x, "g", other), {
                "accumulate": draw(st.booleans()), "beta": 0.5}))
        elif op == "xty":
            program.append((op, (x, draw(vectors), "g"), {}))
        elif op == "axpy":
            program.append((op, (x, draw(vectors)), draw(coef)))
        elif op == "scale":
            program.append((op, (x,), draw(coef)))
        elif op in ("add", "sub"):
            program.append((op, (x, draw(vectors), draw(vectors)), {}))
        else:
            y = draw(vectors)
            program.append((op, (x, y, "s"),
                            {"post": "sqrt" if x == y else "identity"}))
    return program


def _program_case(program, rng, m):
    """A :func:`primitive_program` from random operands.  Its default
    order is program order, so the equality of orders needs no eager
    run; values computed in another summation order are not compared."""
    chunked, small = {v: 2 for v in "uvw"}, {"g": (2, 2), "s": (1, 1)}
    values = {name: rng.standard_normal((m, w))
              for name, w in chunked.items()}
    values.update((name, rng.standard_normal(shape))
                  for name, shape in small.items())

    def run(eng):
        for op, args, kwargs in program:
            getattr(eng, op)(*args, **kwargs)

    def start(ws):
        for name, a in values.items():
            ws.full(name)[:] = a

    return chunked, small, run, start, None


@given(spd_csb(), st.sampled_from(["lanczos", "lobpcg", "program"]),
       st.sampled_from(_OPTIONS), st.integers(1, 8), st.integers(0, 1000),
       st.data())
@settings(max_examples=60, deadline=None)
def test_every_legal_order_computes_the_same_operands(
        csb, solver, options, width, seed, data):
    """A task DAG run serially in any legal order leaves every operand
    and partial buffer equal, bit for bit, to a run in the default
    order, and a solver step's named outputs match the eager solver's.

    The equality holds for any correct hazard wiring without restating
    its rules: a missing RAW, WAR or WAW edge lets some order read a
    stale value, overwrite a live one, or sum a row in another order.
    """
    rng = np.random.default_rng(seed)
    if solver == "lanczos":
        case = _lanczos_case(csb, 2 + width, rng)
    elif solver == "lobpcg":
        case = _lobpcg_case(csb, min(width, 3, csb.shape[0] // 8), rng)
    else:
        case = _program_case(data.draw(primitive_program(), label="program"),
                             rng, csb.shape[0])
    chunked, small, step, start, check = case
    tracer = TracingEngine(Workspace(csb, chunked, small, allocate=False))
    step(tracer)
    dag = DAGBuilder(csb, "A", chunked, small,
                     options).build_tasks(tracer.calls)
    order = drawn_order(dag, data.draw(
        st.binary(min_size=len(dag), max_size=len(dag)), label="choices"))
    runs = []
    for o in (None, order):
        ws = Workspace(csb, chunked, small)
        start(ws)
        execute_dag_serial(dag, ws, order=o)
        runs.append(ws)
    default, drawn = map(_operand_bytes, runs)
    assert drawn.keys() == default.keys()
    assert [k for k in default if drawn[k] != default[k]] == []
    if check is not None:
        eager = Workspace(csb, chunked, small)
        start(eager)
        step(EagerEngine(eager))
        check(eager, runs[1])
