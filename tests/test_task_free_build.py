"""The cold build makes no ``Task`` objects; ``build_tasks`` makes them.

The builder computes the DAG's frozen columns and adjacency for a whole
trace in bulk, and a cold prep (build, plan compile, domain tables, BSP
phases, artifact write) makes no task list, nor does exporting a
loaded artifact's trace.  Every frozen column and both adjacency CSR
pairs of the bulk build must equal, dtype and values, those of the
per-task column builder it replaced: pinned by digests in
``tests/fixtures/builder_column_digests.json``.  The list
``DAGBuilder.build_tasks`` makes must equal, field by field, the list
the ``Task``-emitting builder made: pinned by digests in
``tests/fixtures/builder_task_digests.json``.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import repro.analysis.experiment as experiment
from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.task import DataHandle, Task
from repro.matrices.suite import SUITE
from repro.trace import Tracer
from repro.trace.chrome import to_chrome_trace
from repro.tuning.blocksize import block_size_for_count
from tests.test_prep_store import _clear_experiment_memos
from tests.test_property_dag import _BUILDER_CASES, build_tasks_for

MACHINE = "broadwell"

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
with open(os.path.join(_FIXTURES, "builder_task_digests.json")) as f:
    DIGESTS = json.load(f)
with open(os.path.join(_FIXTURES, "builder_column_digests.json")) as f:
    COLUMN_DIGESTS = json.load(f)


def _subkey(name):
    solver, options = _BUILDER_CASES[name]
    width = {"lanczos": 20, "lobpcg": 8}[solver]
    bs = block_size_for_count(SUITE["inline1"].paper_rows, 16)
    return ("inline1", bs, solver, width, BuildOptions(**options))


def task_digest(tasks) -> str:
    """sha256 over every task's fields: kernel, reads and writes with
    their bytes, shape, params, iteration and seq."""
    h = hashlib.sha256()
    for t in tasks:
        row = (t.tid, t.kernel,
               tuple((x.name, x.part, x.nbytes) for x in t.reads),
               tuple((x.name, x.part, x.nbytes) for x in t.writes),
               tuple(sorted(t.shape.items())),
               tuple(sorted(t.params.items())),
               t.iteration, t.seq)
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, or of a value's
    repr (which tells an ``int`` part from a NumPy one)."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def column_digests(dag) -> dict:
    """One digest per frozen field and per succ/pred CSR array."""
    soa = dag.freeze()
    out = {f.name: _digest(getattr(soa, f.name))
           for f in dataclasses.fields(soa)}
    for name, csr in (("succ", dag.succ_csr()), ("pred", dag.pred_csr())):
        out[name + "_indptr"] = _digest(csr[0])
        out[name + "_indices"] = _digest(csr[1])
    return out


@pytest.mark.parametrize("name", sorted(_BUILDER_CASES))
def test_bulk_build_equals_per_task_columns(name):
    """The bulk build's frozen columns, ``id_to_key`` and adjacency CSR
    pairs equal the per-task column builder's, dtype and values, and
    it holds the adjacency as CSR pairs until the lists are read."""
    dag = experiment._dag.__wrapped__(*_subkey(name))
    assert type(dag.__dict__["succ"]) is tuple
    assert type(dag._pred) is tuple
    got = column_digests(dag)
    want = COLUMN_DIGESTS[name]
    assert [k for k in want if got.get(k) != want[k]] == []
    assert got.keys() == want.keys()


@pytest.fixture
def constructed(monkeypatch):
    """Counts of ``Task`` and ``DataHandle`` constructor calls."""
    counts = {"Task": 0, "DataHandle": 0}
    for cls in (Task, DataHandle):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_cold_prep_constructs_no_task_or_handle(constructed, tmp_path,
                                               monkeypatch):
    """Build, plan compile and artifact write of every builder case,
    with an empty prep store: not one ``Task`` or ``DataHandle``."""
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    try:
        dags = [experiment._prepped_dag(MACHINE, *_subkey(name))
                for name in sorted(_BUILDER_CASES)]
        assert constructed == {"Task": 0, "DataHandle": 0}
        for dag in dags:
            with pytest.raises(RuntimeError, match="build_tasks"):
                dag.tasks
        assert constructed == {"Task": 0, "DataHandle": 0}
    finally:
        _clear_experiment_memos()


@pytest.mark.parametrize("name", sorted(_BUILDER_CASES))
def test_on_demand_tasks_equal_task_builder(name):
    """The list ``build_tasks`` makes equals the ``Task``-emitting
    builder's, field by field."""
    tasks = build_tasks_for(*_subkey(name)).tasks
    assert [t.tid for t in tasks] == list(range(len(tasks)))
    assert task_digest(tasks) == DIGESTS[name]


def _chrome(dag):
    """The Chrome trace of a traced two-iteration DeepSparse run of
    ``dag`` (the run's events, exported against ``dag``)."""
    from repro.machine.presets import get_machine
    from repro.runtime import DeepSparseRuntime

    tracer = Tracer()
    DeepSparseRuntime(get_machine(MACHINE)).execute(
        dag, iterations=2, tracer=tracer)
    return json.dumps(to_chrome_trace(tracer), sort_keys=True)


@pytest.mark.parametrize("name", ["lanczos", "lobpcg-reduction"])
def test_loaded_artifact_exports_its_trace_without_tasks(
        name, constructed, tmp_path, monkeypatch):
    """Exporting the trace of a run over a loaded artifact makes no
    ``Task`` or ``DataHandle`` (tile coordinates come off the frozen
    view), and the export equals the one of its ``build_tasks`` twin,
    whose tile coordinates are its tasks' ``params``."""
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    try:
        experiment._prepped_dag(MACHINE, *_subkey(name))
        _clear_experiment_memos()
        loaded = experiment._prepped_dag(MACHINE, *_subkey(name))
        assert experiment.default_prep_store().hits == 1
        got = _chrome(loaded)
        assert constructed == {"Task": 0, "DataHandle": 0}
    finally:
        _clear_experiment_memos()
    twin = build_tasks_for(*_subkey(name))
    assert _chrome(twin) == got
    events = json.loads(got)["traceEvents"]
    tiles = {(e["args"]["tid"], e["args"].get("i"), e["args"].get("j"))
             for e in events if e.get("cat") == "task"}
    params = {(t.tid, t.params.get("i"), t.params.get("j"))
              for t in twin.tasks}
    assert tiles == params
    assert any(j is not None for _, _, j in tiles)


def test_task_mode_that_strays_fails_closed(monkeypatch):
    """The list check (``tests/test_build_modes.py``) fails on a
    ``build_tasks`` list that disagrees with the bulk columns (here:
    one shape entry the flop count reads, shifted in the tasks alone)."""
    from tests.test_build_modes import assert_modes_agree

    matrix, bs, solver, width, options = _subkey("lanczos")
    cen, calls, chunked, small = experiment._trace(matrix, bs, solver,
                                                   width)
    b = DAGBuilder(cen, "A", chunked, small, options)
    assert_modes_agree(b, calls)
    task_list = DAGBuilder._task_list

    def strayed(self, acc):
        tasks = task_list(self, acc)
        t = next(t for t in tasks if t.kernel == "DOT")
        t.shape = dict(t.shape, rows=t.shape["rows"] + 1)
        return tasks

    monkeypatch.setattr(DAGBuilder, "_task_list", strayed)
    with pytest.raises(AssertionError, match="flops"):
        assert_modes_agree(b, calls)
