"""The cold build makes no ``Task`` objects; ``dag.tasks`` makes them.

The builder computes the DAG's frozen columns and adjacency for a whole
trace in bulk, and a cold prep (build, plan compile, domain tables, BSP
phases, artifact write) never asks for the task list.  Every frozen
column and both adjacency CSR pairs of the bulk build must equal, dtype
and values, those of the per-task column builder it replaced: pinned by
digests in ``tests/fixtures/builder_column_digests.json``.  The list a
built DAG hands out on demand comes from the builder's task mode and
must equal, field by field, the list the ``Task``-emitting builder
made: pinned by digests in ``tests/fixtures/builder_task_digests.json``.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import repro.analysis.experiment as experiment
from repro.graph.builder import BuildOptions
from repro.graph.task import DataHandle, Task
from repro.matrices.suite import SUITE
from repro.tuning.blocksize import block_size_for_count
from tests.test_prep_store import _clear_experiment_memos
from tests.test_property_dag import _BUILDER_CASES

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
        assert all(d._tasks is None and d.recipe is not None
                   for d in dags)
        # The counter sees constructions: the list is built on demand.
        assert len(dags[0].tasks) == len(dags[0])
        assert constructed["Task"] == len(dags[0])
        assert constructed["DataHandle"] > 0
    finally:
        _clear_experiment_memos()


@pytest.mark.parametrize("name", sorted(_BUILDER_CASES))
def test_on_demand_tasks_equal_task_builder(name):
    """The list ``dag.tasks`` builds on demand (through the rebuild
    check) equals the ``Task``-emitting builder's, field by field."""
    dag = experiment._dag.__wrapped__(*_subkey(name))
    assert dag._tasks is None
    tasks = dag.tasks
    assert [t.tid for t in tasks] == list(range(len(dag)))
    assert task_digest(tasks) == DIGESTS[name]
    assert dag.tasks is tasks


@pytest.mark.parametrize("name", ["lanczos", "lobpcg-reduction"])
def test_loaded_dag_rebuilds_the_same_tasks(name, tmp_path, monkeypatch):
    """A loaded artifact rebuilds through its plain-data recipe to the
    same list."""
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    try:
        experiment._prepped_dag(MACHINE, *_subkey(name))
        _clear_experiment_memos()
        loaded = experiment._prepped_dag(MACHINE, *_subkey(name))
        assert experiment.default_prep_store().hits == 1
        assert loaded._tasks is None and loaded._expand is None
        assert task_digest(loaded.tasks) == DIGESTS[name]
    finally:
        _clear_experiment_memos()


def test_task_mode_that_strays_fails_closed(monkeypatch):
    """A task mode that disagrees with the columns the build wrote
    (here: one shape entry the flop count reads) never hands out its
    list."""
    from repro.graph import builder

    dag = experiment._dag.__wrapped__(*_subkey("lanczos"))

    def shifted(rows, width, streams):
        return {"rows": rows + 1, "width": width, "streams": streams}

    monkeypatch.setattr(builder, "_streams", shifted)
    with pytest.raises(RuntimeError, match="differs .* in flops"):
        dag.tasks
    assert dag._tasks is None
