"""The builder's two modes make one DAG.

``DAGBuilder.build`` computes a simulation DAG's frozen columns and
adjacency in whole-trace NumPy passes and makes no ``Task``;
``DAGBuilder.build_tasks`` makes the same DAG one ``Task`` at a time,
through ``add_task``'s per-task column walk and the per-task hazard
walk ``DAGBuilder._wire``.  Every frozen field (dtype and values),
``id_to_key`` and both adjacency CSR pairs must agree: over the
distinct DAGs of the Fig. 9 (Lanczos) and Fig. 12 (LOBPCG) Broadwell
grids, and over random traces of every op.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import repro.analysis.experiment as experiment
from repro.bench.runner import DEFAULT_MATRICES, expand_grid
from repro.graph.builder import DAGBuilder
from repro.graph.dag import GraphArrays
from repro.machine.presets import get_machine
from repro.matrices.suite import SUITE
from repro.runtime import libcsr_partitions
from repro.tuning.blocksize import block_size_for_count
from tests.test_property_dag import random_trace


def assert_same_dag(built, twin):
    """``built`` (a simulation DAG) and ``twin`` (a task DAG) agree in
    every frozen field, bit for bit, and in both CSR pairs."""
    assert built._tasks is None
    assert len(twin.tasks) == len(built)
    ours, theirs = built.freeze(), twin.freeze()
    for f in dataclasses.fields(GraphArrays):
        a, b = getattr(ours, f.name), getattr(theirs, f.name)
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray), f.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:   # repr tells an ``int`` part from a NumPy one
            assert a == b and repr(a) == repr(b), f.name
    for name in ("succ_csr", "pred_csr"):
        for a, b in zip(getattr(built, name)(), getattr(twin, name)()):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def assert_modes_agree(builder, calls):
    assert_same_dag(builder.build(calls), builder.build_tasks(calls))


def _grid_subkeys(solver):
    """The distinct ``(matrix, block size, solver, width, options)`` of
    one solver's Broadwell grid, each cell's as ``prebuild_prep``
    derives it."""
    machine = get_machine("broadwell")
    width = experiment.DEFAULT_WIDTHS[solver]
    subkeys = {}
    for c in expand_grid(matrices=DEFAULT_MATRICES, solvers=(solver,)):
        rows = SUITE[c.matrix].paper_rows
        bs = (libcsr_partitions(machine, rows) if c.version == "libcsr"
              else block_size_for_count(rows, c.block_count))
        options = experiment._make_runtime(c.version, machine, True,
                                           0).options
        subkeys[(c.matrix, bs, solver, width, options)] = None
    return list(subkeys)


_GRIDS = _grid_subkeys("lanczos") + _grid_subkeys("lobpcg")


def _id(subkey):
    matrix, bs, solver, _w, options = subkey
    return (f"{solver}-{matrix}-{bs}-{options.spmm_mode}"
            f"{'-csr' if options.csr_storage else ''}"
            f"{'' if options.skip_empty else '-all'}")


def test_grids_are_the_fig9_and_fig12_dags():
    assert len(_GRIDS) == 48        # 24 distinct DAGs per solver


@pytest.mark.parametrize("subkey", _GRIDS, ids=_id)
def test_grid_dag_modes_agree(subkey):
    matrix, bs, solver, width, options = subkey
    cen, calls, chunked, small = experiment._trace(matrix, bs, solver,
                                                   width)
    assert_modes_agree(DAGBuilder(cen, "A", chunked, small, options), calls)


@given(random_trace())
@settings(max_examples=30, deadline=None)
def test_random_trace_modes_agree(builder_calls):
    assert_modes_agree(*builder_calls)
