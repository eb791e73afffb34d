"""A task DAG's ``Task`` list and its frozen view describe one graph.

``DAGBuilder.build_tasks`` makes ``DAGBuilder.build``'s DAG, whose
frozen columns and adjacency come from whole-trace NumPy passes, plus
a ``Task`` list made from the same emitted arrays.  Every frozen field
(dtype and values) must equal ``reference_columns``, and ``succ`` and
``pred`` ``reference_adjacency``, both walked one ``Task`` at a time
over that list: over the distinct DAGs of the Fig. 9 (Lanczos) and
Fig. 12 (LOBPCG) Broadwell grids, and over random traces of every op.
"""

import pytest
from hypothesis import given, settings

import repro.analysis.experiment as experiment
from repro.bench.runner import DEFAULT_MATRICES, expand_grid
from repro.graph.builder import DAGBuilder
from repro.machine.presets import get_machine
from repro.matrices.suite import SUITE
from repro.runtime import libcsr_partitions
from repro.tuning.blocksize import block_size_for_count
from tests.test_property_dag import (
    assert_adjacency_matches_reference,
    assert_columns_match_reference,
    random_trace,
)


def assert_modes_agree(builder, calls):
    """``build_tasks``'s frozen view and adjacency against the per-Task
    walks over its own list."""
    dag = builder.build_tasks(calls)
    assert len(dag.tasks) == len(dag)
    assert [t.tid for t in dag.tasks] == list(range(len(dag)))
    assert_columns_match_reference(dag)
    assert_adjacency_matches_reference(dag, dag)


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
