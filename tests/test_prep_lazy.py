"""A loaded prep artifact runs without decoding its task section.

Every version of both solvers runs from artifacts loaded off disk; no
loaded DAG may decode its ``Task`` list, and every summary must equal
a build with the store disabled.  Two 8-iteration cells cover the
steady-state replay of the event engine and of the BSP loop.  A traced
run may decode (trace export reads task parameters) but must report
the same numbers as the untraced one.
"""

import json

import pytest

import repro.analysis.experiment as experiment
from repro.bench.prep import default_prep_store
from repro.trace import Tracer
from tests.test_prep_store import _clear_experiment_memos

MACHINE, MATRIX, BLOCKS = "broadwell", "inline1", 16

#: (solver, version, iterations): every version x solver at 2
#: iterations, plus replaying 8-iteration cells (engine and BSP).
CELLS = [(s, v, 2) for s in ("lanczos", "lobpcg")
         for v in experiment.ALL_VERSIONS] + [
    ("lanczos", "deepsparse", 8), ("lobpcg", "libcsb", 8)]


def _summary(solver, version, iterations, tracer=None):
    return experiment.run_version(
        MACHINE, MATRIX, solver, version, block_count=BLOCKS,
        iterations=iterations, tracer=tracer).summary().to_dict()


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Summaries built with the store off, loaded from a full store and
    traced over loaded DAGs, plus the loaded DAGs and, per DAG, whether
    its task section was still undecoded after the untraced sweep."""
    root = str(tmp_path_factory.mktemp("prep"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_PREP_DIR", root)
        mp.setenv("REPRO_NO_PREP", "1")
        _clear_experiment_memos()
        built = {c: _summary(*c) for c in CELLS}
        mp.delenv("REPRO_NO_PREP")
        _clear_experiment_memos()
        store = default_prep_store()
        configs = {
            json.dumps(experiment.prebuild_prep(
                MACHINE, MATRIX, solver, version, block_count=BLOCKS),
                sort_keys=True)
            for solver, version, _ in CELLS
        }
        _clear_experiment_memos()
        store._loaded.clear()
        writes = store.writes
        loaded = {c: _summary(*c) for c in CELLS}
        assert store.writes == writes          # served, never rebuilt
        dags = [memo[2]["dag"] for memo in store._loaded.values()]
        assert len(dags) == len(configs)
        undecoded = [d._tasks is None for d in dags]
        traced = {c: _summary(*c, tracer=Tracer()) for c in CELLS}
        _clear_experiment_memos()
    return built, loaded, traced, dags, undecoded


def test_loaded_sweep_never_decodes_a_task_section(sweeps):
    _, _, _, dags, undecoded = sweeps
    assert len(dags) == 4          # 2 solvers x {libcsr, shared policy}
    assert all(undecoded)


def test_replay_cells_replayed(sweeps):
    _, loaded, _, _, _ = sweeps
    for cell in CELLS[-2:]:
        assert loaded[cell]["steady_state_at"] is not None, cell


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c)))
def test_loaded_summary_equals_store_disabled_build(sweeps, cell):
    built, loaded, _, _, _ = sweeps
    assert loaded[cell] == built[cell]


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c)))
def test_traced_run_matches_untraced(sweeps, cell):
    _, loaded, traced, _, _ = sweeps
    assert traced[cell] == loaded[cell]
