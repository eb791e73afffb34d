"""A loaded prep artifact runs without a task list.

Every version of both solvers runs from artifacts loaded off disk; no
loaded DAG may hold a ``Task`` list after the sweep, and every summary
must equal a build with the store disabled.  Two 8-iteration cells
cover the steady-state replay of the event engine and of the BSP loop.
A traced run must report the same numbers as the untraced one.  The
Fig. 9 Broadwell Lanczos grid (every default matrix x every version
at the default block counts) holds the same loaded-equals-built and
task-free contract at paper scale.
"""

import json

import pytest

import repro.analysis.experiment as experiment
from repro.bench.prep import PrepStore, default_prep_store
from repro.bench.runner import DEFAULT_MATRICES, expand_grid
from repro.graph.builder import DAGBuilder
from repro.trace import Tracer
from tests.test_prep_store import _clear_experiment_memos

MACHINE, MATRIX, BLOCKS = "broadwell", "inline1", 16

#: (solver, version, iterations): every version x solver at 2
#: iterations, plus replaying 8-iteration cells (engine and BSP).
CELLS = [(s, v, 2) for s in ("lanczos", "lobpcg")
         for v in experiment.ALL_VERSIONS] + [
    ("lanczos", "deepsparse", 8), ("lobpcg", "libcsb", 8)]


#: (matrix, version, block_count): the Fig. 9 Broadwell Lanczos grid,
#: each version at its rule-of-thumb block count, 2 iterations.
FIG9_CELLS = [(c.matrix, c.version, c.block_count)
              for c in expand_grid(matrices=DEFAULT_MATRICES)]


def _summary(solver, version, iterations, tracer=None):
    return experiment.run_version(
        MACHINE, MATRIX, solver, version, block_count=BLOCKS,
        iterations=iterations, tracer=tracer).summary().to_dict()


def _fig9_summary(matrix, version, block_count):
    return experiment.run_version(
        MACHINE, matrix, "lanczos", version, block_count=block_count,
        iterations=2).summary().to_dict()


def _built_then_loaded(mp, root, cells, summary, prebuild):
    """Summaries of ``cells`` built with the store off, then loaded
    from a store that ``prebuild`` filled, plus the DAGs the loaded
    sweep got from the store and, per DAG, whether it still held no
    task list after that sweep, and the same flags for every DAG the
    builder made in the store-off sweep and in the cold ``prebuild``
    (build, plan compile, artifact write)."""
    mp.setenv("REPRO_PREP_DIR", root)
    mp.setenv("REPRO_NO_PREP", "1")
    _clear_experiment_memos()
    built_dags = []
    build = DAGBuilder.build

    def keep(self, calls):
        dag = build(self, calls)
        built_dags.append(dag)
        return dag

    mp.setattr(DAGBuilder, "build", keep)
    built = {c: summary(*c) for c in cells}
    mp.delenv("REPRO_NO_PREP")
    _clear_experiment_memos()
    store = default_prep_store()
    configs = {json.dumps(prebuild(*c), sort_keys=True) for c in cells}
    mp.setattr(DAGBuilder, "build", build)
    built_task_free = [d._tasks is None for d in built_dags]
    _clear_experiment_memos()
    dags = []
    get = PrepStore.get

    def spy(self, config):
        artifact = get(self, config)
        if artifact is not None:
            dags.append(artifact["dag"])
        return artifact

    writes = store.writes
    with pytest.MonkeyPatch.context() as spying:
        spying.setattr(PrepStore, "get", spy)
        loaded = {c: summary(*c) for c in cells}
    assert store.writes == writes          # served, never rebuilt
    assert len(dags) == len(configs)
    task_free = [d._tasks is None for d in dags]
    return built, loaded, dags, task_free, built_task_free


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Summaries built with the store off, loaded from a full store and
    traced over loaded DAGs, plus the loaded DAGs and, per DAG, whether
    it was still task-free after the untraced sweep."""
    root = str(tmp_path_factory.mktemp("prep"))
    with pytest.MonkeyPatch.context() as mp:
        built, loaded, dags, task_free, _ = _built_then_loaded(
            mp, root, CELLS, _summary,
            lambda solver, version, _: experiment.prebuild_prep(
                MACHINE, MATRIX, solver, version, block_count=BLOCKS))
        traced = {c: _summary(*c, tracer=Tracer()) for c in CELLS}
        _clear_experiment_memos()
    return built, loaded, traced, dags, task_free


@pytest.fixture(scope="module")
def fig9_sweeps(tmp_path_factory):
    """The Fig. 9 grid built with the store off and loaded from a full
    store, with the loaded DAGs' task-free flags and those of the DAGs
    the store-off sweep and the cold prebuild built."""
    root = str(tmp_path_factory.mktemp("prep-fig9"))
    with pytest.MonkeyPatch.context() as mp:
        built, loaded, _, task_free, built_task_free = _built_then_loaded(
            mp, root, FIG9_CELLS, _fig9_summary,
            lambda matrix, version, block_count: experiment.prebuild_prep(
                MACHINE, matrix, "lanczos", version,
                block_count=block_count))
        _clear_experiment_memos()
    return built, loaded, task_free, built_task_free


def test_loaded_sweep_never_rebuilds_tasks(sweeps):
    _, _, _, dags, task_free = sweeps
    assert len(dags) == 4          # 2 solvers x {libcsr, shared policy}
    assert all(task_free)


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


def test_fig9_loaded_sweep_never_rebuilds_tasks(fig9_sweeps):
    _, _, task_free, _ = fig9_sweeps
    assert task_free and all(task_free)


def test_fig9_cold_sweep_creates_no_task_list(fig9_sweeps):
    """The 40-cell sweep over DAGs it built (store off), and the cold
    prep of every artifact, never ask a built DAG for its tasks."""
    built_task_free = fig9_sweeps[3]
    assert len(built_task_free) == 2 * 24     # each sweep builds all 24
    assert all(built_task_free)


@pytest.mark.parametrize("cell", FIG9_CELLS,
                         ids=lambda c: "-".join(map(str, c)))
def test_fig9_loaded_summary_equals_store_disabled_build(fig9_sweeps, cell):
    built, loaded, _, _ = fig9_sweeps
    assert loaded[cell] == built[cell]
