"""One object per repeated value in a prepped DAG, built or loaded.

The compiled plans travel as columns of distinct values and decode to
one object per distinct int, float, touch tuple and gather bundle, on
the cold compile and on a load alike.  The schedulers' domain tables
share one ``write_doms`` tuple per distinct domain set; pickle
memoizes tuples, so a DAG that went through the prep store shares
them the same way.  Pickle does not memoize ints: ``succ``, ``pred``
and the BSP phases travel as arrays and come back holding one ``int``
object per tid, ``pred`` only once it is read.
"""

import pickle
import struct
from itertools import chain

import pytest

from repro.analysis.experiment import _compile_prep, _dag
from repro.bench.prep import PrepStore
from repro.graph.builder import BuildOptions
from repro.machine.memory import MemoryModel
from repro.matrices.suite import SUITE
from repro.tuning.blocksize import block_size_for_count

CASES = {
    "lanczos": ("lanczos", 20, {}),
    "lobpcg-reduction": ("lobpcg", 8, {"spmm_mode": "reduction"}),
    "lobpcg-csr": ("lobpcg", 8, {"csr_storage": True}),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    """A prepped real DAG (plans, home arrays, domain tables, BSP
    phases), as a cold prep leaves it."""
    solver, width, options = CASES[request.param]
    bs = block_size_for_count(SUITE["inline1"].paper_rows, 64)
    dag = _dag.__wrapped__("inline1", bs, solver, width,
                           BuildOptions(**options))
    _compile_prep("broadwell", dag)
    return dag


@pytest.fixture(scope="module")
def loaded(built, tmp_path_factory):
    """``built`` through a real prep store ``put`` and ``get``."""
    store = PrepStore(root=str(tmp_path_factory.mktemp("prep")))
    config = {"kind": "prep-sharing", "n": len(built)}
    store.put(config, {"dag": built})
    dag = store.get(config)["dag"]
    assert dag is not built and dag._tasks is None
    return dag


def _plans(dag) -> list:
    (table,) = dag._cost_prep.values()
    return table.plans


def _touches(dag) -> list:
    return [t for _compute, touches, _gather in _plans(dag) for t in touches]


def _gathers(dag) -> list:
    return [g for _compute, _touches, g in _plans(dag) if g is not None]


def _write_doms(dag) -> list:
    (tables,) = dag._sched_domains.values()
    return tables[1]


def assert_one_object_per_value(values):
    assert values
    assert len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_plans_hold_one_tuple_per_distinct_touch(built, loaded, which):
    touches = _touches(built if which == "built" else loaded)
    assert_one_object_per_value(touches)
    assert len(set(touches)) < len(touches)     # the DAG repeats some


def test_loaded_plans_equal_the_compiled_plans(built, loaded):
    """Tuple for tuple, floats to the bit (``repr`` tells -0.0 from
    0.0 and prints every digit)."""
    assert _plans(loaded) == _plans(built)
    assert repr(_plans(loaded)) == repr(_plans(built))


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_plans_hold_one_object_per_distinct_int_and_float(
        built, loaded, which):
    """Across touch tuples, gather bundles and compute terms: ints by
    value, floats by bit pattern (so -0.0 and 0.0 stay two objects)."""
    ints, floats = [], {}
    for compute, touches, gather in _plans(built if which == "built"
                                           else loaded):
        values = chain((compute,), chain.from_iterable(touches),
                       gather or ())
        for v in values:
            if type(v) is int:
                ints.append(v)
            elif type(v) is float:
                assert floats.setdefault(struct.pack("<d", v), v) is v
    assert_one_object_per_value(ints)
    assert max(ints) > 256                  # beyond CPython's small ints
    assert len(floats) > 1


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_plans_hold_one_tuple_per_distinct_gather(built, loaded, which):
    """CSR gathers span the whole vector and name no key, so equal
    blocks repeat one bundle (the other cases repeat none here)."""
    gathers = _gathers(built if which == "built" else loaded)
    assert_one_object_per_value(gathers)
    if built.recipe["options"]["csr_storage"]:
        assert len(set(gathers)) < len(gathers)


def assert_same_columns(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert (a == b).all()


def test_decoded_tables_pickle_to_the_columns_they_came_from(built,
                                                             loaded):
    """A loaded plan table and a decoded phase table keep no columns;
    pickled again, they re-encode to the columns compiled for them."""
    from repro.sim.engine import _phase_columns

    (plans,) = loaded._cost_prep.values()
    (compiled,) = built._cost_prep.values()
    assert plans._columns is None and compiled._columns is not None
    assert_same_columns(plans.__getstate__(), compiled.__getstate__())
    ((n_cores, phases),) = loaded._bsp_phases.items()
    assert phases.phases and phases._columns is None
    assert_same_columns(phases.__getstate__(),
                        _phase_columns(built, n_cores))
    again = pickle.loads(pickle.dumps(loaded))
    assert again._cost_prep == built._cost_prep
    assert again._bsp_phases == built._bsp_phases


def test_loaded_pred_stays_csr_until_read(built):
    """No run reads ``pred``: a loaded DAG keeps the CSR pair, decodes
    its BSP phases at the first BSP run and runs from them, and builds
    the lists on the first read, with the tid objects of ``succ`` and
    the phases."""
    from repro.machine import broadwell
    from repro.sim.engine import run_bsp

    dag = pickle.loads(pickle.dumps(built))
    assert type(dag._pred) is tuple
    (phases,) = dag._bsp_phases.values()
    assert phases._phases is None
    run_bsp(broadwell(), dag, iterations=1)
    assert phases._phases is not None
    assert type(dag._pred) is tuple
    assert dag.pred == built.pred
    assert dag.pred is dag.pred and type(dag._pred) is list
    one = {}
    rows = chain(dag.succ, dag.pred,
                 *((tids, *preds) for tids, _c, preds in phases.phases))
    for v in chain.from_iterable(rows):
        assert one.setdefault(v, v) is v
    assert len(one) > 256


def test_cold_prep_resolves_every_home_once(monkeypatch):
    """The cost model and the schedulers' domain tables read the DAG's
    one home-array memo: one ``home_arrays`` call per cold prep."""
    calls = []
    home_arrays = MemoryModel.home_arrays

    def counting(self):
        calls.append(self)
        return home_arrays(self)

    monkeypatch.setattr(MemoryModel, "home_arrays", counting)
    bs = block_size_for_count(SUITE["inline1"].paper_rows, 64)
    dag = _dag.__wrapped__("inline1", bs, "lanczos", 20, BuildOptions())
    _compile_prep("broadwell", dag)
    assert len(calls) == 1
    assert dag._sched_domains and dag._home_arrays


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_domain_tables_hold_one_tuple_per_distinct_domain_set(
        built, loaded, which):
    assert_one_object_per_value(
        _write_doms(built if which == "built" else loaded))


def test_loaded_adjacency_equals_built_with_one_int_per_tid(built, loaded):
    """Order included; every entry of either list that names a tid is
    the same ``int`` object."""
    assert loaded.succ == built.succ
    assert loaded.pred == built.pred
    one = {}
    for v in chain.from_iterable(chain(loaded.succ, loaded.pred)):
        assert one.setdefault(v, v) is v
    assert len(one) > 256                   # beyond CPython's small ints


def test_add_edge_on_loaded_dag_mutates_its_rebuilt_lists(built, loaded,
                                                          tmp_path):
    """``add_edge`` on a loaded DAG appends to the lists ``__setstate__``
    rebuilt, and the next put/get carries the new edge."""
    store = PrepStore(root=str(tmp_path))
    config = {"kind": "prep-sharing-edge", "n": len(built)}
    store.put(config, {"dag": built})
    dag = store.get(config)["dag"]
    succ, pred = dag.succ, dag.pred
    n_edges = dag.n_edges
    u = next(u for u, vs in enumerate(succ) if len(vs) < len(succ) - u - 1)
    w = next(w for w in range(u + 1, len(succ)) if w not in succ[u])
    dag.add_edge(u, w)
    assert dag.succ is succ and dag.pred is pred
    assert succ[u][-1] == w and pred[w][-1] == u
    assert dag.n_edges == n_edges + 1
    assert built.succ == loaded.succ and w not in built.succ[u]
    store.put(config, {"dag": dag})
    again = store.get(config)["dag"]
    assert again.succ == succ and again.pred == pred


def test_tid_ints_grow_without_losing_an_object():
    """Service threads load artifacts concurrently: every thread that
    asks for tid ``t`` gets the same ``int``, however the table grows."""
    import sys
    import threading

    from repro.graph import dag as dag_module

    seen = []
    start = threading.Barrier(8)

    def grow(k):
        start.wait(timeout=10)
        for n in range(1000 + k, 60000, 7919):
            seen.append(dag_module.tid_ints(n)[:n].tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * len(range(1000, 60000, 7919))
    final = dag_module.tid_ints(60000)
    for tids in seen:
        assert all(a is b for a, b in zip(tids, final))


def test_forked_child_grows_tid_ints_while_parent_holds_the_lock():
    """The service forks pool workers while a prebuild thread may hold
    the tid table's lock; the child must not inherit it held."""
    import os
    import time

    from repro.graph import dag as dag_module

    n = len(dag_module.tid_ints(1)) + 5000
    with dag_module._TID_LOCK:
        pid = os.fork()
        if pid == 0:                                    # child
            ok = len(dag_module.tid_ints(n)) >= n
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on the tid table's lock")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
