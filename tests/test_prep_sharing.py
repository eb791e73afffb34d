"""One object per repeated value in a prepped DAG, built or loaded.

The compiled plans share one touch tuple per distinct touch of their
DAG, and the schedulers' domain tables one ``write_doms`` tuple per
distinct domain set; pickle memoizes tuples, so a DAG that went
through the prep store shares them the same way.  Pickle does not
memoize ints: ``succ``/``pred`` travel as CSR arrays and come back as
lists that hold one ``int`` object per tid.
"""

from itertools import chain

import pytest

from repro.analysis.experiment import _compile_prep, _dag
from repro.bench.prep import PrepStore
from repro.graph.builder import BuildOptions
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


def _touches(dag) -> list:
    (plans,) = dag._cost_prep.values()
    return [t for _compute, touches, _gather in plans for t in touches]


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
