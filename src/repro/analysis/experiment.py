"""Experiment driver: one call per (machine, matrix, solver) cell.

Benchmarks for Figs. 8–14 all need the same wiring — full-scale block
census, solver trace, per-version DAG, runtime execution — so it lives
here once.  Censuses, traces, *and built DAGs* are memoized per
process: a sweep over versions or block counts regenerates nothing,
and versions that share a decomposition policy (deepsparse/hpx/regent/
libcsb all default to the same :class:`BuildOptions`) share one DAG
object.  Sharing is safe because execution never mutates a DAG — the
engines read the frozen arrays, ``succ``/``pred`` and the compiled
prep, and keep all mutable state (cache hierarchy, flow records) on
their own side.

Layered over the in-process memos is the cross-process *prep store*
(:mod:`repro.bench.prep`): :func:`_prepped_dag` first tries to load a
persisted artifact — census + built DAG with frozen
structure-of-arrays view, interned tables and compiled access plans,
and no ``Task`` list (a simulation DAG never has one) — and only on a store
miss builds everything, compiles the prep against the target machine,
and writes the artifact through.  With the store disabled
(``REPRO_NO_PREP=1``) it degrades to exactly the old in-process
``lru_cache`` behaviour.

Loading or building a DAG allocates hundreds of thousands of small
objects, and CPython's cyclic collector would rescan them on every
pass, during prep and for the rest of the sweep, without ever finding
garbage: the artifacts are acyclic.  :func:`_prepped_dag` therefore
runs with the collector paused and freezes what it made.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Sequence

from repro.analysis.metrics import SolverComparison
from repro.bench.prep import default_prep_store
from repro.machine.presets import get_machine
from repro.matrices.census import census_for
from repro.matrices.suite import SUITE
from repro.runtime import (
    BSPRuntime,
    DeepSparseRuntime,
    HPXRuntime,
    RegentRuntime,
    build_solver_dag,
    libcsr_partitions,
)
from repro.solvers import lanczos_trace, lobpcg_trace
from repro.tuning.blocksize import block_size_for_count

__all__ = [
    "run_cell", "run_version", "ALL_VERSIONS", "DEFAULT_WIDTHS",
    "prep_config", "prebuild_prep",
]

ALL_VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")

#: Paper vector-block widths: LOBPCG blocks have 8–16 columns.
DEFAULT_WIDTHS = {"lobpcg": 8, "lanczos": 20}  # lanczos: Krylov basis size

#: Prepped DAGs one process keeps alive (the bound of :func:`_prepped_dag`).
MEMO_ENTRIES = 128


#: Censuses adopted from loaded prep artifacts, consulted before
#: building from scratch: a store hit for one solver primes the census
#: for every other cell sharing (matrix, block_size) in this process.
_census_loaded: dict = {}


@lru_cache(maxsize=256)
def _census(matrix: str, block_size: int):
    adopted = _census_loaded.get((matrix, block_size))
    if adopted is not None:
        return adopted
    return census_for(SUITE[matrix], block_size)


@lru_cache(maxsize=256)
def _trace(matrix: str, block_size: int, solver: str, width: int):
    cen = _census(matrix, block_size)
    if solver == "lobpcg":
        return (cen,) + lobpcg_trace(cen, n=width)
    if solver == "lanczos":
        return (cen,) + lanczos_trace(cen, k=width)
    raise ValueError(f"unknown solver {solver!r}")


@lru_cache(maxsize=128)
def _dag(matrix: str, block_size: int, solver: str, width: int, options):
    """One built DAG per (trace, BuildOptions) — shared across runtimes.

    ``BuildOptions`` is a frozen dataclass, hence hashable; versions
    with identical decomposition policies get the *same* DAG object,
    which also lets the cost model reuse its per-task pricing
    invariants (see :meth:`repro.sim.cost.CostModel.prepare`).  Each
    is a simulation DAG, with no ``Task`` list.
    """
    cen, calls, chunked, small = _trace(matrix, block_size, solver, width)
    return build_solver_dag(cen, calls, chunked, small, "A", options)


def prep_config(machine_name: str, matrix: str, block_size: int,
                solver: str, width: int, options,
                first_touch: bool = True) -> dict:
    """Content-address config of one prep artifact.

    The machine is part of the key because compiled access plans embed
    machine constants (cache capacities, line costs); ``options`` is a
    frozen :class:`~repro.graph.builder.BuildOptions`, keyed by its
    (deterministic) dataclass repr.
    """
    return {
        "kind": "prep",
        "machine": machine_name,
        "matrix": matrix,
        "block_size": int(block_size),
        "solver": solver,
        "width": int(width),
        "options": repr(options),
        "first_touch": bool(first_touch),
    }


def _compile_prep(machine_name: str, dag, first_touch: bool = True):
    """Compile every reusable per-run invariant onto the DAG.

    Runs the executors' own setup (:func:`repro.sim.engine._prepare_run`:
    memory geometry, partition count, compiled plans), then the
    scheduler domain tables, against a throwaway memory/cache stack,
    so the artifact a worker loads carries the same
    ``_cost_prep``/``_home_arrays``/``_sched_domains`` a live run
    would have produced.
    """
    from repro.machine.cache import CacheHierarchy
    from repro.machine.memory import MemoryModel
    from repro.sim.cost import CostModel
    from repro.sim.engine import _prepare_run
    from repro.sim.schedulers import _domain_tables

    machine = get_machine(machine_name)
    memory = MemoryModel(machine, first_touch=first_touch)
    _prepare_run(dag, CostModel(machine, CacheHierarchy(machine), memory))
    _domain_tables(dag, memory)


@contextmanager
def _collector_paused():
    """Pause the cyclic collector; on success, freeze what was made.

    Only a region that found the collector enabled touches it, so a
    caller's own ``gc.disable()`` holds, and concurrent regions on
    service threads always leave it enabled.  Pausing alone would
    only defer the scans into the sweep; ``gc.freeze()`` (O(1)) takes
    the finished DAG out of every later pass.  A failed build is not
    frozen: its debris stays collectable.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    except BaseException:
        if enabled:
            gc.enable()
        raise
    if enabled:
        gc.freeze()
        gc.enable()


@lru_cache(maxsize=MEMO_ENTRIES)
def _prepped_dag(machine_name: str, matrix: str, block_size: int,
                 solver: str, width: int, options,
                 first_touch: bool = True):
    """One executable DAG per cell subkey, via the prep store.

    Store hit: the loaded DAG arrives with its frozen SoA view,
    interned tables and compiled plans, and no ``Task`` list — no trace, no builder, no plan compile; the
    artifact's census also primes :func:`_census` for sibling cells.
    Store miss (or store disabled): build through the in-process
    memos; on a miss with the store enabled, compile the prep and write
    the artifact through so the *next* process (or pool worker) loads
    it.  Both paths run under :func:`_collector_paused`.
    """
    with _collector_paused():
        store = default_prep_store()
        if not store.enabled:
            return _dag(matrix, block_size, solver, width, options)
        config = prep_config(machine_name, matrix, block_size, solver,
                             width, options, first_touch)
        artifact = store.get(config)
        if artifact is not None:
            _census_loaded.setdefault((matrix, block_size),
                                      artifact["census"])
            return artifact["dag"]
        dag = _dag(matrix, block_size, solver, width, options)
        _compile_prep(machine_name, dag, first_touch)
        store.put(config, {"config": config,
                           "census": _census(matrix, block_size),
                           "dag": dag})
        return dag


def prebuild_prep(machine_name: str, matrix: str, solver: str,
                  version: str, block_count: int = 64,
                  width: int = None, first_touch: bool = True,
                  options=None) -> dict:
    """Ensure the prep artifact for one cell exists; returns its config.

    Used by :class:`repro.bench.runner.ExperimentRunner` to build each
    distinct artifact once in the parent before pool workers fan out,
    and by the ``repro prep build`` CLI.
    """
    machine = get_machine(machine_name)
    spec = SUITE[matrix]
    width = width or DEFAULT_WIDTHS[solver]
    if version == "libcsr":
        bs = libcsr_partitions(machine, spec.paper_rows)
    else:
        bs = block_size_for_count(spec.paper_rows, block_count)
    if options is None:
        options = _make_runtime(version, machine, first_touch, 0).options
    _prepped_dag(machine_name, matrix, bs, solver, width, options,
                 first_touch)
    return prep_config(machine_name, matrix, bs, solver, width, options,
                       first_touch)


def _make_runtime(version: str, machine, first_touch: bool, seed: int,
                  **overrides):
    if version == "libcsr":
        return BSPRuntime(machine, "libcsr", first_touch, seed)
    if version == "libcsb":
        return BSPRuntime(machine, "libcsb", first_touch, seed)
    if version == "deepsparse":
        return DeepSparseRuntime(machine, first_touch, seed, **overrides)
    if version == "hpx":
        return HPXRuntime(machine, first_touch, seed, **overrides)
    if version == "regent":
        return RegentRuntime(machine, first_touch, seed, **overrides)
    raise ValueError(f"unknown version {version!r}")


def run_version(
    machine_name: str,
    matrix: str,
    solver: str,
    version: str,
    block_count: int = 64,
    iterations: int = 2,
    width: int = None,
    first_touch: bool = True,
    seed: int = 0,
    options=None,
    tracer=None,
    record_flow: bool = True,
    **runtime_overrides,
):
    """Run one solver version and return its :class:`RunResult`.

    ``libcsr`` ignores ``block_count`` — its granularity is one row
    chunk per core, per the MKL/CSR baseline definition.

    ``tracer`` (optional :class:`repro.trace.Tracer`) attaches the
    observability layer to the execution; simulated numbers are
    bit-identical with or without it.  ``record_flow=False`` drops the
    per-task flow records (the flow summary is folded either way).
    """
    machine = get_machine(machine_name)
    spec = SUITE[matrix]
    if solver not in DEFAULT_WIDTHS:
        raise ValueError(f"unknown solver {solver!r}")
    width = width or DEFAULT_WIDTHS[solver]
    if version == "libcsr":
        bs = libcsr_partitions(machine, spec.paper_rows)
    else:
        bs = block_size_for_count(spec.paper_rows, block_count)
    rt = _make_runtime(version, machine, first_touch, seed,
                       **runtime_overrides)
    if options is not None:
        rt.options = options
    dag = _prepped_dag(machine_name, matrix, bs, solver, width,
                       rt.options, first_touch)
    return rt.execute(dag, iterations=iterations, tracer=tracer,
                      record_flow=record_flow)


def run_cell(
    machine_name: str,
    matrix: str,
    solver: str,
    block_count: int = 64,
    iterations: int = 2,
    width: int = None,
    versions: Sequence[str] = ALL_VERSIONS,
    first_touch: bool = True,
) -> SolverComparison:
    """All requested versions of one evaluation cell, libcsr included."""
    versions = list(versions)
    if "libcsr" not in versions:
        versions = ["libcsr"] + versions
    results: Dict[str, object] = {}
    for v in versions:
        results[v] = run_version(
            machine_name, matrix, solver, v,
            block_count=block_count, iterations=iterations,
            width=width, first_touch=first_touch,
        )
    return SolverComparison(matrix, solver, machine_name, results)
