"""Experiment orchestration: grid expansion, on-disk caching, parallel runs.

Every figure of the paper is a grid of simulated cells
(machine × matrix × solver × version × block count).  This package is
the substrate all of them run through:

* :mod:`repro.bench.cache` — a content-addressed, process-safe result
  store keyed by the full cell config plus a cost-model version salt.
* :mod:`repro.bench.prep` — the compiled-prep store: persisted census
  + DAG + access-plan artifacts, so cold sweeps build each distinct
  prep once and everything else (workers, later processes) loads it.
* :mod:`repro.bench.runner` — :class:`ExperimentRunner`: expands grid
  specs, dedupes cells, serves hits from the cache, prebuilds prep
  artifacts, and fans misses out over a process pool with
  deterministic result ordering.
* :mod:`repro.bench.pool` — :class:`~repro.bench.pool.WarmPool`, the one
  failure policy (charged retries, per-cell timeouts, uncharged pool
  rebuilds, inline degradation) shared by the runner, ``repro bench
  --trace`` and ``repro serve``.  ``repro.bench`` never imports
  ``repro.serve``: it is the lower layer.

Environment knobs (read at cache construction):

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache/``).
* ``REPRO_NO_CACHE=1`` — disable the on-disk result cache entirely.
* ``REPRO_PREP_DIR`` — prep-store root (default ``<cache root>/prep``).
* ``REPRO_NO_PREP=1`` — disable the prep store.
* ``REPRO_BENCH_JOBS`` — default worker-process count.
"""

from repro.bench.cache import ResultCache, cache_key, default_cache
from repro.bench.prep import PrepStore, default_prep_store
from repro.bench.runner import (
    Cell,
    DEFAULT_BLOCK_COUNT,
    DEFAULT_MATRICES,
    ExperimentRunner,
    REGENT_BLOCK_COUNT,
    SweepError,
    WorkerFailure,
    expand_grid,
    run_cell_config,
)

__all__ = [
    "Cell",
    "DEFAULT_BLOCK_COUNT",
    "DEFAULT_MATRICES",
    "ExperimentRunner",
    "PrepStore",
    "REGENT_BLOCK_COUNT",
    "ResultCache",
    "SweepError",
    "WorkerFailure",
    "cache_key",
    "default_cache",
    "default_prep_store",
    "expand_grid",
    "run_cell_config",
]
