"""Perf guard for the simulator hot path and the result cache.

Seven measurements, all recorded in a machine-readable
``BENCH_sim.json`` (schema 2) at the repo root so the performance
trajectory is tracked across PRs:

1. **charge microbench** — ``CostModel.charge`` throughput over a
   prepared paper-scale DAG (the innermost simulator operation).
2. **Fig. 9 Broadwell cold set** — the default 8-matrix × 5-version
   Lanczos grid, cold result cache, single process.  Round 1 runs
   against a *fresh* prep store (cold prep: builds census/DAG/plans
   and writes the artifacts through); rounds 2–3 clear every
   in-process memo and reload from the store (warm prep), so the
   committed JSON shows both the cold-prep wall time and the
   store-served one.  The committed ``SEED_REFERENCE`` is the wall
   time of the *pre-optimization* engine on the same loop (best of 3,
   measured on the same container before the hot-path work); the
   guard asserts we stay ≥ 1.8× under it and ≥ 1.4× under the PR 5
   best (the state before the SoA DAG core + prep store), and that
   all three rounds are bit-identical — loading a prep artifact must
   change nothing but the clock.  The ``prep_store`` JSON section
   records hit rate and cold vs warm seconds.
3. **EPYC 128-core cold cell** — one cold Fig. 9-style cell on the
   big machine (the manycore half of the paper).
4. **traced cell** — a steady-state-disabled multi-iteration cell run
   untraced (fused ``_charge_bare`` walk) and traced (every charge
   through ``CacheHierarchy.access``, the walk's oracle).  The guard
   asserts the summaries are identical; both wall times and the
   traced/untraced ratio are recorded — no slowdown ceiling, the
   recorded ratio is the tracking signal.
5. **steady-state fast path** — a Fig. 9-style cell at solver-realistic
   iteration counts must run ≥ 5× faster with the iteration-replay
   fast path than with ``REPRO_NO_STEADY_STATE=1`` full simulation
   (recorded; asserted at a noise-tolerant 3.5×), bit-identically.
6. **fault-sweep cell** — one seeded core-loss plan over BSP and the
   AMT runtimes: bit-identical on repeat, empty plan observationally
   free, and the recovery-latency separation (BSP stalls, AMT absorbs)
   recorded per version.
7. **warm-cache speedup** — the same set served from the on-disk
   result cache must be ≥ 10× faster and bit-identical.

Timing tests are inherently noisy on shared machines; each guard uses
best-of-N and conservative thresholds (the recorded numbers, not the
thresholds, are the tracking signal).
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.common import emit

#: Wall seconds of the seed (pre-optimization) engine simulating the
#: Fig. 9 Broadwell cell set — best of 3 on this container, measured
#: from a pristine checkout immediately before the hot-path changes.
SEED_REFERENCE_SECONDS = 3.73

#: Same-container reference numbers committed by PR 3 (the state of
#: the hot path before this PR's compiled access plans), so the JSON
#: shows this PR's delta, not just the cumulative speedup over seed.
PR3_REFERENCE = {
    "fig9_broadwell_cold_seconds": 1.9721,
    "charges_per_second": 129910.88,
}

#: Same-container best-of-3 committed by PR 5 (compiled access plans +
#: charge memo, before the SoA DAG core and the prep store), the
#: baseline this PR's ≥ 1.4× floor is measured against.
PR5_REFERENCE = {
    "fig9_broadwell_cold_seconds": 2.0139,
}

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sim.json",
)

FIG9_MATRICES = ["inline1", "Flan_1565", "Queen4147", "Nm7",
                 "nlpkkt160", "nlpkkt240", "twitter7", "webbase-2001"]
FIG9_VERSIONS = ["libcsr", "libcsb", "deepsparse", "hpx", "regent"]


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_sim.json (tests run independently)."""
    data = {"schema": 2, "seed_reference": {
        "fig9_broadwell_cold_seconds": SEED_REFERENCE_SECONDS,
        "methodology": "best of 3, single process, cold result cache",
    }, "pr3_reference": dict(PR3_REFERENCE)}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH, "r", encoding="utf-8") as f:
                data.update(json.load(f))
        except (ValueError, OSError):
            pass
    # A stale schema-1 file on disk must not win the merge.
    data["schema"] = 2
    data["pr3_reference"] = dict(PR3_REFERENCE)
    data[section] = payload
    with open(BENCH_PATH, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _clear_experiment_memos() -> None:
    """Reset the per-process census/trace/DAG/prep memos (true cold run)."""
    from repro.analysis import experiment

    experiment._census.cache_clear()
    experiment._trace.cache_clear()
    experiment._dag.cache_clear()
    experiment._prepped_dag.cache_clear()
    experiment._census_loaded.clear()


def _run_fig9_broadwell_cold():
    """One in-process-cold pass over the Fig. 9 Broadwell grid.

    Returns ``(seconds, summaries)`` — the summaries let the caller
    assert prep-store-served rounds are bit-identical to built ones.
    """
    from repro.analysis.experiment import run_version
    from repro.bench.runner import DEFAULT_BLOCK_COUNT, REGENT_BLOCK_COUNT

    _clear_experiment_memos()
    bc = DEFAULT_BLOCK_COUNT["broadwell"]
    rbc = REGENT_BLOCK_COUNT["broadwell"]
    results = []
    t0 = time.perf_counter()
    for matrix in FIG9_MATRICES:
        for version in FIG9_VERSIONS:
            results.append(run_version(
                "broadwell", matrix, "lanczos", version,
                block_count=rbc if version == "regent" else bc,
                iterations=2,
            ))
    dt = time.perf_counter() - t0
    # Summaries feed the bit-identity check, not the wall time: the
    # seed/PR3/PR5 references timed exactly this run_version loop.
    return dt, [r.summary().to_dict() for r in results]


# ----------------------------------------------------------------------
def test_charge_microbench(benchmark):
    """Throughput of the innermost pricing operation."""
    from repro.analysis.experiment import _dag
    from repro.machine.cache import CacheHierarchy
    from repro.machine.memory import MemoryModel
    from repro.machine.presets import get_machine
    from repro.matrices.suite import SUITE
    from repro.sim.cost import CostModel
    from repro.tuning.blocksize import block_size_for_count
    from repro.graph.builder import BuildOptions

    machine = get_machine("broadwell")
    bs = block_size_for_count(SUITE["Queen4147"].paper_rows, 48)
    dag = _dag("Queen4147", bs, "lanczos", 20,
               BuildOptions(skip_empty=True, spmm_mode="dependency"))
    cost = CostModel(machine, CacheHierarchy(machine),
                     MemoryModel(machine))
    # Untraced, so this measures the compiled bare walk the grids run;
    # the traced (access) path has its own guard (test_traced_cell).
    cost.prepare(dag)
    tasks = dag.tasks
    n_cores = machine.n_cores

    def charge_all():
        charge = cost.charge
        for tid in range(len(tasks)):
            charge(tid, tid % n_cores)
        return len(tasks)

    n = benchmark(charge_all)
    per_sec = n / benchmark.stats.stats.mean
    emit(f"CostModel.charge: {len(tasks)} tasks, "
         f"{per_sec / 1e3:.1f}k charges/s")
    _record("charge_microbench", {
        "dag_tasks": len(tasks),
        "mean_seconds_per_pass": benchmark.stats.stats.mean,
        "charges_per_second": per_sec,
        "speedup_vs_pr3": per_sec / PR3_REFERENCE["charges_per_second"],
    })
    assert per_sec > 10_000  # sanity floor, ~30x below current speed


def test_fig9_broadwell_cold_set(benchmark, tmp_path, monkeypatch):
    """End-to-end guard: ≥ 1.8× under seed, ≥ 1.4× under the PR 5 best.

    Round 1 faces an empty prep store (cold prep: every census, DAG,
    and compiled plan is built and persisted); rounds 2–3 clear the
    in-process memos and are served from the store.  All rounds must
    be bit-identical — the prep store may only move time, never
    numbers.
    """
    from repro.bench.prep import default_prep_store

    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    rounds, sums = [], []

    def one_round():
        dt, summaries = _run_fig9_broadwell_cold()
        rounds.append(dt)
        sums.append(summaries)
        return dt

    benchmark.pedantic(one_round, rounds=3, iterations=1)
    store = default_prep_store()
    st = store.stats()
    best = min(rounds)
    cold_prep_s = rounds[0]
    warm_prep_s = min(rounds[1:])
    identical = all(s == sums[0] for s in sums[1:])
    hit_rate = st["hits"] / max(1, st["hits"] + st["misses"])
    speedup = SEED_REFERENCE_SECONDS / best
    pr5_speedup = PR5_REFERENCE["fig9_broadwell_cold_seconds"] / best
    emit(f"Fig. 9 Broadwell cold set: best {best:.2f}s of {rounds} "
         f"(seed {SEED_REFERENCE_SECONDS:.2f}s, {speedup:.2f}x; "
         f"prep cold {cold_prep_s:.2f}s / warm {warm_prep_s:.2f}s, "
         f"hit rate {hit_rate:.0%})")
    _record("fig9_broadwell_cold", {
        "rounds_seconds": rounds,
        "best_seconds": best,
        "cold_prep_seconds": cold_prep_s,
        "seed_seconds": SEED_REFERENCE_SECONDS,
        "speedup_vs_seed": speedup,
        "pr3_best_seconds": PR3_REFERENCE["fig9_broadwell_cold_seconds"],
        "speedup_vs_pr3": (PR3_REFERENCE["fig9_broadwell_cold_seconds"]
                           / best),
        "pr5_best_seconds": PR5_REFERENCE["fig9_broadwell_cold_seconds"],
        "speedup_vs_pr5": pr5_speedup,
        "cells": len(FIG9_MATRICES) * len(FIG9_VERSIONS),
    })
    _record("prep_store", {
        "cold_seconds": cold_prep_s,
        "warm_seconds": warm_prep_s,
        "warm_speedup_vs_cold": cold_prep_s / max(warm_prep_s, 1e-9),
        "hits": st["hits"],
        "misses": st["misses"],
        "writes": st["writes"],
        "hit_rate": hit_rate,
        "bit_identical": identical,
    })
    assert identical, "prep-store-served rounds diverged from built ones"
    assert st["hits"] > 0 and st["writes"] > 0
    # Noise-tolerant hard floors; the committed JSON shows real ratios.
    assert speedup >= 1.8, (
        f"hot path regressed: {best:.2f}s vs seed "
        f"{SEED_REFERENCE_SECONDS:.2f}s ({speedup:.2f}x < 1.8x)"
    )
    assert pr5_speedup >= 1.4, (
        f"SoA + prep store under floor: {best:.2f}s vs PR 5 "
        f"{PR5_REFERENCE['fig9_broadwell_cold_seconds']:.2f}s "
        f"({pr5_speedup:.2f}x < 1.4x)"
    )


def test_epyc_cold_cell(monkeypatch):
    """One cold Fig. 9-style cell on the 128-core EPYC machine.

    The manycore half of the paper's evaluation: a large matrix on the
    2×64-core preset, cold memos.  The prep store is disabled so this
    stays a true everything-from-scratch build, the one configuration
    no other timing guard covers.
    """
    from repro.analysis.experiment import run_version

    monkeypatch.setenv("REPRO_NO_PREP", "1")
    from repro.bench.runner import DEFAULT_BLOCK_COUNT

    _clear_experiment_memos()
    t0 = time.perf_counter()
    res = run_version("epyc", "Queen4147", "lanczos", "deepsparse",
                      block_count=DEFAULT_BLOCK_COUNT["epyc"],
                      iterations=2)
    dt = time.perf_counter() - t0
    emit(f"EPYC cold cell: {dt:.2f}s on {res.n_cores} cores, "
         f"{res.counters.tasks_executed} tasks")
    _record("epyc_cold_cell", {
        "cell": {"machine": "epyc", "matrix": "Queen4147",
                 "solver": "lanczos", "version": "deepsparse",
                 "block_count": DEFAULT_BLOCK_COUNT["epyc"],
                 "iterations": 2},
        "seconds": dt,
        "n_cores": res.n_cores,
        "tasks_executed": res.counters.tasks_executed,
    })
    assert res.n_cores == 128
    assert res.counters.tasks_executed > 0


def test_traced_cell(monkeypatch):
    """Traced vs untraced: same numbers, recorded cost of tracing.

    A traced run prices every charge through
    :meth:`CacheHierarchy.access` (the trace hook sees each operand
    touch), an untraced one through the fused ``_charge_bare`` walk.
    With the steady-state replay off every iteration is simulated, so
    the two wall times compare the walks plus the tracer's own work.
    The guard asserts the summaries are identical and records both
    times; no slowdown ceiling — the recorded ratio is the signal.
    """
    from repro.analysis.experiment import run_version
    from repro.trace import InMemorySink, Tracer

    cell = dict(machine="broadwell", matrix="Queen4147", solver="lanczos",
                version="deepsparse", block_count=48, iterations=6)

    def best_of(n, traced):
        best = res = None
        for _ in range(n):
            tracer = Tracer(InMemorySink()) if traced else None
            t0 = time.perf_counter()
            res = run_version(cell["machine"], cell["matrix"],
                              cell["solver"], cell["version"],
                              block_count=cell["block_count"],
                              iterations=cell["iterations"],
                              tracer=tracer)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, res

    monkeypatch.setenv("REPRO_NO_STEADY_STATE", "1")
    # Warm the census/trace/DAG memos so both runs time simulation only.
    run_version(cell["machine"], cell["matrix"], cell["solver"],
                cell["version"], block_count=cell["block_count"],
                iterations=1)
    untraced_s, untraced = best_of(2, traced=False)
    traced_s, traced = best_of(2, traced=True)

    identical = (traced.summary().to_dict()
                 == untraced.summary().to_dict())
    ratio = traced_s / max(untraced_s, 1e-9)
    emit(f"traced cell: untraced {untraced_s:.3f}s / traced "
         f"{traced_s:.3f}s ({ratio:.2f}x), identical: {identical}")
    _record("traced_cell", {
        "cell": cell,
        "untraced_seconds": untraced_s,
        "traced_seconds": traced_s,
        "traced_over_untraced": ratio,
        "identical": identical,
    })
    assert identical


def test_steady_state_speedup(monkeypatch):
    """Multi-iteration fast path: ≥ 5× on a Fig. 9-style cell (recorded;
    the hard floor is a noise-tolerant 3.5×), bit-identical results.

    Iterative solver benchmarks reuse one DAG for tens of iterations;
    once the engine detects the machine/scheduler state fixed point it
    replays the iteration tape instead of re-simulating
    (``repro.sim.engine``, DESIGN.md "Steady-state iteration fast
    path").  ``REPRO_NO_STEADY_STATE=1`` is the kill-switch and the
    full-simulation baseline here.
    """
    from repro.analysis.experiment import run_version

    cell = dict(machine="broadwell", matrix="Queen4147", solver="lanczos",
                version="deepsparse", block_count=48, iterations=64)

    def one_run():
        return run_version(cell["machine"], cell["matrix"], cell["solver"],
                           cell["version"], block_count=cell["block_count"],
                           iterations=cell["iterations"])

    # Warm the census/trace/DAG memos so both paths time simulation only.
    run_version(cell["machine"], cell["matrix"], cell["solver"],
                cell["version"], block_count=cell["block_count"],
                iterations=1)

    def best_of(n):
        best = None
        res = None
        for _ in range(n):
            t0 = time.perf_counter()
            res = one_run()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, res

    monkeypatch.setenv("REPRO_NO_STEADY_STATE", "1")
    full_s, full = best_of(2)
    monkeypatch.delenv("REPRO_NO_STEADY_STATE")
    fast_s, fast = best_of(2)

    assert full.steady_state_at is None
    assert fast.steady_state_at is not None
    fd = full.summary().to_dict()
    qd = fast.summary().to_dict()
    fd.pop("steady_state_at")
    qd.pop("steady_state_at")
    identical = fd == qd
    speedup = full_s / max(fast_s, 1e-9)
    emit(f"steady state: full {full_s:.3f}s -> fast {fast_s:.3f}s "
         f"({speedup:.2f}x), detected at iteration "
         f"{fast.steady_state_at}, bit-identical: {identical}")
    _record("steady_state", {
        "cell": cell,
        "full_sim_seconds": full_s,
        "fast_path_seconds": fast_s,
        "speedup": speedup,
        "steady_state_at": fast.steady_state_at,
        "bit_identical": identical,
    })
    assert identical
    assert speedup >= 3.5


def test_fault_sweep_cell():
    """Deterministic fault injection, recorded for the trajectory.

    One seeded core-loss plan over the BSP baseline and the two AMT
    runtimes pins the three promises of the fault layer: a repeated run
    is bit-identical (the plan is the only randomness), an *empty* plan
    is observationally free (healthy numbers untouched), and the
    per-runtime recovery policies separate — BSP's barrier absorbs the
    dead lane's share serially while work stealing / queue
    redistribution barely notice.
    """
    from repro.analysis.experiment import run_version
    from repro.faults import FaultPlan

    plan = FaultPlan.from_spec("core-loss", seed=0)
    versions = ("libcsb", "deepsparse", "hpx")

    def cell(version, faults=None):
        return run_version("broadwell", "inline1", "lanczos", version,
                           block_count=48, iterations=8, faults=faults)

    t0 = time.perf_counter()
    faulted = {v: cell(v, plan) for v in versions}
    dt = time.perf_counter() - t0
    healthy = {v: cell(v) for v in versions}
    repeat = cell("libcsb", plan)
    deterministic = (repeat.summary().to_dict()
                     == faulted["libcsb"].summary().to_dict())
    empty_free = (cell("libcsb", FaultPlan.empty()).summary().to_dict()
                  == healthy["libcsb"].summary().to_dict())

    per_version = {}
    for v in versions:
        fr = faulted[v].fault_report
        per_version[v] = {
            "slowdown": faulted[v].total_time / healthy[v].total_time,
            "recovery_latency_us": (None if fr.recovery_latency is None
                                    else fr.recovery_latency * 1e6),
            "stall_ms": fr.stall_time * 1e3,
            "policy": fr.policy,
        }
    lat = {v: per_version[v]["recovery_latency_us"] for v in versions}
    emit(f"fault sweep (core-loss seed 0): {dt:.2f}s, latency µs "
         + ", ".join(f"{v} {lat[v]:.0f}" for v in versions)
         + f", deterministic: {deterministic}")
    _record("fault_sweep", {
        "cell": {"machine": "broadwell", "matrix": "inline1",
                 "solver": "lanczos", "block_count": 48,
                 "iterations": 8},
        "spec": "core-loss",
        "seed": 0,
        "seconds": dt,
        "bit_identical_repeat": deterministic,
        "empty_plan_observationally_free": empty_free,
        "versions": per_version,
    })
    assert deterministic
    assert empty_free
    # The headline separation: BSP stalls, the AMT runtimes absorb.
    assert lat["libcsb"] > 5 * abs(lat["deepsparse"])
    assert lat["libcsb"] > 5 * abs(lat["hpx"])
    assert per_version["libcsb"]["stall_ms"] > 0
    assert per_version["deepsparse"]["stall_ms"] == 0
    assert per_version["hpx"]["stall_ms"] == 0


def test_warm_cache_speedup(tmp_path):
    """Disk-cache replay: ≥ 10× faster, bit-identical summaries."""
    from repro.bench.cache import ResultCache
    from repro.bench.runner import ExperimentRunner, expand_grid

    cells = expand_grid(machines=["broadwell"], matrices=FIG9_MATRICES,
                        solvers=["lanczos"], versions=FIG9_VERSIONS,
                        iterations=2)
    cache_root = str(tmp_path / "cache")

    _clear_experiment_memos()
    cold_runner = ExperimentRunner(cache=ResultCache(root=cache_root))
    t0 = time.perf_counter()
    cold = cold_runner.run_cells(cells)
    cold_s = time.perf_counter() - t0

    warm_runner = ExperimentRunner(cache=ResultCache(root=cache_root))
    t0 = time.perf_counter()
    warm = warm_runner.run_cells(cells)
    warm_s = time.perf_counter() - t0

    assert all(not r["cached"] for r in cold_runner.report)
    assert all(r["cached"] for r in warm_runner.report)
    identical = [a.to_dict() for a in warm] == [
        b.summary().to_dict() for b in cold]
    speedup = cold_s / max(warm_s, 1e-9)
    emit(f"warm cache: cold {cold_s:.2f}s -> warm {warm_s * 1e3:.0f}ms "
         f"({speedup:.0f}x), bit-identical: {identical}")
    _record("warm_cache", {
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": speedup,
        "bit_identical": identical,
    })
    assert identical
    assert speedup >= 10.0
