"""Run one workload for a time budget and reduce it to metrics.

Simulator workloads run as a loop of fresh worker processes
(:mod:`.worker`), one at a time, each pinned to the next CPU in turn
and sweeping its cells once.  The service workload boots
``repro serve --jobs 1`` once per round with a fresh result cache and
loads it with the repository's own load harness
(``repro.serve.load.run_load``).  Times are in reference seconds
(:mod:`.refclock`).

A metric is returned as ``{"value", "q1", "q3", "n"}``: the median of
one sample per worker process or service round, with the quartiles and
the count of those same samples.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

from benchmarks.e2e import refclock
from benchmarks.e2e.workloads import (
    LOAD_DUP_FRACTION,
    LOAD_REQUESTS,
    LOAD_THREADS,
    Workload,
    shuffled,
    summary_digest,
    workload_digest,
)

#: A worker or daemon that takes longer than this is killed and failed.
CHILD_TIMEOUT_S = 150.0


def stat(values) -> dict:
    """Median with quartiles and sample count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    else:
        q1 = mid = q3 = values[0]
    return {"value": mid, "q1": q1, "q3": q3, "n": len(values)}


class Context:
    """Working directory, CPUs and the failure ledger of one run."""

    def __init__(self, root: Path, expected: dict, smoke: bool):
        self.root = root
        self.expected = expected
        self.smoke = smoke
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self._workers = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir()
        return path

    def ops(self, attempted: int, failed: int, error: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 20:
            self.errors.append(error)

    def op(self, ok: bool, error: str = "") -> None:
        self.ops(1, 0 if ok else 1, error)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()    # unless another run is using it
        except OSError:
            pass

    # -- workers ---------------------------------------------------------
    def run_worker(self, workload: str, cells, prep_dir: Path,
                   sweep: bool = True, trace: bool = False):
        """One fresh worker process, pinned to the next CPU in turn so
        every CPU is sampled; ``None`` if it failed."""
        self._workers += 1
        job = {"workload": workload, "sweep": sweep, "trace": trace,
               "cpu": self.cpus[self._workers % len(self.cpus)],
               "cells": [[c.label(), c.config()] for c in cells]}
        env = dict(os.environ, REPRO_PREP_DIR=str(prep_dir),
                   REPRO_CACHE_DIR=str(self.work / "results"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.worker"],
            cwd=self.root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(job),
                                        timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.op(False, f"{workload}: worker timed out")
            return None
        if proc.returncode != 0 or not out.strip():
            tail = err.strip().splitlines()[-1:] or ["no output"]
            self.op(False, f"{workload}: worker rc={proc.returncode}: "
                           f"{tail[0]}")
            return None
        res = json.loads(out.strip().splitlines()[-1])
        self.op(True)   # the setup
        for lab, digest in res["digests"].items():
            want = self.expected["cells"].get(lab)
            self.op(digest == want, f"{workload}: {lab} digest "
                                    f"{digest[:12]} != expected "
                                    f"{str(want)[:12]}")
        return res


def _check_workload_digest(ctx: Context, wl: Workload, res: dict) -> None:
    if len(res["digests"]) != len(wl.cells):
        return   # smoke subset: per-cell digests were checked
    got = workload_digest(res["digests"])
    want = ctx.expected["workloads"].get(wl.name)
    ctx.op(got == want, f"{wl.name}: workload digest {got[:12]} != "
                        f"expected {str(want)[:12]}")


def _cells_for(ctx: Context, wl: Workload):
    return wl.cells[:2] if ctx.smoke else wl.cells


def _warm_store(ctx: Context, wl_name: str, cells, trace: bool = False):
    """Fill a prep store once, outside timing -> (store, worker result)."""
    prep = ctx.fresh_dir("prep")
    return prep, ctx.run_worker(wl_name, cells, prep, sweep=False,
                                trace=trace)


# ----------------------------------------------------------------------
# simulator workloads
def _sim_loop(ctx: Context, wl: Workload, cells, rng, deadline: float,
              warm: Optional[Path], alternate: bool = False) -> List[dict]:
    """Fresh untraced workers until the deadline (at least one; with
    ``alternate``, untraced/traced pairs, at least one pair)."""
    results = []
    while True:
        for traced in ((False, True) if alternate else (False,)):
            prep = warm if warm is not None else ctx.fresh_dir("prep")
            res = ctx.run_worker(wl.name, shuffled(cells, rng), prep,
                                 trace=traced)
            if warm is None:
                shutil.rmtree(prep, ignore_errors=True)
            if res is not None:
                res["traced"] = traced
                results.append(res)
                _check_workload_digest(ctx, wl, res)
        if ctx.smoke or time.perf_counter() >= deadline or not results:
            return results


def _sweep_s(res: dict, clock: int = 1) -> float:
    """One worker's sweep in wall (0) or reference (1) seconds."""
    return sum(t[clock] for t in res["sweep"].values())


def sim_metrics(results: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics in reference seconds, one sample per worker."""
    setups = [r["setup"][1] for r in results]
    sweeps = [_sweep_s(r) for r in results]
    tasks = sum(results[0]["tasks"].values())
    return {
        "setup_s": stat(setups),
        "wall_s": stat(s + w for s, w in zip(setups, sweeps)),
        "ops_per_s": stat(tasks / w for w in sweeps),
        "peak_rss_mb": stat(r["rss_mb"] for r in results),
    }


def run_sim(ctx: Context, wl: Workload, seed: int, seconds: float):
    rng = random.Random(seed)
    cells = _cells_for(ctx, wl)
    warm = _warm_store(ctx, wl.name, cells)[0] if wl.prep == "warm" else None
    deadline = time.perf_counter() + seconds
    results = _sim_loop(ctx, wl, cells, rng, deadline, warm)
    return sim_metrics(results) if results else {}


#: Layers only a cold build runs.  On a warm workload they come from
#: the traced build that fills the store outside timing, so they read
#: what that workload's prep costs to build, not part of its setup_s.
BUILD_LAYERS = ("matrices.census", "solvers.trace", "graph.build",
                "bench.prep.put")


def layer_metrics(results: List[dict],
                  fill: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer numbers from alternating untraced/traced workers (and
    from the traced ``fill`` of a warm store)."""
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    if not traced or not plain:
        return {}

    def wall(r, clock=0):
        """Setup plus sweep in wall (0) or reference (1) seconds."""
        return r["setup"][clock] + _sweep_s(r, clock)

    per_worker = []
    for r in traced:
        layers = r["layers"]
        tasks = sum(r["tasks"].values())

        def total(name, field="total_s"):
            return layers.get(name, {}).get(field, 0)

        def ratio(name):
            calls = total(name, "calls")
            return total(name, "hits") / calls if calls else 0

        row = {f"{name}.s": total(name) for name in (
            "matrices.census", "solvers.trace", "graph.build",
            "graph.freeze", "sim.cost.prepare", "sim.schedulers.prepare",
            "bench.prep.put", "bench.prep.get", "sim.cost.charge",
            "sim.schedulers.pick", "sim.engine.run",
            "sim.flowgraph.record", "sim.engine.summary")}
        row.update({
            "bench.prep.get.calls": total("bench.prep.get", "calls"),
            "bench.prep.bytes_read": r["prep_bytes_read"],
            "bench.prep.hit_ratio": ratio("bench.prep.get"),
            "sim.cost.charge.calls": total("sim.cost.charge", "calls"),
            "sim.cost.charged_task_frac":
                total("sim.cost.charge", "calls") / tasks,
            "sim.schedulers.pick.calls": total("sim.schedulers.pick",
                                               "calls"),
            "sim.schedulers.pick.hit_ratio": ratio("sim.schedulers.pick"),
            "sim.engine.self.s": total("sim.engine.run", "self_s"),
            "e2e.setup.self.s": total("e2e.setup", "self_s"),
            "e2e.cell.self.s": total("e2e.cell", "self_s"),
            "trace.self_sum_frac":
                sum(v["self_s"] for v in layers.values()) / wall(r),
        })
        per_worker.append(row)
    out = {k: median(row[k] for row in per_worker) for k in per_worker[0]}
    replayed = traced[0]["replayed"].values()
    out["sim.engine.replayed_iter_frac"] = (
        sum(a for a, _ in replayed) / sum(b for _, b in replayed))
    out["trace.overhead_s"] = (median(wall(r, 1) for r in traced)
                               - median(wall(r, 1) for r in plain))
    if fill is not None:
        for name in BUILD_LAYERS:
            out[f"{name}.s"] = fill["layers"].get(name, {}).get("total_s", 0)
    return out


def run_sim_traced(ctx: Context, wl: Workload, seed: int, seconds: float,
                   cells=None, warm: Optional[tuple] = None):
    rng = random.Random(seed)
    cells = cells if cells is not None else _cells_for(ctx, wl)
    if warm is None and wl.prep == "warm":
        warm = _warm_store(ctx, wl.name, cells, trace=True)
    store, fill = warm if warm is not None else (None, None)
    deadline = time.perf_counter() + seconds
    results = _sim_loop(ctx, wl, cells, rng, deadline, store,
                        alternate=True)
    return layer_metrics(results, fill), results


# ----------------------------------------------------------------------
# service workload
def _spawn_daemon(cache_dir: Path, prep_dir: Path):
    from repro.serve.client import ServiceClient, ServiceError
    from repro.serve.load import spawn_server

    proc, port = spawn_server(
        jobs=1, extra_env={"REPRO_CACHE_DIR": str(cache_dir),
                           "REPRO_PREP_DIR": str(prep_dir)},
        timeout=60.0)
    deadline = time.monotonic() + 60.0
    with ServiceClient(port=port, timeout=10.0) as client:
        while True:
            try:
                client.healthz()
                return proc, port
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    _stop_daemon(proc)
                    raise RuntimeError("daemon never became healthy")
                client.close()
                time.sleep(0.005)


def _stop_daemon(proc) -> tuple:
    """SIGTERM (the drain contract), reap; -> (exit code, peak RSS MB
    of the daemon and the workers it reaped)."""
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 60.0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def _serve_round(ctx: Context, wl: Workload, seed: int,
                 prep_dir: Path) -> dict:
    """A fresh daemon and result cache, loaded by one ``run_load`` of
    the CI serve-smoke traffic; then every pool cell is asked once more
    for its body.  The reference clock is read around the daemon start
    and around the load, while the service is idle."""
    from repro.serve.client import ServiceClient
    from repro.serve.load import run_load
    from repro.serve.service import cell_to_doc

    docs = [cell_to_doc(c) for c in wl.cells]
    # The daemon, the pool worker it forks and the client threads share
    # one CPU, so the reference clock reads the CPU doing all of the work.
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {ctx.cpus[0]})
    try:
        ref = [refclock.measure()]
        t0 = time.perf_counter()
        proc, port = _spawn_daemon(ctx.fresh_dir("cache"), prep_dir)
        setup = time.perf_counter() - t0
        ref.append(refclock.measure())
        try:
            report = run_load(port, n_requests=LOAD_REQUESTS,
                              dup_fraction=LOAD_DUP_FRACTION,
                              threads=LOAD_THREADS, cells=docs, seed=seed)
            ref.append(refclock.measure())
            with ServiceClient(port=port, timeout=CHILD_TIMEOUT_S) as probe:
                bodies = [probe.submit_cell(check=False, **d) for d in docs]
        finally:
            rc, rss = _stop_daemon(proc)
    finally:
        os.sched_setaffinity(0, saved)

    n = report["n_requests"]
    answered = report["statuses"].get(200, 0)
    ctx.ops(n, n - answered,
            f"serve-mixed: {n - answered} of {n} requests not answered 200")
    # Unanswered requests, differing bodies for one key, single-flight.
    ctx.op(not report["errors"],
           "serve-mixed: " + "; ".join(report["errors"]))
    keys = {json.dumps(c.config(), sort_keys=True) for c in wl.cells}
    ctx.op(report["computations"] == len(keys),
           f"serve-mixed: {report['computations']} computations for "
           f"{len(keys)} keys")
    # Every 200 body of a key is identical (checked by run_load), so one
    # body per cell against expected.json checks them all.
    want = ctx.expected["cells"]
    served = {}
    for cell, payload in zip(wl.cells, bodies):
        lab = cell.label()
        ok = (payload["status"] == 200
              and summary_digest(payload["summary"]) == want.get(lab))
        ctx.op(ok, f"serve-mixed: {lab}: status {payload['status']}, "
                   f"digest mismatch or error")
        if ok:
            served[lab] = payload["summary"]
    ctx.op(rc == 0, f"serve-mixed: daemon exit {rc} after SIGTERM")
    return {"setup_s": setup * refclock.factor(ref[0], ref[1]),
            "load_s": report["elapsed_s"] * refclock.factor(ref[1], ref[2]),
            "n": n, "rss_mb": rss, "metrics": report["metrics"],
            "bodies": served}


def serve_metrics(rounds: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics in reference seconds, one sample per round."""
    return {
        "setup_s": stat(r["setup_s"] for r in rounds),
        "wall_s": stat(r["setup_s"] + r["load_s"] for r in rounds),
        "ops_per_s": stat(r["n"] / r["load_s"] for r in rounds),
        "peak_rss_mb": stat(r["rss_mb"] for r in rounds),
    }


def serve_layers(rounds: List[dict]) -> Dict[str, float]:
    """Service-side layers from each round's ``/metrics`` after the
    load, as medians over rounds (retries and restarts: totals).  They
    exist for ``serve-mixed`` only, so they are reported beside the
    per-layer metrics every workload has, not among them."""
    def per_round(get):
        return median(get(r["metrics"]) for r in rounds)

    def latency_ms(kind, field):
        return per_round(lambda m: m["latency"][kind][field] * 1e3)

    return {
        "serve.request.p50_ms": latency_ms("request", "p50_s"),
        "serve.request.p99_ms": latency_ms("request", "p99_s"),
        "serve.compute.p50_ms": latency_ms("compute", "p50_s"),
        "serve.queue.high_water": max(r["metrics"]["queue_high_water"]
                                      for r in rounds),
        "serve.cache.hit_ratio": median(r["metrics"]["requests"]["cache"]
                                        / r["n"] for r in rounds),
        "serve.coalesced.count": per_round(
            lambda m: m["requests"]["coalesced"]),
        "serve.pool.retries": sum(r["metrics"]["worker_retries"]
                                  for r in rounds),
        "serve.pool.restarts": sum(r["metrics"]["worker_restarts"]
                                   for r in rounds),
    }


def _serve_rounds(ctx: Context, wl: Workload, rng, seconds: float,
                  prep_dir: Path) -> List[dict]:
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        try:
            # A new request stream per round: the order of first asks
            # and duplicates moves a round's time by several percent.
            rounds.append(_serve_round(ctx, wl, rng.randrange(2 ** 32),
                                       prep_dir))
        except Exception as e:   # daemon failed to start, transport error
            ctx.op(False, f"serve-mixed: {type(e).__name__}: {e}")
            return rounds
        if ctx.smoke or time.perf_counter() >= deadline:
            return rounds


def run_serve(ctx: Context, wl: Workload, seed: int, seconds: float):
    rng = random.Random(seed)
    prep = _warm_store(ctx, wl.name, wl.cells)[0]
    rounds = _serve_rounds(ctx, wl, rng, seconds, prep)
    return serve_metrics(rounds) if rounds else {}


def run_serve_traced(ctx: Context, wl: Workload, seed: int,
                     seconds: float):
    """Service layers from untraced rounds, then simulator layers from
    direct ``run_cell_config`` workers over the cells the rounds served;
    every served body must equal the direct summary."""
    rng = random.Random(seed)
    warm = _warm_store(ctx, wl.name, wl.cells, trace=True)
    rounds = _serve_rounds(ctx, wl, rng, seconds / 2, warm[0])
    if not rounds:
        return {}, []
    served = {}
    for r in rounds:
        served.update(r["bodies"])
    cells = [c for c in wl.cells if c.label() in served]
    layers, results = run_sim_traced(ctx, wl, seed, seconds / 2,
                                     cells=cells, warm=warm)
    for res in results:
        for lab, digest in res["digests"].items():
            direct = summary_digest(served[lab])
            ctx.op(direct == digest,
                   f"serve-mixed: {lab}: served body != direct summary")
    layers.update(serve_layers(rounds))
    return layers, results
