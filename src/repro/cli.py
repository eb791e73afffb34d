"""Command-line interface: run evaluation cells without writing code.

::

    python -m repro solve   --matrix nlpkkt160 --solver lobpcg
    python -m repro compare --matrix nlpkkt240 --solver lanczos \\
                            --machine epyc --block-count 96
    python -m repro tune    --matrix Queen4147 --runtime deepsparse \\
                            --machine broadwell
    python -m repro bench   --machine broadwell --solver lanczos \\
                            --jobs 4 --profile
    python -m repro suite

Everything prints the same tables the benchmarks produce; see
``--help`` on each subcommand.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Task-parallel sparse-solver evaluation (ICPP '21 "
                    "reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("suite", help="list the Table 1 matrix suite")

    s = sub.add_parser("solve", help="eagerly solve one suite matrix")
    s.add_argument("--matrix", required=True)
    s.add_argument("--solver", choices=["lanczos", "lobpcg"],
                   default="lobpcg")
    s.add_argument("--scale", type=int, default=8192,
                   help="suite reduction factor (default 8192)")
    s.add_argument("--block-size", type=int, default=128)
    s.add_argument("--nev", type=int, default=4,
                   help="eigenpairs (lobpcg) / basis size (lanczos)")
    s.add_argument("--maxiter", type=int, default=80)

    s = sub.add_parser("compare",
                       help="simulate the five solver versions at "
                            "paper scale")
    s.add_argument("--matrix", required=True)
    s.add_argument("--solver", choices=["lanczos", "lobpcg"],
                   default="lobpcg")
    s.add_argument("--machine", choices=["broadwell", "epyc"],
                   default="broadwell")
    s.add_argument("--block-count", type=int, default=48)
    s.add_argument("--iterations", type=int, default=2)

    s = sub.add_parser("tune", help="sweep the §5.4 block-count buckets")
    s.add_argument("--matrix", required=True)
    s.add_argument("--runtime",
                   choices=["deepsparse", "hpx", "regent"],
                   default="deepsparse")
    s.add_argument("--machine", choices=["broadwell", "epyc"],
                   default="broadwell")
    s.add_argument("--solver", choices=["lanczos", "lobpcg"],
                   default="lobpcg")
    s.add_argument("--jobs", type=int, default=None,
                   help="worker processes for sweep cells "
                        "(default: $REPRO_BENCH_JOBS or 1; "
                        "0 = auto-detect one per CPU)")

    s = sub.add_parser(
        "bench",
        help="run an experiment grid through the parallel orchestrator "
             "(cached, deduplicated, deterministic)",
    )
    s.add_argument("--machine", nargs="+",
                   choices=["broadwell", "epyc"], default=["broadwell"])
    s.add_argument("--matrix", nargs="+", default=None,
                   help="suite matrices (default: the representative "
                        "8-matrix subset)")
    s.add_argument("--solver", nargs="+",
                   choices=["lanczos", "lobpcg"], default=["lanczos"])
    s.add_argument("--version", nargs="+",
                   choices=["libcsr", "libcsb", "deepsparse", "hpx",
                            "regent"],
                   default=["libcsr", "libcsb", "deepsparse", "hpx",
                            "regent"])
    s.add_argument("--block-count", nargs="+", type=int, default=None,
                   help="block counts to sweep (default: the §5.4 "
                        "rule-of-thumb granularity per version)")
    s.add_argument("--iterations", type=int, default=2)
    s.add_argument("--jobs", type=int, default=None,
                   help="worker processes for cache misses "
                        "(default: $REPRO_BENCH_JOBS or 1; "
                        "0 = auto-detect one per CPU)")
    s.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk result cache (force cold "
                        "simulation, persist nothing)")
    s.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock budget in seconds when "
                        "running with a worker pool; wedged cells are "
                        "killed, retried, then reported")
    s.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failed cell before it "
                        "lands in the failure table (default 1)")
    s.add_argument("--profile", action="store_true",
                   help="print per-cell timing, cache statistics, and "
                        "the slowest cells")
    s.add_argument("--trace", metavar="DIR", default=None,
                   help="run every cell with the observability layer "
                        "attached and write a Chrome trace + metrics "
                        "CSV per cell into DIR (bypasses the result "
                        "cache; --jobs, --timeout and --retries apply; "
                        "simulated numbers are bit-identical to "
                        "untraced runs)")

    s = sub.add_parser(
        "trace",
        help="run one cell with structured tracing and write Chrome "
             "trace-event JSON (chrome://tracing / Perfetto) plus a "
             "per-iteration metrics table",
    )
    s.add_argument("--matrix", required=True)
    s.add_argument("--solver", choices=["lanczos", "lobpcg"],
                   default="lanczos")
    s.add_argument("--version",
                   choices=["libcsr", "libcsb", "deepsparse", "hpx",
                            "regent"],
                   default="deepsparse")
    s.add_argument("--machine", choices=["broadwell", "epyc"],
                   default="broadwell")
    s.add_argument("--block-count", type=int, default=16)
    s.add_argument("--iterations", type=int, default=4)
    s.add_argument("--out", default="traces",
                   help="output directory (default: ./traces)")
    s.add_argument("--jsonl", action="store_true",
                   help="also dump the raw event stream as JSON lines "
                        "(one event per line; reloadable with "
                        "repro.trace.read_jsonl)")
    s.add_argument("--no-steady-state", action="store_true",
                   help="disable the iteration fast path so every "
                        "iteration is fully simulated (no synthesized "
                        "replay events in the trace)")
    s.add_argument("--width", type=int, default=90,
                   help="Gantt text width")
    s.add_argument("--max-cores", type=int, default=16,
                   help="Gantt lanes to print")

    s = sub.add_parser(
        "prep",
        help="manage the compiled-prep store (census + DAG + access "
             "plans persisted per cell; warm sweeps skip all build "
             "work)",
    )
    s.add_argument("action", choices=["build", "list", "gc"],
                   help="build: compile + persist prep artifacts for a "
                        "grid; list: show artifacts on disk; gc: drop "
                        "stale-salt entries, tmp files, and quarantined "
                        "corrupt artifacts")
    s.add_argument("--machine", nargs="+",
                   choices=["broadwell", "epyc"], default=["broadwell"])
    s.add_argument("--matrix", nargs="+", default=None,
                   help="matrices to prebuild (default: the "
                        "representative 8-matrix subset)")
    s.add_argument("--solver", nargs="+",
                   choices=["lanczos", "lobpcg"], default=["lanczos"])
    s.add_argument("--version", nargs="+",
                   choices=["libcsr", "libcsb", "deepsparse", "hpx",
                            "regent"],
                   default=["libcsr", "deepsparse"],
                   help="versions whose BuildOptions to compile for "
                        "(versions sharing a decomposition policy "
                        "share one artifact)")
    s.add_argument("--block-count", nargs="+", type=int, default=[64],
                   help="block counts to prebuild (ignored by libcsr)")
    s.add_argument("--width", type=int, default=None,
                   help="vector-block width override (default: the "
                        "solver's paper width)")

    s = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (JSON over HTTP): "
             "single-flight coalescing on the result-cache key, warm "
             "worker pool, bounded queue with 429 backpressure, "
             "/healthz + /metrics, graceful SIGTERM drain",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8477,
                   help="0 = pick an ephemeral port (announced on "
                        "stdout)")
    s.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = inline threads; the "
                        "test/smoke configuration)")
    s.add_argument("--backlog", type=int, default=64,
                   help="max distinct pending computations before "
                        "single-cell submits get 429 + Retry-After")
    s.add_argument("--batch-max", type=int, default=8,
                   help="dispatcher batch size (coalesces prep "
                        "prebuilds across queued cells)")
    s.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall budget in the pool, seconds")
    s.add_argument("--attempts", type=int, default=2)
    s.add_argument("--audit", metavar="FILE", default=None,
                   help="per-request JSONL audit log (crash-safe "
                        ".part file, published atomically on drain)")

    s = sub.add_parser(
        "submit",
        help="submit one cell to a running daemon and print the "
             "summary (bit-identical to running the cell locally)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8477,
                   help="daemon port")
    s.add_argument("--matrix", required=True)
    s.add_argument("--solver", choices=["lanczos", "lobpcg"],
                   default="lanczos")
    s.add_argument("--version",
                   choices=["libcsr", "libcsb", "deepsparse", "hpx",
                            "regent"],
                   default="deepsparse")
    s.add_argument("--machine", choices=["broadwell", "epyc"],
                   default="broadwell")
    s.add_argument("--block-count", type=int, default=None)
    s.add_argument("--iterations", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true",
                   help="print the raw response payload instead of "
                        "the human summary line")
    return p


def _cmd_suite(_args) -> int:
    from repro.matrices.suite import SUITE, SUITE_ORDER

    print(f"{'matrix':20s}{'#rows':>13s}{'#nonzeros':>15s}"
          f"{'family':>9s}{'sym':>5s}{'bin':>5s}")
    for name in SUITE_ORDER:
        sp = SUITE[name]
        print(f"{name:20s}{sp.paper_rows:13,d}{sp.paper_nnz:15,d}"
              f"{sp.family:>9s}{'y' if sp.symmetric else 'n':>5s}"
              f"{'y' if sp.binary else 'n':>5s}")
    return 0


def _cmd_solve(args) -> int:
    from repro.matrices import CSBMatrix, load_matrix
    from repro.solvers import lanczos, lobpcg

    coo = load_matrix(args.matrix, scale=args.scale)
    csb = CSBMatrix.from_coo(coo, args.block_size)
    print(f"{args.matrix} (scaled): {csb.shape[0]} rows, "
          f"{csb.nnz} nonzeros, {csb.nbr}x{csb.nbc} blocks")
    if args.solver == "lanczos":
        res = lanczos(csb, k=max(args.nev * 4, 10))
        print("extreme eigenvalues:",
              np.round([res.eigenvalues[0], res.eigenvalues[-1]], 8))
        print(f"iterations: {res.iterations}")
    else:
        res = lobpcg(csb, n=args.nev, maxiter=args.maxiter)
        print("smallest eigenvalues:", np.round(res.eigenvalues, 8))
        print(f"iterations: {res.iterations}, converged: {res.converged}, "
              f"residual: {res.history.final_residual:.3e}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.experiment import run_cell

    cell = run_cell(args.machine, args.matrix, args.solver,
                    block_count=args.block_count,
                    iterations=args.iterations)
    base = cell.results["libcsr"]
    print(f"{args.solver} on {args.machine}, {args.matrix} at paper "
          f"scale, block count {args.block_count}:")
    print(f"{'version':12s}{'t/iter (ms)':>13s}{'speedup':>9s}"
          f"{'L1':>7s}{'L2':>7s}{'L3':>7s}")
    for v, r in cell.results.items():
        cols = ""
        if v != "libcsr":
            cols = "".join(
                f"{cell.miss_reduction(v, l):7.2f}" for l in (1, 2, 3)
            )
        print(f"{v:12s}{r.time_per_iteration * 1e3:13.2f}"
              f"{r.speedup_over(base):9.2f}{cols}")
    return 0


def _cmd_tune(args) -> int:
    from repro.bench import ExperimentRunner
    from repro.tuning import recommend_block_count, sweep_block_counts

    runner = ExperimentRunner(jobs=args.jobs)
    times = sweep_block_counts(args.machine, args.matrix, args.solver,
                               args.runtime, iterations=1, runner=runner)
    for bucket, t in times.items():
        print(f"block count {bucket[0]:3d}-{bucket[1]:<3d}: "
              f"{t * 1e3:9.2f} ms/iter")
    best = min(times, key=times.get)
    print(f"best bucket: {best[0]}-{best[1]}")
    try:
        rule = recommend_block_count(args.runtime, args.machine)
        print(f"paper rule of thumb: {rule[0]}-{rule[1]}")
    except KeyError:
        pass
    return 0


def _trace_cell_artifacts(out_dir, label, tracer, events=None):
    """Write Chrome trace + metrics CSV for one traced cell."""
    import os

    from repro.trace import metrics_from_events, write_chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{label}.trace.json")
    write_chrome_trace(trace_path, tracer, events=events)
    table = metrics_from_events(events if events is not None
                                else tracer.events, meta=tracer.meta)
    metrics_path = os.path.join(out_dir, f"{label}.metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(table.to_csv())
    return trace_path, metrics_path, table


def _trace_label(cell) -> str:
    """Artifact file stem of one bench cell."""
    return cell.label().replace("/", "-").replace("@", "-bc")


def _traced_bench_cell(out_dir: str, cell):
    """Run one traced bench cell and write its artifacts.

    Module-level so ``bench --trace --jobs N`` can ship it to a
    :class:`~repro.bench.pool.WarmPool` worker; artifacts are written
    in the worker (they can be large), and only the serializable run
    summary travels back for the results table.
    """
    from repro.analysis.experiment import run_version
    from repro.trace import Tracer

    tracer = Tracer()
    res = run_version(cell.machine, cell.matrix, cell.solver, cell.version,
                      block_count=cell.block_count,
                      iterations=cell.iterations, tracer=tracer)
    trace_path, _, _ = _trace_cell_artifacts(out_dir, _trace_label(cell),
                                             tracer)
    return res.summary(), trace_path


def _cmd_trace(args) -> int:
    import json
    import os

    from repro.analysis.experiment import run_version
    from repro.analysis.gantt import render_trace
    from repro.trace import Tracer, event_to_dict

    saved = os.environ.get("REPRO_NO_STEADY_STATE")
    if args.no_steady_state:
        os.environ["REPRO_NO_STEADY_STATE"] = "1"
    tracer = Tracer()
    try:
        res = run_version(args.machine, args.matrix, args.solver,
                          args.version, block_count=args.block_count,
                          iterations=args.iterations, tracer=tracer)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_STEADY_STATE", None)
        else:
            os.environ["REPRO_NO_STEADY_STATE"] = saved
    label = (f"{args.machine}-{args.matrix}-{args.solver}-{args.version}"
             f"-bc{args.block_count}-it{args.iterations}")
    trace_path, metrics_path, _ = _trace_cell_artifacts(
        args.out, label, tracer
    )
    print(render_trace(tracer, width=args.width,
                       max_cores=args.max_cores))
    # Self-check the trace against the engine's own counters: every
    # executed task must appear, and per-task miss args must sum to
    # the RunResult totals exactly.
    tasks = [e for e in tracer.events if e.kind == "task"]
    c = res.counters
    ok = (len(tasks) == c.tasks_executed
          and sum(t.l1 for t in tasks) == c.l1_misses
          and sum(t.l2 for t in tasks) == c.l2_misses
          and sum(t.l3 for t in tasks) == c.l3_misses)
    print()
    print(f"task events: {len(tasks)} "
          f"({sum(1 for t in tasks if t.synthesized)} replay-synthesized"
          f"{'' if res.steady_state_at is None else ', steady state at iteration ' + str(res.steady_state_at)})")
    print(f"trace/counter consistency: {'OK' if ok else 'MISMATCH'}")
    if args.jsonl:
        events_path = os.path.join(args.out, f"{label}.events.jsonl")
        with open(events_path, "w", encoding="utf-8") as f:
            for ev in tracer.events:
                f.write(json.dumps(event_to_dict(ev)) + "\n")
        print(f"events:  {events_path}")
    print(f"trace:   {trace_path}  (load in chrome://tracing or "
          "https://ui.perfetto.dev)")
    print(f"metrics: {metrics_path}")
    return 0 if ok else 1


def _run_traced_cells(cells, runner, out_dir: str, profile: bool) -> list:
    """Traced grid: one Chrome trace + metrics CSV per expanded cell.

    The result cache is bypassed (a trace needs a live simulation).
    Cells fan out over the runner's failure policy
    (:func:`~repro.bench.pool.fan_out`: ``--jobs`` lanes, ``--timeout``,
    ``--retries``); each worker writes its own artifacts, and trace
    content is simulated time, so the output is byte-identical to a
    sequential run.  Raises :class:`~repro.bench.SweepError` listing
    the cells that failed every attempt.
    """
    import functools

    from repro.bench.pool import fan_out
    from repro.bench.runner import run_captured

    traced = fan_out(cells, runner.jobs,
                     labels=[cell.label() for cell in cells],
                     keys=[_trace_label(cell) for cell in cells],
                     timeout=runner.timeout, attempts=runner.attempts,
                     backoff=runner.backoff,
                     worker=functools.partial(run_captured,
                                              _traced_bench_cell, out_dir))
    if profile:
        for cell, (_, trace_path) in zip(cells, traced):
            print(f"traced {cell.label()} -> {trace_path}")
    return [summary for summary, _ in traced]


def _cmd_bench(args) -> int:
    from repro.bench import (
        DEFAULT_MATRICES,
        ExperimentRunner,
        ResultCache,
        SweepError,
        expand_grid,
    )

    cache = ResultCache(enabled=False) if args.no_cache else None
    runner = ExperimentRunner(cache=cache, jobs=args.jobs,
                              progress=print if args.profile else None,
                              timeout=args.timeout,
                              attempts=1 + max(0, args.retries))
    cells = expand_grid(
        machines=args.machine,
        matrices=args.matrix or list(DEFAULT_MATRICES),
        solvers=args.solver,
        versions=args.version,
        block_counts=args.block_count,
        iterations=args.iterations,
    )
    try:
        if args.trace:
            results = _run_traced_cells(cells, runner, args.trace,
                                        args.profile)
        else:
            results = runner.run_cells(cells)
    except SweepError as e:
        # Partial failure: everything that did simulate is cached;
        # print the failure table and exit non-zero so CI notices.
        print(str(e), file=sys.stderr)
        if args.profile and not args.trace:
            print(runner.format_report(), file=sys.stderr)
        return 1

    # Results table: per (machine, matrix, solver) group, speedup over
    # the libcsr baseline when it is part of the grid.
    base = {}
    for cell, res in zip(cells, results):
        if cell.version == "libcsr":
            base[(cell.machine, cell.matrix, cell.solver)] = res
    print(f"{'cell':52s}{'t/iter (ms)':>13s}{'speedup':>9s}")
    for cell, res in zip(cells, results):
        b = base.get((cell.machine, cell.matrix, cell.solver))
        speedup = (f"{res.speedup_over(b):9.2f}"
                   if b is not None and b is not res else f"{'—':>9s}")
        print(f"{cell.label():52s}{res.time_per_iteration * 1e3:13.2f}"
              f"{speedup}")
    if args.profile:
        print()
        print(runner.format_report())
        print(f"cache: {runner.cache.stats()}")
    return 0


def _cmd_prep(args) -> int:
    import time

    from repro.bench import DEFAULT_MATRICES, default_prep_store

    store = default_prep_store()
    if args.action == "gc":
        removed = store.gc()
        print(f"prep gc: removed {removed['stale']} stale, "
              f"{removed['tmp']} tmp, {removed['corrupt']} corrupt "
              f"({store.root})")
        return 0
    if args.action == "list":
        entries = store.entries()
        print(f"prep store: {store.root} "
              f"({'enabled' if store.enabled else 'disabled'}, "
              f"{len(entries)} artifacts)")
        if entries:
            print(f"{'machine':10s}{'matrix':16s}{'solver':9s}"
                  f"{'bs':>7s}{'w':>4s}{'KiB':>8s}  key")
        for e in entries:
            if "error" in e:
                print(f"  unreadable {e['path']}: {e['error']}")
                continue
            c = e.get("config", {})
            print(f"{c.get('machine', '?'):10s}"
                  f"{c.get('matrix', '?'):16s}"
                  f"{c.get('solver', '?'):9s}"
                  f"{c.get('block_size', 0):>7d}"
                  f"{c.get('width', 0):>4d}"
                  f"{e.get('file_bytes', 0) / 1024:8.1f}"
                  f"  {e.get('key', '?')[:12]}")
        return 0

    # build: one artifact per distinct (machine, matrix, solver,
    # block_size, options) — versions sharing BuildOptions dedupe via
    # the content address.
    from repro.analysis.experiment import prebuild_prep

    if not store.enabled:
        print("prep store disabled (REPRO_NO_PREP); nothing to build",
              file=sys.stderr)
        return 1
    matrices = args.matrix or list(DEFAULT_MATRICES)
    built = 0
    t0 = time.perf_counter()
    for machine in args.machine:
        for matrix in matrices:
            for solver in args.solver:
                for version in args.version:
                    for bc in args.block_count:
                        config = prebuild_prep(
                            machine, matrix, solver, version,
                            block_count=bc, width=args.width,
                        )
                        key = store.key(config)
                        print(f"  {machine}/{matrix}/{solver} "
                              f"bs={config['block_size']} "
                              f"-> {key[:12]}")
                        built += 1
    dt = time.perf_counter() - t0
    st = store.stats()
    print(f"prep build: {built} cells in {dt:.2f}s "
          f"(hits={st['hits']} misses={st['misses']} "
          f"writes={st['writes']}) -> {store.root}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.service import ServeConfig, serve_main

    config = ServeConfig(host=args.host, port=args.port,
                         jobs=args.jobs, backlog=args.backlog,
                         batch_max=args.batch_max,
                         timeout=args.timeout, attempts=args.attempts,
                         audit_path=args.audit)

    def announce(line: str) -> None:
        print(line, flush=True)

    return asyncio.run(serve_main(config, announce=announce))


def _cmd_submit(args) -> int:
    import json as _json

    from repro.serve.client import ServiceClient, ServiceError

    fields = {"machine": args.machine, "matrix": args.matrix,
              "solver": args.solver, "version": args.version,
              "iterations": args.iterations, "seed": args.seed}
    if args.block_count is not None:
        fields["block_count"] = args.block_count
    with ServiceClient(args.host, args.port) as client:
        try:
            payload = client.submit_cell(**fields)
        except ServiceError as e:
            print(f"error: {e}", file=sys.stderr)
            tail = e.payload.get("stderr_tail")
            if tail:
                for line in str(tail).splitlines():
                    print(f"  stderr| {line}", file=sys.stderr)
            if e.retry_after_s is not None:
                print(f"  retry after {e.retry_after_s:.2f} s",
                      file=sys.stderr)
            return 1
        except OSError as e:
            print(f"error: cannot reach daemon at "
                  f"{args.host}:{args.port}: {e}", file=sys.stderr)
            return 1
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    s = payload["summary"]
    per_it = s["total_time"] / max(1, len(s["iteration_times"]))
    print(f"{args.machine}/{args.matrix}/{args.solver}/{args.version} "
          f"[{payload['source']}] total={s['total_time']:.6f}s "
          f"per-iter={per_it:.6f}s cores={s['n_cores']} "
          f"tasks/iter={s['n_tasks_per_iteration']}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "suite": _cmd_suite,
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "tune": _cmd_tune,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "prep": _cmd_prep,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro prep list | head`);
        # the usual Unix contract is a quiet exit, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
