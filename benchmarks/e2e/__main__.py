"""End-to-end benchmark: simulator and service, timed from outside.

::

    python3 benchmarks/e2e [--workload W] [--seed N] [--seconds S]
                           [--trace 0|1] [--trace-dir DIR] [--out F]
                           [--smoke]
    python3 benchmarks/e2e --compare PARENT.jsonl CHANGE.jsonl

(``PYTHONPATH=src:. python -m benchmarks.e2e`` is equivalent.)  Without
``--workload`` every workload in ``BENCHMARK.json`` runs in turn.  The
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--out`` appends the full
record (median, quartiles and sample count per metric) as one JSON
line, the input of ``--compare``.  Any failed operation -- an
exception, a non-200 response, a summary digest that differs from
``expected.json``, a single-flight violation -- makes the run incorrect
and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent


def _parse(argv):
    p = argparse.ArgumentParser(prog="benchmarks/e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload name (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement budget per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap layer entry points, report per-layer "
                        "metrics")
    p.add_argument("--trace-dir", default=None,
                   help="with --trace 1: write <workload>.trace.json "
                        "(Chrome/Perfetto) and <workload>.layers.json here")
    p.add_argument("--out", default=None,
                   help="append the run record as one JSON line")
    p.add_argument("--smoke", action="store_true",
                   help="1 repeat, 2 cells per simulator workload, "
                        "one service round (48 requests)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out files and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        from benchmarks.e2e.report import compare

        print(compare(spec, *args.compare))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks/e2e: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # REPRO_* switches change code paths or add test delays without
    # changing results, so a stray one would pass the digest gate while
    # measuring another configuration.  Workers and daemons inherit
    # this environment; the harness sets the two they need.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        print(f"benchmarks/e2e: ignoring {key}", file=sys.stderr)
        del os.environ[key]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                                str(ROOT)])

    from benchmarks.e2e import harness, report
    from benchmarks.e2e.workloads import WORKLOADS

    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else float(spec["run_seconds"]))
    expected = json.loads((HERE / "expected.json").read_text())
    ctx = harness.Context(ROOT, expected, args.smoke)
    records = []
    try:
        for name in names:
            wl = WORKLOADS[name]
            attempted, failed = ctx.attempted, ctx.failed
            if args.trace:
                run = (harness.run_serve_traced if wl.kind == "serve"
                       else harness.run_sim_traced)
                metrics, results = run(ctx, wl, args.seed, seconds)
                print(f"== {name} layers (median over traced workers)\n"
                      + report.format_layers(results))
                if args.trace_dir:
                    report.write_trace(Path(args.trace_dir), name,
                                       metrics, results)
            else:
                run = (harness.run_serve if wl.kind == "serve"
                       else harness.run_sim)
                metrics = run(ctx, wl, args.seed, seconds)
            records.append(report.record(
                spec, name, args, metrics,
                ctx.attempted - attempted, ctx.failed - failed))
    finally:
        ctx.close()
    for rec in records:
        print(report.table(rec))
    for err in ctx.errors:
        print(f"FAILED: {err}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    result = report.result_line(records, ctx.attempted, ctx.failed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not __package__:
        sys.path.insert(0, str(ROOT))
    sys.exit(main())
