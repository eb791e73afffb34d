"""Run records, the printed tables, trace files and ``--compare``."""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List


def record(spec: dict, workload: str, args, metrics: dict, attempted: int,
           failed: int) -> dict:
    """One workload's run as written by ``--out``: the metrics
    ``BENCHMARK.json`` names for the mode, and under ``extra`` any
    workload-specific ones (the service layers of ``serve-mixed``)."""
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in wanted:
        v = metrics.get(m["name"])
        if v is None:
            continue
        if not isinstance(v, dict):
            v = {"value": v, "q1": v, "q3": v, "n": 1}
        out[m["name"]] = dict(v, unit=m["unit"])
    extra = {k: v for k, v in metrics.items() if k not in out}
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "attempted": attempted, "failed": failed,
            "complete": len(out) == len(wanted), "metrics": out,
            "extra": extra}


def result_line(records: List[dict], attempted: int, failed: int) -> dict:
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        for name, m in rec["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    correct = (failed == 0 and attempted > 0
               and all(rec["complete"] for rec in records))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def table(rec: dict) -> str:
    lines = [f"== {rec['workload']}  seed={rec['seed']}  "
             f"trace={rec['trace']}  attempted={rec['attempted']}  "
             f"failed={rec['failed']}",
             f"  {'metric':34} {'unit':6} {'value':>12} {'q1':>12} "
             f"{'q3':>12} {'n':>6}"]
    for name, m in rec["metrics"].items():
        lines.append(f"  {name:34} {m['unit']:6} {m['value']:12.6g} "
                     f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:6d}")
    for name, value in rec["extra"].items():
        lines.append(f"  {name:34} {'':6} {value:12.6g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def layer_table(results: List[dict]) -> Dict[str, dict]:
    """layer -> median calls / total / self over the traced workers."""
    traced = [r for r in results if r.get("traced")]
    names = sorted({n for r in traced for n in r["layers"]})
    return {n: {f: median(r["layers"].get(n, {}).get(f, 0)
                          for r in traced)
                for f in ("calls", "total_s", "self_s")}
            for n in names}


def write_trace(directory: Path, workload: str, metrics: dict,
                results: List[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    events = []
    traced = [r for r in results if r.get("traced")]
    for pid, r in enumerate(traced):
        for ev in r["events"]:
            events.append(dict(ev, pid=pid))
    (directory / f"{workload}.trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    (directory / f"{workload}.layers.json").write_text(json.dumps(
        {"workload": workload, "metrics": metrics,
         "layers": layer_table(results)}, indent=2, sort_keys=True))


def format_layers(results: List[dict]) -> str:
    rows = layer_table(results)
    lines = [f"  {'layer':26} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:26} {r['calls']:10.0f} {r['total_s']:10.4f} "
                     f"{r['self_s']:10.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _quartiles(values):
    if len(values) >= 2:
        return quantiles(values, n=4)
    return values[0], values[0], values[0]


def _load(path: str) -> Dict[tuple, List[float]]:
    out: Dict[tuple, List[float]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(
                    m["value"])
    return out


def compare(spec: dict, path_a: str, path_b: str) -> str:
    """Per workload and metric: each side's median, quartiles and n.

    Runs pair up in file order, so alternating parent/change runs
    appended to two files give the pairs of the 9-in-10 rule.  For an
    end-to-end metric, a median worse by more than its bound is a
    REGRESSION -- or ``unresolved`` when the parent's own quartile
    spread is wider than the bound and the runs overlap; a ``gain``
    needs at least 10 pairs, 9 in 10 won, and a median difference
    larger than the parent's quartile spread.
    """
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(path_a), _load(path_b)
    lines = [f"{'workload':20} {'metric':30} {'A median [q1, q3] n':>32} "
             f"{'B median [q1, q3] n':>32} {'delta':>8} {'bound':>6} "
             f"{'wins':>6}  verdict"]
    for key in sorted(set(a) & set(b)):
        workload, name = key
        m = meta.get(name, {"better": "lower"})
        va, vb = a[key], b[key]
        qa, qb = _quartiles(va), _quartiles(vb)
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        pairs = list(zip(va, vb))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        bound = m.get("bound")
        sa, sb = [sign * x for x in va], [sign * y for y in vb]
        separated = max(sb) < min(sa) or min(sb) > max(sa)
        if bound is None:
            verdict = "-"
        elif spread > bound and not separated:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
        elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
              and -worse * qa[1] > qa[2] - qa[0]):
            verdict = "gain"
        else:
            verdict = "within bound"
        lines.append(
            f"{workload:20} {name:30} "
            f"{qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}] {len(va):3d}  "
            f"{qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {len(vb):3d}  "
            f"{worse:+8.1%} "
            f"{'' if bound is None else format(bound, '.0%'):>6} "
            f"{wins:3d}/{len(pairs):<3d} {verdict}")
    return "\n".join(lines)
