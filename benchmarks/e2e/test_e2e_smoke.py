"""Smoke test of the end-to-end benchmark.

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``--smoke`` untraced and traced over every workload and checks that
each metric ``BENCHMARK.json`` names is emitted with its unit and a
sample count, that the run is correct, and that the traced per-layer
self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, trace: int):
    out = tmp_path / f"runs-{trace}.jsonl"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e", "--smoke", "--seed", "7",
         "--trace", str(trace), "--out", str(out),
         "--trace-dir", str(tmp_path / "trace")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return result, records


def _check(result, records, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {w["name"] for w in SPEC["workloads"]}
    assert {r["workload"] for r in records} == names
    for rec in records:
        for m in SPEC[kind]:
            got = rec["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert got["n"] >= 1, m["name"]
            line = result["metrics"][f"{rec['workload']}/{m['name']}"]
            assert line == {"value": got["value"], "unit": m["unit"]}


def test_smoke_end_to_end(tmp_path):
    result, records = _run(tmp_path, 0)
    _check(result, records, "end_to_end")
    for rec in records:
        for m in SPEC["end_to_end"]:
            assert rec["metrics"][m["name"]]["value"] > 0, m["name"]


def test_smoke_traced(tmp_path):
    result, records = _run(tmp_path, 1)
    _check(result, records, "per_layer")
    for rec in records:
        frac = rec["metrics"]["trace.self_sum_frac"]["value"]
        assert 0.95 <= frac <= 1.05, (rec["workload"], frac)
        if rec["workload"] == "serve-mixed":
            assert rec["extra"]["serve.compute.p50_ms"] > 0
        chrome = json.loads(
            (tmp_path / "trace" / f"{rec['workload']}.trace.json")
            .read_text())
        assert chrome["traceEvents"]
