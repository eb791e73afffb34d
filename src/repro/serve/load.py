"""Loopback load harness: fire concurrent mixed traffic at a daemon.

The concurrency test suite and the CI serve-smoke job share this
module.  It drives a running service with ``threads`` clients issuing
a mixed hot/cold/duplicate request stream, then checks the service's
own ``/metrics`` against the invariants the design promises:

* every request is answered (no drops, no transport errors);
* **single-flight**: each distinct cold cell is computed exactly once
  — ``metrics.computations`` equals the number of distinct keys that
  were not already cached;
* duplicate requests are served from the cache or coalesced onto the
  in-flight computation, never recomputed;
* all responses for one key carry byte-identical summaries.

Standalone (the CI smoke job)::

    python -m repro.serve.load --spawn --jobs 0 --requests 48 \
        --dup-fraction 0.5 --audit audit.jsonl --metrics-out metrics.json

``--spawn`` boots a real ``python -m repro serve`` subprocess on an
ephemeral port, runs the load, SIGTERMs it, and requires a graceful
exit code 0 — the drain contract, exercised end to end.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from typing import List, Optional, Sequence

from repro.serve.client import ServiceClient

__all__ = ["default_cells", "run_load", "spawn_server", "main"]


def default_cells(n_distinct: int = 6) -> List[dict]:
    """A pool of small, fast, *distinct* cells (distinct cache keys)."""
    versions = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")
    cells = []
    for i in range(n_distinct):
        cells.append({
            "machine": "broadwell",
            "matrix": "inline1",
            "solver": "lanczos",
            "version": versions[i % len(versions)],
            "block_count": 16 + 16 * (i // len(versions)),
            "iterations": 1,
        })
    return cells


def run_load(port: int, host: str = "127.0.0.1",
             n_requests: int = 48, dup_fraction: float = 0.5,
             threads: int = 16, cells: Optional[List[dict]] = None,
             seed: int = 0, mid_load=None) -> dict:
    """Drive the daemon; returns a report dict (see ``ok`` key).

    The request stream is built up front: ``dup_fraction`` of the
    requests re-ask an already-scheduled cell (duplicates), the rest
    walk the distinct-cell pool round-robin.  Shuffled, then issued
    from ``threads`` concurrent clients so hot, cold, and duplicate
    requests genuinely interleave.

    ``mid_load`` is a zero-arg callable fired exactly once, from a
    worker thread, when a third of the responses have landed — the
    fault tests use it to SIGKILL a pool worker while traffic is in
    flight; every invariant above must still hold.
    """
    rng = random.Random(seed)
    pool = cells if cells is not None else default_cells()
    n_dup = int(n_requests * dup_fraction)
    stream = [dict(pool[i % len(pool)])
              for i in range(n_requests - n_dup)]
    stream += [dict(rng.choice(stream)) for _ in range(n_dup)]
    rng.shuffle(stream)

    with ServiceClient(host, port) as probe:
        before = probe.metrics()

    lock = threading.Lock()
    responses: List[dict] = []
    errors: List[str] = []
    it = iter(list(enumerate(stream)))
    mid_fired = threading.Event()

    def worker():
        with ServiceClient(host, port) as client:
            while True:
                with lock:
                    try:
                        idx, doc = next(it)
                    except StopIteration:
                        return
                try:
                    payload = client.submit_cell(check=False, **doc)
                except Exception as e:
                    with lock:
                        errors.append(f"request {idx}: "
                                      f"{type(e).__name__}: {e}")
                    continue
                with lock:
                    responses.append(payload)
                    fire_mid = (mid_load is not None
                                and not mid_fired.is_set()
                                and len(responses) >= n_requests // 3)
                    if fire_mid:
                        mid_fired.set()
                if fire_mid:
                    mid_load()   # outside the lock: it may take a while

    t0 = time.perf_counter()
    crew = [threading.Thread(target=worker) for _ in range(threads)]
    for t in crew:
        t.start()
    for t in crew:
        t.join()
    elapsed = time.perf_counter() - t0

    with ServiceClient(host, port) as probe:
        after = probe.metrics()
        health = probe.healthz()

    # -- invariants ----------------------------------------------------
    by_key = {}
    statuses = {}
    for p in responses:
        statuses[p["status"]] = statuses.get(p["status"], 0) + 1
        if p["status"] == 200:
            body = json.dumps(p["summary"], sort_keys=True)
            by_key.setdefault(p["key"], set()).add(body)
    torn = {k for k, bodies in by_key.items() if len(bodies) > 1}
    if torn:
        errors.append(f"non-identical summaries for key(s): "
                      f"{sorted(torn)}")
    if len(responses) != n_requests:
        errors.append(f"answered {len(responses)}/{n_requests} requests")
    if statuses.get(200, 0) != n_requests:
        errors.append(f"non-200 responses: {statuses}")
    computed = after["computations"] - before["computations"]
    if computed > len(by_key):
        errors.append(
            f"single-flight violated: {computed} computations for "
            f"{len(by_key)} distinct keys")

    report = {
        "ok": not errors,
        "errors": errors,
        "elapsed_s": elapsed,
        "n_requests": n_requests,
        "n_distinct_keys": len(by_key),
        "n_duplicates_sent": n_dup,
        "statuses": statuses,
        "computations": computed,
        "sources": {
            s: after["requests"][s] - before["requests"].get(s, 0)
            for s in after["requests"]
        },
        "metrics": after,
        "healthz": health,
    }
    return report


# ----------------------------------------------------------------------
def spawn_server(jobs: int = 0, audit: Optional[str] = None,
                 extra_env: Optional[dict] = None,
                 timeout: float = 60.0, serve_args: Sequence[str] = ()):
    """Boot ``python -m repro serve`` on an ephemeral port.

    ``serve_args`` are appended to the command line (``--timeout``,
    ``--attempts``, ...).  Returns ``(process, port)``; the caller owns
    shutdown.  The daemon announces its bound port on stdout — parsed
    here rather than racing a port-scan.
    """
    import os
    import re
    import subprocess

    cmd = [sys.executable, "-m", "repro", "serve",
           "--port", "0", "--jobs", str(jobs)]
    if audit:
        cmd += ["--audit", audit]
    cmd += list(serve_args)
    env = dict(os.environ)
    env.update(extra_env or {})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env=env)
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError(
                f"server died during startup (rc={proc.returncode})")
        m = re.search(r"listening on http://[^:]+:(\d+)", line)
        if m:
            return proc, int(m.group(1))
    proc.kill()
    raise RuntimeError("server did not announce a port in time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.load",
        description="loopback load harness for the simulation service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8477,
                        help="existing daemon to target (ignored "
                             "with --spawn)")
    parser.add_argument("--spawn", action="store_true",
                        help="boot a daemon subprocess, load it, "
                             "SIGTERM it, require exit 0")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for --spawn")
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--dup-fraction", type=float, default=0.5)
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--audit", default=None,
                        help="audit JSONL path for the spawned daemon")
    parser.add_argument("--metrics-out", default=None,
                        help="write the final report JSON here")
    args = parser.parse_args(argv)

    proc = None
    port = args.port
    if args.spawn:
        proc, port = spawn_server(jobs=args.jobs, audit=args.audit)
        print(f"spawned daemon pid={proc.pid} port={port}")
    try:
        report = run_load(port, host=args.host,
                          n_requests=args.requests,
                          dup_fraction=args.dup_fraction,
                          threads=args.threads, seed=args.seed)
    finally:
        if proc is not None:
            import signal

            proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=60)
            except Exception:
                proc.kill()
                rc = -9
            tail = proc.stdout.read() or ""
            if rc != 0:
                print(f"daemon exited rc={rc} (want 0 after SIGTERM)",
                      file=sys.stderr)
                print(tail, file=sys.stderr)

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    summary = {k: report[k] for k in
               ("ok", "elapsed_s", "n_requests", "n_distinct_keys",
                "computations", "statuses", "sources")}
    print(json.dumps(summary, indent=2, sort_keys=True))
    if report["errors"]:
        for err in report["errors"]:
            print(f"INVARIANT: {err}", file=sys.stderr)
    drain_failed = proc is not None and proc.returncode != 0
    return 0 if report["ok"] and not drain_failed else 1


if __name__ == "__main__":
    sys.exit(main())
