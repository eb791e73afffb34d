"""Concurrency/correctness suite for the persistent simulation service.

The daemon's promises, each pinned by a test that exercises real
concurrency (threaded clients against a live loopback server):

* single-flight — N concurrent identical cold requests cause exactly
  one computation, and every response is byte-identical;
* bit-identity — a served summary equals a direct ``run_version``
  call's, and matches the frozen pre-optimization fixture;
* bounded queue — beyond ``backlog`` distinct pending cells, submits
  get 429 + Retry-After while in-flight work is unaffected;
* graceful drain — SIGTERM (subprocess) / ``drain()`` (in-process)
  finishes in-flight work, 503s new work, publishes the audit log,
  exits 0;
* failure transparency — a worker failure surfaces as a 500 carrying
  the worker's captured stderr tail.

``REPRO_SERVE_TEST_DELAY`` (an artificial per-cell delay honored by
:func:`repro.serve.service.serve_worker`) makes "while a request is in
flight" a deterministic state instead of a ~30 ms race window.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.bench.cache import ResultCache
from repro.bench.runner import WorkerFailure
from repro.serve import (
    BackgroundService,
    ServeConfig,
    ServiceClient,
    ServiceError,
    normalize_cell,
)
from repro.serve.http import HttpError, read_request
from repro.serve.load import run_load, spawn_server
from repro.serve.metrics import LatencyWindow
from repro.trace.sink import read_jsonl

CELL = {"machine": "broadwell", "matrix": "inline1",
        "solver": "lanczos", "version": "libcsr",
        "block_count": 16, "iterations": 1}


def _config(tmp_path, **kw) -> ServeConfig:
    kw.setdefault("port", 0)
    kw.setdefault("jobs", 0)
    kw.setdefault("cache",
                  ResultCache(root=str(tmp_path / "cache"), enabled=True))
    return ServeConfig(**kw)


# ----------------------------------------------------------------------
# HTTP framing (unit level)
# ----------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def test_read_request_parses_post_with_body():
    body = b'{"matrix": "inline1"}'
    raw = (b"POST /v1/cell HTTP/1.1\r\nHost: x\r\n"
           b"Content-Length: %d\r\n\r\n" % len(body)) + body
    req = _parse(raw)
    assert req.method == "POST" and req.path == "/v1/cell"
    assert req.json() == {"matrix": "inline1"}
    assert req.keep_alive


def test_read_request_clean_eof_returns_none():
    assert _parse(b"") is None


@pytest.mark.parametrize("raw,status", [
    (b"NONSENSE\r\n\r\n", 400),                      # bad request line
    (b"PUT /x HTTP/1.1\r\n\r\n", 405),               # method
    (b"GET /x HTTP/1.1\r\nbroken\r\n\r\n", 400),     # header line
    (b"POST /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n", 400),
    (b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
    (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
])
def test_read_request_rejects_malformed(raw, status):
    with pytest.raises(HttpError) as e:
        _parse(raw)
    assert e.value.status == status


@pytest.mark.parametrize("headers", [
    # Last-wins would read a 2-byte body and parse the rest of the
    # 40-byte body as a second, smuggled request.
    b"Content-Length: 40\r\nContent-Length: 2\r\n",
    b"Content-Length: 2\r\ncontent-length: 2\r\n",
    # Content-Length framing would read "2\r\n" as the body.
    b"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n",
    b"Content-Length: 3\r\nTransfer-Encoding: chunked\r\n",
])
def test_read_request_rejects_ambiguous_framing(headers):
    raw = (b"POST /x HTTP/1.1\r\n" + headers + b"\r\n"
           b"2\r\n{}\r\n0\r\n\r\n" + b"x" * 28)
    with pytest.raises(HttpError) as e:
        _parse(raw)
    assert e.value.status == 400


@pytest.mark.parametrize("value,status", [
    (b"+10", 400), (b"1_0", 400), (b"-0", 400), (b"", 400),
    (b"10", None),
])
def test_read_request_content_length_is_digits_only(value, status):
    raw = (b"POST /x HTTP/1.1\r\nContent-Length: " + value
           + b"\r\n\r\n0123456789")
    if status is None:
        assert _parse(raw).body == b"0123456789"
        return
    with pytest.raises(HttpError) as e:
        _parse(raw)
    assert e.value.status == status


def test_normalize_cell_rejects_garbage():
    for doc, needle in [
        ({}, "matrix"),
        ({"matrix": "not-a-matrix"}, "matrix"),
        ({"matrix": "inline1", "version": "openmp"}, "version"),
        ({"matrix": "inline1", "iterations": 0}, "iterations"),
        ({"matrix": "inline1", "iterations": "two"}, "iterations"),
        ({"matrix": "inline1", "typo_field": 1}, "typo_field"),
        ({"matrix": "inline1", "first_touch": "yes"}, "first_touch"),
    ]:
        with pytest.raises(HttpError) as e:
            normalize_cell(doc)
        assert e.value.status == 400
        assert needle in e.value.detail


def test_normalize_cell_defaults_block_count_per_version():
    dense = normalize_cell({"matrix": "inline1", "version": "deepsparse"})
    regent = normalize_cell({"matrix": "inline1", "version": "regent"})
    assert dense.block_count != regent.block_count  # §5.4 rule of thumb


def test_latency_window_percentiles():
    w = LatencyWindow(size=8)
    for v in [0.1, 0.2, 0.3, 0.4]:
        w.add(v)
    snap = w.snapshot()
    assert snap["count"] == 4
    assert snap["p50_s"] == 0.2
    assert snap["p99_s"] == 0.4
    assert snap["mean_s"] == pytest.approx(0.25)


def test_latency_window_empty_reports_none_not_crash():
    snap = LatencyWindow().snapshot()
    assert snap == {"count": 0, "mean_s": None,
                    "p50_s": None, "p99_s": None}
    assert LatencyWindow().percentile(50) is None


def test_latency_window_single_sample_is_every_percentile():
    w = LatencyWindow(size=4)
    w.add(0.7)
    for p in (0.0, 1.0, 50.0, 99.0, 100.0):
        assert w.percentile(p) == 0.7
    snap = w.snapshot()
    assert snap["count"] == 1
    assert snap["p50_s"] == snap["p99_s"] == snap["mean_s"] == 0.7


def test_latency_window_wrap_evicts_oldest_keeps_lifetime_stats():
    """Once the ring wraps, percentiles cover only the newest ``size``
    samples while count/mean stay lifetime — a long-lived daemon must
    report *recent* p99, not one diluted by yesterday."""
    w = LatencyWindow(size=4)
    for v in [100.0, 200.0, 1.0, 2.0, 3.0, 4.0]:
        w.add(v)
    # Window holds [3.0, 4.0, 1.0, 2.0]; the 100/200 outliers are gone.
    assert w.percentile(99) == 4.0
    assert w.percentile(50) == 2.0
    assert w.percentile(1) == 1.0
    snap = w.snapshot()
    assert snap["count"] == 6                       # lifetime
    assert snap["mean_s"] == pytest.approx(310.0 / 6)
    # Wrap all the way around again: still exactly `size` samples.
    for v in [5.0, 6.0, 7.0, 8.0, 9.0]:
        w.add(v)
    assert w.percentile(99) == 9.0 and w.percentile(1) == 6.0
    assert w.snapshot()["count"] == 11


# ----------------------------------------------------------------------
# Core service behaviour (loopback, inline workers)
# ----------------------------------------------------------------------
def test_cold_then_hot_and_bit_identity(tmp_path):
    from repro.analysis.experiment import run_version

    with BackgroundService(_config(tmp_path)) as bg:
        with ServiceClient(port=bg.port) as c:
            p1 = c.submit_cell(**CELL)
            p2 = c.submit_cell(**CELL)
    assert p1["source"] == "computed"
    assert p2["source"] == "cache"
    direct = run_version(
        CELL["machine"], CELL["matrix"], CELL["solver"], CELL["version"],
        block_count=CELL["block_count"],
        iterations=CELL["iterations"]).summary().to_dict()
    assert p1["summary"] == direct
    assert p2["summary"] == direct


def test_served_summary_matches_frozen_fixture(tmp_path):
    """The service must not perturb a single simulated number.

    Same contract as ``test_engine_equivalence``: the response for a
    fixture cell must reproduce the frozen pre-optimization engine's
    numbers exactly, after a full HTTP round trip.
    """
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "engine_equivalence.json")
    with open(fixture, "r", encoding="utf-8") as f:
        cells = json.load(f)
    key = "broadwell/inline1/lanczos/deepsparse/16/12"
    assert key in cells
    machine, matrix, solver, version, bc, iters = key.split("/")
    with BackgroundService(_config(tmp_path)) as bg:
        with ServiceClient(port=bg.port) as c:
            summary = c.cell_summary(
                machine=machine, matrix=matrix, solver=solver,
                version=version, block_count=int(bc),
                iterations=int(iters))
    got = {
        "total_time": summary.total_time,
        "iteration_times": list(summary.iteration_times),
        "n_cores": summary.n_cores,
        "n_tasks_per_iteration": summary.n_tasks_per_iteration,
        "l1_misses": summary.counters.l1_misses,
        "l2_misses": summary.counters.l2_misses,
        "l3_misses": summary.counters.l3_misses,
        "tasks_executed": summary.counters.tasks_executed,
        "busy_time": summary.counters.busy_time,
        "overhead_time": summary.counters.overhead_time,
        "compute_time": summary.counters.compute_time,
        "memory_time": summary.counters.memory_time,
        "kernel_time": summary.counters.kernel_time,
        "kernel_tasks": summary.counters.kernel_tasks,
    }
    for field, expected in cells[key].items():
        assert got[field] == expected, f"{field} drifted over HTTP"


def test_single_flight_duplicates_computed_once(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_TEST_DELAY", "0.4")
    with BackgroundService(_config(tmp_path)) as bg:
        results = []
        lock = threading.Lock()

        def hit():
            with ServiceClient(port=bg.port) as c:
                p = c.submit_cell(**CELL)
            with lock:
                results.append(p)

        crew = [threading.Thread(target=hit) for _ in range(8)]
        for t in crew:
            t.start()
        for t in crew:
            t.join()
        with ServiceClient(port=bg.port) as c:
            m = c.metrics()
    sources = sorted(r["source"] for r in results)
    assert m["computations"] == 1, sources
    assert sources.count("computed") == 1
    assert sources.count("coalesced") == 7
    bodies = {json.dumps(r["summary"], sort_keys=True) for r in results}
    assert len(bodies) == 1  # byte-identical responses for one key


def test_mixed_hot_cold_duplicate_load(tmp_path):
    """The headline load test: >=32 concurrent requests, >=50% dupes.

    Every request answered 200, every distinct cold cell computed
    exactly once, all responses per key byte-identical, and /metrics
    accounts for every request by source.
    """
    with BackgroundService(_config(tmp_path)) as bg:
        report = run_load(bg.port, n_requests=40, dup_fraction=0.5,
                          threads=16, seed=7)
    assert report["ok"], report["errors"]
    assert report["statuses"] == {200: 40}
    # Fresh cache: every distinct key is cold, computed exactly once.
    assert report["computations"] == report["n_distinct_keys"]
    src = report["sources"]
    assert src["computed"] == report["n_distinct_keys"]
    assert src["cache"] + src["coalesced"] == 40 - src["computed"]
    rates = report["metrics"]["hit_rates"]
    assert rates["cache"] is not None and rates["coalesced"] is not None
    assert rates["cache"] + rates["coalesced"] > 0.5
    lat = report["metrics"]["latency"]["request"]
    assert lat["count"] >= 40
    assert lat["p50_s"] is not None and lat["p99_s"] >= lat["p50_s"]


def test_bounded_queue_rejects_with_retry_after(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_TEST_DELAY", "0.6")
    with BackgroundService(_config(tmp_path, backlog=2)) as bg:
        outcomes = []
        lock = threading.Lock()

        def cold(i):
            with ServiceClient(port=bg.port) as c:
                try:
                    p = c.submit_cell(machine="broadwell",
                                      matrix="inline1",
                                      solver="lanczos",
                                      version="deepsparse",
                                      block_count=16, iterations=1,
                                      seed=i)
                    with lock:
                        outcomes.append(("ok", p["source"]))
                except ServiceError as e:
                    with lock:
                        outcomes.append((e.status, e.retry_after_s))

        crew = [threading.Thread(target=cold, args=(i,))
                for i in range(5)]
        for t in crew:
            t.start()
        for t in crew:
            t.join()
        with ServiceClient(port=bg.port) as c:
            m = c.metrics()
    rejected = [o for o in outcomes if o[0] == 429]
    served = [o for o in outcomes if o[0] == "ok"]
    assert rejected, outcomes          # the backlog bound actually bit
    assert served                      # and admitted work still ran
    for _status, retry_after in rejected:
        assert retry_after is not None and retry_after > 0
    assert m["requests"]["rejected_busy"] == len(rejected)
    assert m["computations"] == len(served)


def test_drain_finishes_inflight_and_503s_new_work(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_TEST_DELAY", "0.8")
    with BackgroundService(_config(tmp_path)) as bg:
        inflight = {}

        def slow():
            with ServiceClient(port=bg.port) as c:
                inflight.update(c.submit_cell(**CELL))

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.25)               # cold cell now genuinely running
        drainer = threading.Thread(target=bg.drain)
        drainer.start()
        time.sleep(0.1)
        with ServiceClient(port=bg.port) as probe:
            status, payload = probe.request("POST", "/v1/cell",
                                            dict(CELL))
            assert status == 503
            assert payload["error"] == "draining"
            hstatus, health = probe.request("GET", "/healthz")
            assert hstatus == 200 and health["status"] == "draining"
        t.join()
        drainer.join()
    # The in-flight request was not dropped: it finished and computed.
    assert inflight["source"] == "computed"
    assert inflight["status"] == 200


def test_sigterm_drains_subprocess_exit_zero(tmp_path, monkeypatch):
    """The real thing: a daemon subprocess, SIGTERM mid-flight.

    In-flight work finishes (the response arrives *after* the signal),
    new work is refused, the audit log is published atomically, and
    the process exits 0.
    """
    audit = str(tmp_path / "audit.jsonl")
    proc, port = spawn_server(jobs=0, audit=audit, extra_env={
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_SERVE_TEST_DELAY": "1.2",
    })
    try:
        result = {}

        def slow():
            with ServiceClient(port=port, timeout=60) as c:
                result.update(c.submit_cell(**CELL))

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.4)                # request in flight in the daemon
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=60)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert rc == 0
    assert result.get("status") == 200
    assert result.get("source") == "computed"
    # Audit published (no .part remnant) with the request on record.
    assert os.path.exists(audit)
    assert not os.path.exists(audit + ".part")
    events = list(read_jsonl(audit))
    assert any(e.path == "/v1/cell" and e.status == 200 for e in events)


# ----------------------------------------------------------------------
# Sweeps, failures, audit, observability
# ----------------------------------------------------------------------
def test_sweep_dedupes_equivalent_cells(tmp_path):
    """libcsr ignores block count, so a block-count sweep of libcsr
    cells collapses onto one cache key — the service must compute it
    once and serve the rest from the same flight/cache."""
    with BackgroundService(_config(tmp_path)) as bg:
        with ServiceClient(port=bg.port) as c:
            sweep = c.submit_sweep(matrices=["inline1"],
                                   versions=["libcsr"],
                                   block_counts=[8, 16, 32, 64],
                                   iterations=1)
            m = c.metrics()
    assert sweep["n_cells"] == 4
    assert all(e["status"] == 200 for e in sweep["cells"])
    assert len({e["key"] for e in sweep["cells"]}) == 1
    assert m["computations"] == 1
    bodies = {json.dumps(e["summary"], sort_keys=True)
              for e in sweep["cells"]}
    assert len(bodies) == 1


def test_sweep_and_singles_coalesce_across_endpoints(tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_TEST_DELAY", "0.4")
    with BackgroundService(_config(tmp_path)) as bg:
        out = {}

        def sweep():
            with ServiceClient(port=bg.port) as c:
                out["sweep"] = c.submit_sweep(matrices=["inline1"],
                                              versions=["libcsr"],
                                              iterations=1)

        def single():
            with ServiceClient(port=bg.port) as c:
                out["single"] = c.submit_cell(**CELL)

        ts = [threading.Thread(target=sweep),
              threading.Thread(target=single)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        with ServiceClient(port=bg.port) as c:
            m = c.metrics()
    # Same key via two endpoints concurrently -> one computation.
    assert out["sweep"]["cells"][0]["key"] == out["single"]["key"]
    assert m["computations"] == 1


def _failing_worker(config):
    raise WorkerFailure(
        "ValueError: synthetic worker failure",
        "Traceback (most recent call last):\n"
        "ValueError: synthetic worker failure")


def test_worker_failure_surfaces_500_with_stderr_tail(tmp_path):
    cfg = _config(tmp_path, worker=_failing_worker, attempts=2,
                  backoff=0.0)
    with BackgroundService(cfg) as bg:
        with ServiceClient(port=bg.port) as c:
            with pytest.raises(ServiceError) as e:
                c.submit_cell(**CELL)
            m = c.metrics()
    assert e.value.status == 500
    assert "synthetic worker failure" in str(e.value)
    assert "Traceback" in e.value.payload["stderr_tail"]
    assert m["requests"]["error"] == 1
    assert m["worker_retries"] == 1      # attempts=2 -> one retry
    assert m["computations"] == 0        # a failure is not a result


def test_failed_cell_is_not_cached_and_recomputes(tmp_path):
    calls = {"n": 0}
    with BackgroundService(_config(tmp_path)) as bg:
        # First flight fails (worker swapped in-place: inline mode
        # calls it directly), second succeeds and must actually run.
        real = bg.service.pool.worker

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise WorkerFailure("RuntimeError: first call dies", "")
            return real(config)

        bg.service.pool.worker = flaky
        bg.service.pool.attempts = 1
        with ServiceClient(port=bg.port) as c:
            with pytest.raises(ServiceError):
                c.submit_cell(**CELL)
            p = c.submit_cell(**CELL)
    assert p["source"] == "computed"
    assert calls["n"] == 2


def test_audit_log_records_every_request(tmp_path):
    audit = str(tmp_path / "audit.jsonl")
    with BackgroundService(_config(tmp_path, audit_path=audit)) as bg:
        with ServiceClient(port=bg.port) as c:
            c.submit_cell(**CELL)
            c.submit_cell(**CELL)
            c.request("POST", "/v1/cell", {"matrix": "bogus"})
            c.request("GET", "/nowhere")
            c.healthz()     # observability: not audited
            c.metrics()
    events = list(read_jsonl(audit))
    assert [e.kind for e in events] == ["audit"] * 4
    by_source = [e.source for e in events]
    assert by_source.count("computed") == 1
    assert by_source.count("cache") == 1
    assert by_source.count("invalid") == 2
    computed = next(e for e in events if e.source == "computed")
    assert computed.key and computed.status == 200
    assert computed.latency_s > 0
    assert all(e.wall > 0 for e in events)


def test_healthz_and_metrics_shapes(tmp_path):
    from repro.sim.cost import COST_MODEL_VERSION

    with BackgroundService(_config(tmp_path)) as bg:
        with ServiceClient(port=bg.port) as c:
            health = c.healthz()
            c.submit_cell(**CELL)
            m = c.metrics()
    assert health["status"] == "ok"
    assert health["jobs"] == 0
    assert m["cost_model_version"] == COST_MODEL_VERSION
    assert m["queue"]["backlog"] == 64
    assert m["pool"] == {"jobs": 0, "mode": "inline", "rebuilds": 0}
    assert m["requests_total"] == 1
    assert set(m["requests"]) == {
        "cache", "coalesced", "computed", "rejected_busy",
        "rejected_draining", "invalid", "error"}
    assert m["result_cache"]["writes"] == 1


def test_http_errors_from_service(tmp_path):
    with BackgroundService(_config(tmp_path)) as bg:
        with ServiceClient(port=bg.port) as c:
            cases = [
                ("GET", "/v1/cell", None, 405),
                ("POST", "/v1/sweep", {"matrices": []}, 400),
                ("POST", "/v1/sweep", {"wat": 1}, 400),
                ("POST", "/v1/cell", {"matrix": "inline1",
                                      "bogus": True}, 400),
            ]
            for method, path, doc, want in cases:
                status, payload = c.request(method, path, doc)
                assert status == want, (method, path, payload)
                assert "error" in payload
            # malformed JSON straight onto the wire
            status, payload = c.request("POST", "/v1/cell", None)
            assert status == 400


def test_deeply_nested_json_body_is_400_not_500(tmp_path):
    import http.client

    with BackgroundService(_config(tmp_path)) as bg:
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
        try:
            conn.request("POST", "/v1/cell", body=b"[" * 100000,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()
        with ServiceClient(port=bg.port) as c:
            assert c.healthz()["status"] == "ok"


def test_cli_submit_against_daemon(tmp_path, capsys):
    from repro.cli import main as cli_main

    with BackgroundService(_config(tmp_path)) as bg:
        rc = cli_main(["submit", "--port", str(bg.port),
                       "--matrix", "inline1", "--version", "libcsr",
                       "--iterations", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inline1" in out and "computed" in out
        rc = cli_main(["submit", "--port", str(bg.port),
                       "--matrix", "inline1", "--version", "libcsr",
                       "--iterations", "1", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["source"] == "cache"


def test_cli_submit_unreachable_daemon(capsys):
    from repro.cli import main as cli_main

    rc = cli_main(["submit", "--port", "1", "--matrix", "inline1"])
    assert rc == 1
    assert "cannot reach daemon" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Client keep-alive retry policy
# ----------------------------------------------------------------------
class _RawHttpServer(threading.Thread):
    """A bare socket server for exercising the client's transport.

    ``respond=True``: serves one well-formed keep-alive response per
    connection, then slams the connection shut — so the *next* request
    on that connection always hits a stale socket, deterministically.
    ``respond=False``: accepts and immediately closes (a server that
    is up but never answers).  ``accepted`` counts connections, which
    is how the tests observe whether the client silently retried.
    """

    def __init__(self, respond: bool = True):
        super().__init__(daemon=True)
        import socket as _socket

        self.respond = respond
        self.accepted = 0
        self._sock = _socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._shutdown = threading.Event()

    def run(self):
        self._sock.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                continue
            self.accepted += 1
            try:
                if self.respond:
                    conn.settimeout(5)
                    buf = b""
                    while b"\r\n\r\n" not in buf:
                        buf += conn.recv(4096)
                    head = buf.split(b"\r\n\r\n", 1)[0].lower()
                    for line in head.split(b"\r\n"):
                        if line.startswith(b"content-length:"):
                            want = int(line.split(b":", 1)[1])
                            body = buf.split(b"\r\n\r\n", 1)[1]
                            while len(body) < want:
                                body += conn.recv(4096)
                    payload = b'{"ok": true}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n"
                        b"Connection: keep-alive\r\n\r\n" % len(payload)
                        + payload)
            finally:
                conn.close()   # the lie: keep-alive advertised, closed

    def stop(self):
        self._shutdown.set()
        self.join(timeout=5)
        self._sock.close()


def test_client_retries_stale_keepalive_once(tmp_path):
    """Regression: a connection parked past the server's keep-alive
    close must be retried transparently on a fresh socket — the
    second request succeeds instead of surfacing RemoteDisconnected."""
    server = _RawHttpServer(respond=True)
    server.start()
    try:
        with ServiceClient(port=server.port) as c:
            s1, p1 = c.request("GET", "/healthz")
            # The server closed the connection after responding; this
            # request goes out on the stale socket first.
            s2, p2 = c.request("GET", "/healthz")
        assert (s1, p1) == (200, {"ok": True})
        assert (s2, p2) == (200, {"ok": True})
        # First request: 1 connection.  Second: stale attempt consumed
        # nothing server-side, retry opened connection #2.
        assert server.accepted == 2
    finally:
        server.stop()


def test_client_does_not_retry_fresh_connection_failures():
    """A server that dies without answering a *fresh* connection must
    surface immediately — retrying could double-submit against a
    half-alive service, and hides real outages."""
    server = _RawHttpServer(respond=False)
    server.start()
    try:
        with ServiceClient(port=server.port, timeout=5) as c:
            with pytest.raises(OSError):
                c.request("GET", "/healthz")
        deadline = time.time() + 2
        while server.accepted < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert server.accepted == 1   # no silent second attempt
    finally:
        server.stop()
