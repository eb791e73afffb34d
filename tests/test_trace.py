"""Unit tests for the observability layer itself (:mod:`repro.trace`).

Golden/property tests pin what the *engines* emit; this module tests
the package's own machinery: the event vocabulary and its dict/JSON
round-trip, both sinks, the Chrome trace-event export, the metrics
fold, and the trace-backed renderers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.experiment import run_version
from repro.analysis.gantt import render_gantt, render_trace
from repro.trace import (
    BarrierEvent,
    CacheSampleEvent,
    InMemorySink,
    JSONLSink,
    MissBurstEvent,
    NumaSampleEvent,
    PollEvent,
    QueueDepthEvent,
    StealEvent,
    TaskEvent,
    Tracer,
    event_from_dict,
    event_to_dict,
    metrics_from_events,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)

_ALL_EVENTS = [
    TaskEvent(3, "SPMV", 5, 0.1, 0.2, 1, 0.01, 0.05, 0.04, 10, 4, 2),
    TaskEvent(4, "DOT", 0, 0.2, 0.3, 1, 0.0, 0.1, 0.0, 0, 0, 0, True),
    BarrierEvent(0, 0.0, 0.9, 1.0),
    BarrierEvent(1, 1.0, 1.9, 2.0, True),
    QueueDepthEvent(0.15, 7),
    StealEvent(0.2, 3, 9, 42),
    PollEvent(0.25, 2),
    CacheSampleEvent(0, 0.9, "L2", 1024.0, 2048.0),
    MissBurstEvent(0, 0.9, "L3", 5, 12, 60),
    NumaSampleEvent(0, 0.9, (10, 20)),
]


def _run_traced(version="deepsparse", iterations=4, sink=None):
    tracer = Tracer(sink if sink is not None else InMemorySink())
    res = run_version("broadwell", "inline1", "lanczos", version,
                      block_count=16, iterations=iterations,
                      tracer=tracer)
    return res, tracer


# ---------------------------------------------------------------- events
@pytest.mark.parametrize("ev", _ALL_EVENTS, ids=lambda e: e.kind)
def test_event_dict_round_trip(ev):
    d = event_to_dict(ev)
    assert d["kind"] == ev.kind
    back = event_from_dict(json.loads(json.dumps(d)))
    assert back == ev
    assert type(back) is type(ev)


def test_event_from_dict_rejects_unknown_kind():
    # "fault" was a kind once: traces written with it fail closed.
    for d in ({"kind": "nope"}, {"kind": "fault"}):
        with pytest.raises(KeyError):
            event_from_dict(d)


def test_task_event_synthesized_defaults_false():
    ev = TaskEvent(0, "XY", 0, 0.0, 1.0, 0, 0.0, 1.0, 0.0, 0, 0, 0)
    assert ev.synthesized is False


# ----------------------------------------------------------------- sinks
def test_jsonl_sink_round_trips_a_real_run(tmp_path):
    path = str(tmp_path / "events.jsonl")
    mem_res, mem_tracer = _run_traced()
    with JSONLSink(path) as sink:
        jl_res, jl_tracer = _run_traced(sink=sink)
        n = sink.n_events
    assert jl_res.total_time == mem_res.total_time
    reloaded = list(read_jsonl(path))
    assert len(reloaded) == n == len(mem_tracer.events)
    assert reloaded == mem_tracer.events
    # Streaming sinks retain nothing: .events must refuse, not lie.
    with pytest.raises(TypeError):
        jl_tracer.events


def test_jsonl_sink_borrowed_file_not_closed(tmp_path):
    path = tmp_path / "ev.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        sink = JSONLSink(f)
        sink.emit(_ALL_EVENTS[0])
        sink.close()
        assert not f.closed  # borrowed handle stays open
    assert list(read_jsonl(str(path))) == [_ALL_EVENTS[0]]


def test_jsonl_sink_writes_part_file_until_closed(tmp_path):
    """Owned mode streams to <path>.part and publishes atomically on
    close, so a reader never sees a half-written trace at `path`."""
    path = str(tmp_path / "events.jsonl")
    sink = JSONLSink(path)
    sink.emit(_ALL_EVENTS[0])
    assert os.path.exists(path + ".part")
    assert not os.path.exists(path)
    sink.close()
    assert os.path.exists(path)
    assert not os.path.exists(path + ".part")
    assert list(read_jsonl(path)) == [_ALL_EVENTS[0]]
    sink.close()  # idempotent


def test_jsonl_sink_exception_leaves_no_file_behind(tmp_path):
    """Regression: a traced run that raises mid-stream must leave
    neither `path` nor a stale `.part` — a half-written trace used to
    survive and masquerade as a complete one."""
    path = str(tmp_path / "events.jsonl")
    with pytest.raises(RuntimeError, match="simulated failure"):
        with JSONLSink(path) as sink:
            sink.emit(_ALL_EVENTS[0])
            raise RuntimeError("simulated failure")
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".part")


def test_jsonl_sink_abort_is_explicit_and_idempotent(tmp_path):
    path = str(tmp_path / "events.jsonl")
    sink = JSONLSink(path)
    sink.emit(_ALL_EVENTS[0])
    sink.abort()
    sink.abort()
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".part")


# ---------------------------------------------------------- chrome export
def test_chrome_trace_covers_every_task_and_is_valid_json(tmp_path):
    res, tracer = _run_traced()
    doc = to_chrome_trace(tracer)
    # Valid JSON Object Format.
    blob = json.dumps(doc)
    back = json.loads(blob)
    assert set(back) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert back["displayTimeUnit"] == "ms"
    assert back["otherData"]["machine"] == "broadwell"
    evs = back["traceEvents"]
    # One "X" complete event per executed task, on the task's lane.
    tasks = [e for e in evs if e["ph"] == "X"
             and e["cat"] in ("task", "replay")
             and e["name"] != "barrier"]
    assert len(tasks) == res.counters.tasks_executed
    # Per-task miss args sum exactly to the engine's counters.
    assert sum(e["args"]["l1_misses"] for e in tasks) == \
        res.counters.l1_misses
    assert sum(e["args"]["l2_misses"] for e in tasks) == \
        res.counters.l2_misses
    assert sum(e["args"]["l3_misses"] for e in tasks) == \
        res.counters.l3_misses
    # Tile coordinates resolve through the DAG for block tasks.
    spmv = [e for e in tasks if e["name"] == "SPMV"]
    assert spmv and all("i" in e["args"] for e in spmv)
    # Replay-synthesized tasks are distinguishable.
    assert any(e["cat"] == "replay" for e in tasks)
    # Timestamps are microseconds: makespan in us matches total time.
    last = max(e["ts"] + e["dur"] for e in tasks)
    assert last == pytest.approx(
        max(r.end for r in res.flow.records) * 1e6)
    # Lane metadata: a thread_name per used core, plus the runtime lane.
    names = {e["args"]["name"] for e in evs if e["ph"] == "M"
             and e["name"] == "thread_name"}
    used = {e["tid"] for e in tasks}
    assert {f"core {c}" for c in used} <= names
    assert "runtime" in names
    # write_chrome_trace produces the same document on disk.
    path = write_chrome_trace(str(tmp_path / "t.json"), tracer)
    with open(path, "r", encoding="utf-8") as f:
        assert json.load(f) == back


def test_chrome_trace_from_reloaded_events(tmp_path):
    """Offline export: JSONL file -> events -> identical traceEvents."""
    path = str(tmp_path / "events.jsonl")
    _, mem_tracer = _run_traced()
    with JSONLSink(path) as sink:
        _run_traced(sink=sink)
    live = to_chrome_trace(mem_tracer)
    offline = to_chrome_trace(events=read_jsonl(path),
                              meta=mem_tracer.meta, dag=mem_tracer.dag)
    assert offline["traceEvents"] == live["traceEvents"]


def test_chrome_trace_requires_events():
    with pytest.raises(ValueError):
        to_chrome_trace()


# ---------------------------------------------------------------- metrics
def test_metrics_fold_on_synthetic_stream():
    events = [
        TaskEvent(0, "SPMV", 0, 0.0, 0.4, 0, 0.0, 0.4, 0.0, 5, 3, 1),
        QueueDepthEvent(0.0, 2),
        QueueDepthEvent(0.2, 4),
        StealEvent(0.3, 1, 0, 9),
        TaskEvent(1, "DOT", 1, 0.4, 0.8, 0, 0.0, 0.4, 0.0, 1, 1, 1),
        CacheSampleEvent(0, 0.8, "L3", 50.0, 100.0),
        BarrierEvent(0, 0.0, 0.8, 1.0),
        # Iteration 1: replayed, no scheduler events, no cache sample
        # (occupancy carries forward).
        TaskEvent(0, "SPMV", 0, 1.0, 1.4, 1, 0.0, 0.4, 0.0, 5, 3, 1,
                  True),
        TaskEvent(1, "DOT", 1, 1.4, 1.8, 1, 0.0, 0.4, 0.0, 1, 1, 1,
                  True),
        BarrierEvent(1, 1.0, 1.8, 2.0, True),
    ]
    table = metrics_from_events(events, n_cores=2)
    assert len(table) == 2
    r0, r1 = table.rows
    assert (r0.tasks, r0.steals, r0.queue_depth_max) == (2, 1, 4)
    assert r0.queue_depth_mean == pytest.approx(3.0)
    assert r0.l1_misses == 6 and r0.l3_misses == 2
    assert r0.busy_time == pytest.approx(0.8)
    assert r0.idle_fraction == pytest.approx(1.0 - 0.8 / (1.0 * 2))
    assert r0.cache_occupancy["L3"] == pytest.approx(0.5)
    assert not r0.synthesized
    assert r1.synthesized  # all tasks replayed + synthesized barrier
    assert r1.cache_occupancy["L3"] == pytest.approx(0.5)  # carried
    assert r1.steals == 0 and r1.queue_depth_max == 0
    # Serialisations agree on shape.
    d = table.to_dict()
    assert len(d["rows"]) == 2 and len(d["columns"]) == len(d["rows"][0])
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("iteration,")
    assert len(csv.splitlines()) == 3
    assert "yes" in table.render()


def test_metrics_rows_never_negative_on_real_run():
    _, tracer = _run_traced("regent")
    table = metrics_from_events(tracer.events, meta=tracer.meta)
    assert len(table) == 4
    for r in table:
        assert r.span > 0 and r.busy_time >= 0
        assert 0.0 <= r.idle_fraction <= 1.0
        assert r.queue_depth_max >= 0 and r.queue_depth_mean >= 0
        assert min(r.l1_misses, r.l2_misses, r.l3_misses) >= 0


# --------------------------------------------------------------- renderers
def test_render_trace_marks_replay_lowercase():
    _, tracer = _run_traced()
    text = render_trace(tracer)
    assert "deepsparse on broadwell" in text
    assert "kernel overlap fraction" in text
    assert "per-iteration metrics" in text
    gantt = render_gantt(tracer.events, width=60, max_cores=4)
    # The steady-state takeover is visible: replayed tasks render as
    # the lowercase of their honest letters.
    assert any(c.islower() for row in gantt.splitlines()[1:]
               for c in row)
    assert any(c.isupper() for row in gantt.splitlines()[1:]
               for c in row)


def test_render_gantt_empty_stream():
    assert render_gantt([]) == "(no task events)"
