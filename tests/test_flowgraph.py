"""Flow graph reductions: envelopes, overlap, utilization, Gantt text.

The production aggregates are folded as tasks record
(:meth:`FlowGraph.record`).  The naive reference below is the
one-walk-per-aggregate implementation the fold replaced; the fold must
equal it bit for bit, dict key order included, on synthetic records and
on real simulated cells (every version, replayed iterations, traced
runs, records kept or not).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiment import run_version
from repro.sim.flowgraph import FlowGraph, FlowRecord, FlowSummary
from repro.trace import InMemorySink, Tracer


# -- naive reference: one walk per aggregate ---------------------------
def _ref_envelopes(records):
    env = {}
    for r in records:
        lo, hi = env.get(r.kernel, (r.start, r.end))
        env[r.kernel] = (min(lo, r.start), max(hi, r.end))
    return env


def _ref_overlap_fraction(records):
    env = sorted(_ref_envelopes(records).values())
    if len(env) < 2:
        return 0.0
    total = sum(hi - lo for lo, hi in env)
    if total <= 0:
        return 0.0
    overlap = 0.0
    for i, (lo1, hi1) in enumerate(env):
        for lo2, hi2 in env[i + 1:]:
            if lo2 >= hi1:
                break
            overlap += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return min(1.0, overlap / total)


def _ref_core_busy(records):
    busy = {}
    for r in records:
        busy[r.core] = busy.get(r.core, 0.0) + (r.end - r.start)
    return busy


def _ref_spans(records):
    spans = {}
    for r in records:
        lo, hi = spans.get(r.iteration, (r.start, r.end))
        spans[r.iteration] = (min(lo, r.start), max(hi, r.end))
    return spans


def reference_summary(records):
    return FlowSummary(
        n_records=len(records),
        makespan=max((r.end for r in records), default=0.0),
        envelopes=_ref_envelopes(records),
        overlap_fraction=_ref_overlap_fraction(records),
        core_busy=_ref_core_busy(records),
        spans=_ref_spans(records),
    )


def assert_bit_identical(got: FlowSummary, want: FlowSummary):
    """``repr``-level equality (JSON floats) including dict key order."""
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert list(got.envelopes) == list(want.envelopes)
    assert list(got.core_busy) == list(want.core_busy)
    assert list(got.spans) == list(want.spans)


def make_flow(records):
    f = FlowGraph()
    for tid, kernel, core, s, e, it in records:
        f.record(tid, kernel, core, s, e, it)
    return f


def test_empty_flow():
    f = FlowGraph()
    assert f.makespan == 0.0
    assert f.kernel_overlap_fraction() == 0.0
    assert f.utilization(4) == 0.0
    assert "(empty" in f.to_gantt()


def test_envelopes():
    f = make_flow([
        (0, "SPMM", 0, 0.0, 1.0, 0),
        (1, "SPMM", 1, 0.5, 2.0, 0),
        (2, "XY", 0, 1.0, 3.0, 0),
    ])
    env = f.kernel_envelopes()
    assert env["SPMM"] == (0.0, 2.0)
    assert env["XY"] == (1.0, 3.0)
    assert f.makespan == 3.0


def test_overlap_fraction_phased_vs_pipelined():
    phased = make_flow([
        (0, "A", 0, 0.0, 1.0, 0),
        (1, "B", 0, 1.0, 2.0, 0),
    ])
    assert phased.kernel_overlap_fraction() == 0.0
    pipelined = make_flow([
        (0, "A", 0, 0.0, 2.0, 0),
        (1, "B", 1, 0.0, 2.0, 0),
    ])
    assert pipelined.kernel_overlap_fraction() == pytest.approx(0.5)


def test_core_busy_and_utilization():
    f = make_flow([
        (0, "A", 0, 0.0, 2.0, 0),
        (1, "A", 1, 0.0, 1.0, 0),
    ])
    busy = f.core_busy_time()
    assert busy == {0: 2.0, 1: 1.0}
    assert f.utilization(2) == pytest.approx(3.0 / 4.0)


def test_iteration_spans():
    f = make_flow([
        (0, "A", 0, 0.0, 1.0, 0),
        (1, "A", 0, 1.0, 2.5, 1),
    ])
    spans = f.iteration_spans()
    assert spans[0] == (0.0, 1.0)
    assert spans[1] == (1.0, 2.5)


def test_gantt_renders_all_cores_and_legend():
    f = make_flow([
        (0, "SPMM", 0, 0.0, 1.0, 0),
        (1, "XY", 3, 1.0, 2.0, 0),
    ])
    text = f.to_gantt(width=40)
    assert "A=SPMM" in text and "B=XY" in text
    assert "core   0" in text and "core   3" in text
    assert "A" in text.splitlines()[1]


def test_summary_gantt_draws_kernel_envelopes():
    """Without records (cached summary, ``record_flow=False``) the chart
    draws one bar per kernel envelope across the makespan."""
    recs = [(0, "SPMM", 0, 0.0, 1.0, 0), (1, "XY", 3, 1.0, 2.0, 0)]
    summary = make_flow(recs).summary()
    text = summary.to_gantt(width=21)
    lines = text.splitlines()
    assert lines[0].startswith("makespan 2000.000 ms")
    assert lines[1] == "SPMM |" + "A" * 11 + " " * 10 + "|"
    assert lines[2] == "  XY |" + " " * 10 + "B" * 11 + "|"
    assert "record_flow=True" in lines[-1]
    assert "cold cache" not in text
    dropped = FlowGraph(keep=False)
    for r in recs:
        dropped.record(*r)
    assert dropped.to_gantt(width=21) == text
    assert FlowSummary.from_dict(summary.to_dict()).to_gantt(21) == text
    assert FlowSummary().to_gantt() == "(empty flow graph)"


# -- differential: fold vs reference -----------------------------------
# Small pools make ties (equal starts/ends, repeated keys) common, and
# -0.0 vs 0.0 is the one tie whose winner shows in the output, which
# pins the replace-only-on-strict rule; the free floats exercise
# rounding in the busy sums and overlap math.
_times = st.one_of(st.sampled_from([0.0, -0.0, 1e-6, 2.5e-6, 3e-6]),
                   st.floats(0.0, 1e-3, allow_nan=False))
_durations = st.one_of(st.just(0.0), st.sampled_from([1e-6, 5e-7]),
                       st.floats(0.0, 1e-4, allow_nan=False))
_records = st.lists(st.tuples(
    st.integers(0, 50),
    st.sampled_from(["SPMM", "XY", "XTY", "DOT"]),
    st.integers(0, 3),
    _times,
    _durations,
    st.integers(0, 3),
), max_size=40)


@given(_records)
@settings(max_examples=300, deadline=None)
def test_fold_matches_reference_bit_for_bit(rows):
    f = make_flow([(tid, k, c, s, s + d, it)
                   for tid, k, c, s, d, it in rows])
    assert all(type(r) is FlowRecord for r in f.records)
    want = reference_summary(f.records)
    assert_bit_identical(f.summary(), want)
    assert repr(f.makespan) == repr(want.makespan)
    assert repr(f.kernel_overlap_fraction()) == repr(want.overlap_fraction)
    assert repr(f.utilization(4)) == repr(want.utilization(4))
    # Records dropped: the same fold, the same summary.
    lean = FlowGraph(keep=False)
    for r in f.records:
        lean.record(*r)
    assert lean.records == [] and len(lean) == len(f)
    assert_bit_identical(lean.summary(), want)


@pytest.mark.parametrize("rows", [
    [],
    [(0, "A", 0, 1.0, 1.0, 0)],
    [(0, "A", 0, 0.0, 1.0, 0), (1, "A", 1, 0.0, 1.0, 0),
     (2, "B", 0, 1.0, 1.0, 1), (3, "A", 0, 1.0, 2.0, 1)],
    # Signed-zero ends: the first-seen -0.0 must survive a 0.0 tie.
    [(0, "A", 0, -0.0, -0.0, 0), (1, "A", 1, 0.0, 0.0, 0)],
])
def test_fold_edge_cases(rows):
    f = make_flow(rows)
    assert_bit_identical(f.summary(), reference_summary(f.records))


# -- fold battery: real simulated cells --------------------------------
VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")


def _cell(version, **kw):
    kw.setdefault("iterations", 6)
    return run_version("broadwell", "inline1", "lanczos", version,
                       block_count=16, **kw)


def test_engine_cell_summary_matches_reference(monkeypatch):
    """Real simulated cells, steady-state replay armed: the fold and the
    reference agree on the serialized summary the result cache and the
    service hand out, replayed records included (BSP's charge-tape
    replay, the engine's ``_replay_iterations``; HPX never replays)."""
    monkeypatch.delenv("REPRO_NO_STEADY_STATE", raising=False)
    for version in VERSIONS:
        res = _cell(version)
        assert (res.steady_state_at is None) == (version == "hpx"), version
        assert len(res.flow.records) == 6 * res.n_tasks_per_iteration
        assert_bit_identical(res.summary().flow,
                             reference_summary(res.flow.records))


@pytest.mark.parametrize("version", VERSIONS)
def test_fold_traced_matches_untraced(version, monkeypatch):
    monkeypatch.delenv("REPRO_NO_STEADY_STATE", raising=False)
    plain = _cell(version)
    traced = _cell(version, tracer=Tracer(InMemorySink()))
    assert_bit_identical(traced.summary().flow, plain.summary().flow)
    assert_bit_identical(traced.summary().flow,
                         reference_summary(traced.flow.records))


@pytest.mark.parametrize("version", VERSIONS)
def test_summary_independent_of_record_flow(version):
    """``record_flow=False`` drops the records, never the summary."""
    kept = _cell(version)
    dropped = _cell(version, record_flow=False)
    assert dropped.flow.records == []
    assert len(dropped.flow) == len(kept.flow) > 0
    assert dropped.summary().flow.makespan > 0.0
    assert json.dumps(dropped.summary().to_dict()) == \
        json.dumps(kept.summary().to_dict())
