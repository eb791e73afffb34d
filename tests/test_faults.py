"""Deterministic fault injection: plans, state, and engine behaviour.

Three layers:

* vocabulary — :func:`repro.faults.fault_hash` stability, plan
  validation, named-spec registry, dict round trips, core selectors;
* state — iteration-barrier semantics of deaths and straggler onsets,
  survivor validation, deterministic selector resolution;
* engines — an *empty* plan must change nothing (bit-identity with the
  fault path compiled out), seeded plans must be bit-identical across
  runs and processes, and the per-runtime recovery policies must
  actually separate (BSP stalls, the AMT runtimes absorb the loss).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.experiment import run_version
from repro.faults import (
    FAULT_SPECS,
    CoreLoss,
    FaultPlan,
    FaultState,
    SlowCore,
    TaskFaults,
    fault_hash,
    make_plan,
)
from repro.machine.presets import broadwell

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

ALL_VERSIONS = ["libcsr", "libcsb", "deepsparse", "hpx", "regent"]


def _observed(res) -> dict:
    c = res.counters
    return {
        "total_time": res.total_time,
        "iteration_times": list(res.iteration_times),
        "l1_misses": c.l1_misses,
        "l2_misses": c.l2_misses,
        "l3_misses": c.l3_misses,
        "tasks_executed": c.tasks_executed,
        "busy_time": c.busy_time,
        "overhead_time": c.overhead_time,
        "compute_time": c.compute_time,
        "memory_time": c.memory_time,
    }


# ----------------------------------------------------------------------
# fault_hash: the one source of randomness
# ----------------------------------------------------------------------
def test_fault_hash_is_uniform_unit_interval_and_deterministic():
    draws = [fault_hash(7, "task", it, tid, 0)
             for it in range(8) for tid in range(64)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert len(set(draws)) == len(draws)  # no collisions at this scale
    assert draws == [fault_hash(7, "task", it, tid, 0)
                     for it in range(8) for tid in range(64)]
    # Roughly uniform: the empirical mean of 512 u01 draws.
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_fault_hash_is_stable_across_processes():
    """No hash() / PYTHONHASHSEED leakage into fault decisions."""
    code = ("from repro.faults import fault_hash; "
            "print(repr(fault_hash(42, 'task', 3, 17, 1)))")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "999"},
    )
    assert out.stdout.strip() == repr(fault_hash(42, "task", 3, 17, 1))


def test_fault_hash_distinguishes_every_coordinate():
    base = fault_hash(0, "task", 1, 2, 3)
    assert fault_hash(1, "task", 1, 2, 3) != base
    assert fault_hash(0, "core", 1, 2, 3) != base
    assert fault_hash(0, "task", 2, 2, 3) != base
    assert fault_hash(0, "task", 1, 3, 3) != base
    assert fault_hash(0, "task", 1, 2, 4) != base


# ----------------------------------------------------------------------
# plan vocabulary
# ----------------------------------------------------------------------
def test_injection_validation():
    with pytest.raises(ValueError):
        SlowCore(factor=0.5)           # a speed-up is not a fault
    with pytest.raises(ValueError):
        SlowCore(onset=-1)
    with pytest.raises(ValueError):
        CoreLoss(at=-1)
    with pytest.raises(ValueError):
        TaskFaults(rate=1.0)           # certain failure never converges
    with pytest.raises(ValueError):
        TaskFaults(budget=-1)
    with pytest.raises(ValueError):
        TaskFaults(backoff=-1e-6)


def test_named_specs_build_and_unknown_spec_raises():
    for name in FAULT_SPECS:
        plan = make_plan(name, seed=3)
        assert plan.spec == name
        assert plan.seed == 3
        assert plan.is_empty == (name == "none")
    with pytest.raises(ValueError, match="unknown fault spec"):
        make_plan("meteor-strike")


@pytest.mark.parametrize("spec", sorted(FAULT_SPECS))
def test_plan_round_trips_through_json(spec):
    plan = FaultPlan.from_spec(spec, seed=11)
    back = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert back == plan


# ----------------------------------------------------------------------
# core selectors
# ----------------------------------------------------------------------
def test_select_cores_shapes():
    bw = broadwell()
    n = bw.n_cores
    assert bw.select_cores(5) == (5,)
    assert bw.select_cores("first") == (0,)
    assert bw.select_cores("last") == (n - 1,)
    dom0 = bw.select_cores("domain:0")
    assert dom0 and all(bw.core(c).numa_domain == 0 for c in dom0)
    sock0 = bw.select_cores("socket:0")
    assert set(dom0) <= set(sock0)
    with pytest.raises(ValueError):
        bw.select_cores("nonsense")
    with pytest.raises(IndexError):
        bw.select_cores(n)  # out of range


def test_select_cores_random_is_seeded_not_stateful():
    bw = broadwell()
    picks = {seed: bw.select_cores("random", seed=seed, salt="loss:0")
             for seed in range(32)}
    assert picks == {seed: bw.select_cores("random", seed=seed,
                                           salt="loss:0")
                     for seed in range(32)}
    assert all(len(p) == 1 and 0 <= p[0] < bw.n_cores
               for p in picks.values())
    assert len({p for p in picks.values()}) > 1  # seed actually matters
    # Distinct salts decorrelate the draws for the same seed.
    assert any(bw.select_cores("random", seed=s, salt="slow:0")
               != bw.select_cores("random", seed=s, salt="loss:0")
               for s in range(32))


# ----------------------------------------------------------------------
# FaultState: barrier semantics
# ----------------------------------------------------------------------
def test_state_barrier_protocol_and_views():
    bw = broadwell()
    plan = FaultPlan(
        spec="test", seed=0,
        slow=(SlowCore(selector=1, factor=3.0, onset=2),),
        losses=(CoreLoss(selector=0, at=1),),
        task_faults=TaskFaults(rate=0.5, budget=2, backoff=1e-6),
    )
    fs = FaultState(plan, bw)

    newly_dead, newly_slow = fs.begin_iteration(0)
    assert (newly_dead, newly_slow) == ([], [])
    assert fs.derates is None and not fs.dead(0)

    newly_dead, newly_slow = fs.begin_iteration(1)
    assert (newly_dead, newly_slow) == ([0], [])
    assert fs.dead(0) and fs.dead_cores == {0}
    assert fs.recovery_core == 1

    newly_dead, newly_slow = fs.begin_iteration(2)
    assert (newly_dead, newly_slow) == ([], [1])
    assert fs.dead(0)                      # still dead, not "newly"
    assert fs.factor(1) == 3.0 and fs.factor(2) == 1.0
    assert fs.derates[1] == 3.0

    assert fs.backoff_seconds(0) == 1e-6
    assert fs.backoff_seconds(2) == 4e-6
    decisions = [fs.task_fails(2, t, 0) for t in range(200)]
    assert any(decisions) and not all(decisions)   # rate in (0, 1)
    assert decisions == [fs.task_fails(2, t, 0) for t in range(200)]


def test_state_rejects_plans_that_kill_every_core():
    bw = broadwell()
    plan = FaultPlan(spec="apocalypse", seed=0,
                     losses=(CoreLoss("socket:0", 1),
                             CoreLoss("socket:1", 1)))
    with pytest.raises(ValueError, match="at least one must survive"):
        FaultState(plan, bw)


def test_dead_core_sheds_its_derate():
    bw = broadwell()
    plan = FaultPlan(spec="t", seed=0,
                     slow=(SlowCore(selector=3, factor=2.0, onset=0),),
                     losses=(CoreLoss(selector=3, at=2),))
    fs = FaultState(plan, bw)
    fs.begin_iteration(0)
    assert fs.factor(3) == 2.0
    fs.begin_iteration(2)
    assert fs.derates is None  # only slow core died -> no active derate


# ----------------------------------------------------------------------
# engines: identity, determinism, recovery separation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("version", ALL_VERSIONS)
def test_empty_plan_is_observationally_free(version):
    """faults=FaultPlan.empty() must not move a single number."""
    plain = run_version("broadwell", "inline1", "lanczos", version,
                        block_count=16, iterations=6)
    empty = run_version("broadwell", "inline1", "lanczos", version,
                        block_count=16, iterations=6,
                        faults=FaultPlan.empty())
    assert empty.fault_report is None
    assert _observed(empty) == _observed(plain)
    assert empty.steady_state_at == plain.steady_state_at
    assert [tuple(r) for r in empty.flow.records] == \
        [tuple(r) for r in plain.flow.records]


@pytest.mark.parametrize("version", ["libcsb", "deepsparse", "hpx"])
def test_seeded_plan_is_bit_identical_across_runs(version):
    for spec in ("chaos", "core-loss"):
        plan = FaultPlan.from_spec(spec, seed=0)
        a = run_version("broadwell", "inline1", "lanczos", version,
                        block_count=16, iterations=5, faults=plan)
        b = run_version("broadwell", "inline1", "lanczos", version,
                        block_count=16, iterations=5, faults=plan)
        assert _observed(a) == _observed(b), spec
        assert a.fault_report is not None
        assert a.fault_report.to_dict() == b.fault_report.to_dict(), spec


def test_seeded_plan_is_bit_identical_across_processes():
    """The decision stream must not depend on the process."""
    code = (
        "import json\n"
        "from repro.analysis.experiment import run_version\n"
        "from repro.faults import FaultPlan\n"
        "res = run_version('broadwell', 'inline1', 'lanczos', "
        "'deepsparse', block_count=16, iterations=5, "
        "faults=FaultPlan.from_spec('chaos', seed=0))\n"
        "print(json.dumps([res.total_time, "
        "list(res.iteration_times), res.fault_report.to_dict()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "54321"},
    )
    res = run_version("broadwell", "inline1", "lanczos", "deepsparse",
                      block_count=16, iterations=5,
                      faults=FaultPlan.from_spec("chaos", seed=0))
    child = json.loads(out.stdout)
    assert child == json.loads(json.dumps(
        [res.total_time, list(res.iteration_times),
         res.fault_report.to_dict()]
    ))


def test_slow_core_stretches_iterations_after_onset():
    plan = FaultPlan(spec="t", seed=0,
                     slow=(SlowCore(selector=0, factor=4.0, onset=2),))
    res = run_version("broadwell", "inline1", "lanczos", "libcsb",
                      block_count=48, iterations=5, faults=plan)
    healthy = run_version("broadwell", "inline1", "lanczos", "libcsb",
                          block_count=48, iterations=5)
    it = res.iteration_times
    # Pre-onset iterations are untouched; post-onset ones stretch (BSP
    # barriers wait for the slowest lane).
    assert it[0] == healthy.iteration_times[0]
    assert it[1] == healthy.iteration_times[1]
    assert it[2] > healthy.iteration_times[2]
    fr = res.fault_report
    assert fr.slow_cores == [[0, 4.0, 2]]
    assert fr.slow_time > 0.0
    assert res.total_time == pytest.approx(
        healthy.total_time + fr.slow_time, rel=0.5)


def test_core_loss_recovery_separates_the_runtimes():
    """The point of the whole exercise: BSP has no recovery policy, so
    its barrier absorbs the dead lane's share serially; the AMT
    runtimes redistribute and barely notice."""
    plan = FaultPlan.from_spec("core-loss", seed=0)  # random core, at=2
    results = {
        v: run_version("broadwell", "inline1", "lanczos", v,
                       block_count=48, iterations=5, faults=plan)
        for v in ("libcsb", "deepsparse", "hpx")
    }
    healthy = {
        v: run_version("broadwell", "inline1", "lanczos", v,
                       block_count=48, iterations=5)
        for v in ("libcsb", "deepsparse", "hpx")
    }
    lat = {v: r.fault_report.recovery_latency
           for v, r in results.items()}
    slow = {v: results[v].total_time / healthy[v].total_time
            for v in results}
    # BSP stalls: big latency, real slowdown, stall time accounted.
    assert lat["libcsb"] > 5 * max(abs(lat["deepsparse"]), 1e-9)
    assert lat["libcsb"] > 5 * abs(lat["hpx"])
    assert results["libcsb"].fault_report.stall_time > 0.0
    assert slow["libcsb"] > 1.2
    # AMT absorbs: mild slowdown, no stall accounting.
    for v in ("deepsparse", "hpx"):
        assert slow[v] < 1.15
        assert results[v].fault_report.stall_time == 0.0
    # Loss iteration recorded; latency surfaced per loss.
    (core, at, latency), = results["libcsb"].fault_report.core_losses
    assert at == 2 and latency == lat["libcsb"]
    assert 0 <= core < healthy["libcsb"].n_cores


@pytest.mark.parametrize("version", ["libcsb", "deepsparse"])
def test_task_faults_retry_and_charge_the_clock(version):
    plan = FaultPlan(spec="t", seed=1,
                     task_faults=TaskFaults(rate=0.08, budget=3,
                                            backoff=5e-6))
    res = run_version("broadwell", "inline1", "lanczos", version,
                      block_count=16, iterations=4, faults=plan)
    healthy = run_version("broadwell", "inline1", "lanczos", version,
                          block_count=16, iterations=4)
    fr = res.fault_report
    assert fr.retries > 0
    assert fr.re_executed_time > 0.0
    assert fr.backoff_time > 0.0
    assert res.total_time > healthy.total_time
    # Retries re-execute work — each one counts as another execution.
    assert res.counters.tasks_executed == \
        healthy.counters.tasks_executed + fr.retries


def test_zero_budget_abandons_instead_of_retrying():
    plan = FaultPlan(spec="t", seed=1,
                     task_faults=TaskFaults(rate=0.10, budget=0,
                                            backoff=5e-6))
    res = run_version("broadwell", "inline1", "lanczos", "deepsparse",
                      block_count=16, iterations=4, faults=plan)
    fr = res.fault_report
    assert fr.retries == 0
    assert fr.abandoned > 0
    assert fr.re_executed_time == 0.0


def test_fault_report_survives_summary_round_trip():
    plan = FaultPlan.from_spec("chaos", seed=0)
    res = run_version("broadwell", "inline1", "lanczos", "hpx",
                      block_count=16, iterations=5, faults=plan)
    summary = res.summary()
    assert summary.fault_report is not None
    back = type(summary).from_dict(json.loads(json.dumps(
        summary.to_dict())))
    assert back.fault_report == summary.fault_report
    assert back == summary
    # ...and a healthy summary keeps the field at None.
    plain = run_version("broadwell", "inline1", "lanczos", "hpx",
                        block_count=16, iterations=2).summary()
    assert plain.fault_report is None
    assert type(plain).from_dict(plain.to_dict()).fault_report is None


def test_faulted_run_emits_fault_and_recovery_trace_events():
    from repro.trace import InMemorySink, Tracer

    plan = FaultPlan.from_spec("core-loss", seed=0)
    tracer = Tracer(InMemorySink())
    res = run_version("broadwell", "inline1", "lanczos", "hpx",
                      block_count=48, iterations=5, faults=plan,
                      tracer=tracer)
    kinds = {e.kind for e in tracer.events}
    assert "fault" in kinds and "recovery" in kinds
    faults = [e for e in tracer.events if e.kind == "fault"]
    assert any(e.fault == "core-loss" for e in faults)
    (loss,) = [e for e in tracer.events if e.kind == "recovery"]
    assert loss.latency == res.fault_report.recovery_latency
    # The trace exports cleanly with fault events present.
    from repro.trace import to_chrome_trace
    doc = to_chrome_trace(tracer)
    names = {e.get("name") for e in doc["traceEvents"]}
    assert "core-loss" in names
