"""Faulted runs must not change a single simulated number.

``tests/fixtures/fault_equivalence.json`` freezes, for every solver
version under three fault plans, what a faulted run produces: total
and per-iteration times, the performance counters, the full
:class:`~repro.faults.FaultReport`, and sha256 digests of the per-task
flow records and of the traced event stream.  The engine's healthy,
taped and faulted paths share one event loop (and BSP one phase
loop), so any edit to that loop is pinned here for the faulted half
and by ``engine_equivalence.json`` / ``golden_traces.json`` for the
healthy half.  Floats are compared with ``==`` and digested through
``repr`` — not ``pytest.approx``.

If a change *intends* to alter faulted numbers, regenerate the fixture
in the same commit; see the note at the bottom of this file.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.analysis.experiment import run_version
from repro.faults import CoreLoss, FaultPlan, SlowCore, TaskFaults
from repro.trace import InMemorySink, Tracer
from repro.trace.events import event_to_dict

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "fault_equivalence.json")

VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")
CELL = dict(machine="broadwell", matrix="inline1", solver="lanczos",
            block_count=16, iterations=5)

#: Named plans plus one mixed plan whose slow core is also the BSP
#: recovery core (core 0 dies, core 1 is derated), so the derate rule
#: is exercised on live lanes, on retries and on the serial catch-up.
PLANS = {
    "chaos": FaultPlan.from_spec("chaos", seed=0),
    "core-loss": FaultPlan.from_spec("core-loss", seed=0),
    "mixed": FaultPlan(
        spec="mixed", seed=0,
        slow=(SlowCore(selector=1, factor=2.0, onset=1),),
        losses=(CoreLoss(selector="first", at=2),),
        task_faults=TaskFaults(rate=0.08, budget=2, backoff=5e-6),
    ),
}

with open(FIXTURE, "r", encoding="utf-8") as _f:
    _CELLS = json.load(_f)

assert set(_CELLS) == {f"{v}/{p}" for v in VERSIONS for p in PLANS}, \
    "fixture must cover every version x plan"


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _observed(version: str, plan_name: str) -> dict:
    plan = PLANS[plan_name]
    args = (CELL["machine"], CELL["matrix"], CELL["solver"], version)
    kw = dict(block_count=CELL["block_count"],
              iterations=CELL["iterations"], faults=plan)
    res = run_version(*args, **kw)
    tracer = Tracer(InMemorySink())
    traced = run_version(*args, tracer=tracer, **kw)
    flow = [tuple(r) for r in res.flow.records]
    # Tracing is observational under faults too.
    assert [tuple(r) for r in traced.flow.records] == flow
    assert traced.total_time == res.total_time
    events = [json.dumps(event_to_dict(e), sort_keys=True)
              for e in tracer.events]
    return {
        "total_time": res.total_time,
        "iteration_times": list(res.iteration_times),
        "counters": res.counters.to_dict(),
        "fault_report": res.fault_report.to_dict(),
        "flow_sha256": _digest(flow),
        "trace_sha256": _digest(events),
    }


@pytest.mark.parametrize("key", sorted(_CELLS))
def test_faulted_run_matches_frozen(key):
    version, plan_name = key.split("/")
    got = json.loads(json.dumps(_observed(version, plan_name)))
    expected = _CELLS[key]
    for field, exp in expected.items():
        assert got[field] == exp, (
            f"{key}: {field} drifted\n  expected {exp!r}\n  got      "
            f"{got[field]!r}"
        )


# Fixture regeneration (only when faulted numbers are meant to move):
#
#   PYTHONPATH=src:. python - <<'EOF'
#   import json
#   from tests.test_fault_equivalence import (FIXTURE, PLANS, VERSIONS,
#                                             _observed)
#   out = {f"{v}/{p}": _observed(v, p) for v in VERSIONS for p in PLANS}
#   json.dump(out, open(FIXTURE, "w"), indent=1, sort_keys=True)
#   EOF
