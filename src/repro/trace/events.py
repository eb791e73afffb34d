"""Trace event vocabulary for the observability layer.

Every event is a ``NamedTuple`` with a ``kind`` class attribute —
construction sits on the simulator's (traced) hot path, and tuples are
the cheapest structured record CPython offers.  The schema is the
contract between the emitting layers (engine, schedulers, machine
model), the sinks (:mod:`repro.trace.sink`), and the exporters
(:mod:`repro.trace.chrome`, :mod:`repro.trace.metrics`); DESIGN.md §7
documents it prose-side.

All timestamps are simulated seconds on the engine clock (the same
float values the :class:`~repro.sim.flowgraph.FlowRecord` trace and
``RunResult.iteration_times`` use), never wall time.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

__all__ = [
    "TaskEvent",
    "BarrierEvent",
    "QueueDepthEvent",
    "StealEvent",
    "PollEvent",
    "CacheSampleEvent",
    "MissBurstEvent",
    "NumaSampleEvent",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
]


class TaskEvent(NamedTuple):
    """One task execution on one worker lane.

    ``synthesized`` marks events emitted by the steady-state tape
    replay: the task was *not* re-simulated, but the event carries the
    exact times/charges the full simulation would have produced
    (anchored at the replayed iteration's start), so consumers may
    treat it identically and merely display the provenance.
    """

    kind = "task"

    tid: int
    kernel: str
    core: int
    start: float
    end: float
    iteration: int
    overhead: float
    compute: float
    memory: float
    l1: int
    l2: int
    l3: int
    synthesized: bool = False


class BarrierEvent(NamedTuple):
    """One iteration's barrier interval.

    ``start`` is the iteration's start time, ``compute_end`` the time
    the last task finished, ``end`` the post-barrier clock
    (``compute_end + barrier_cost``).  One per iteration, including
    replayed ones (``synthesized=True``).
    """

    kind = "barrier"

    iteration: int
    start: float
    compute_end: float
    end: float
    synthesized: bool = False


class QueueDepthEvent(NamedTuple):
    """Scheduler ready-queue depth right after an enqueue or dequeue."""

    kind = "queue"

    time: float
    depth: int


class StealEvent(NamedTuple):
    """A core raided work from a victim queue/deque.

    ``victim`` is the index of the raided structure in the policy's own
    terms: a core id for DeepSparse's per-core deques, a NUMA-domain
    queue index for HPX, a worker queue index for Regent.
    """

    kind = "steal"

    time: float
    core: int
    victim: int
    tid: int


class PollEvent(NamedTuple):
    """A core polled the scheduler and came back empty-handed."""

    kind = "poll"

    time: float
    core: int


class CacheSampleEvent(NamedTuple):
    """Aggregate occupancy of one cache level, sampled at a barrier.

    ``used``/``capacity`` are summed over every unit of the level (all
    per-core L1s, all per-core L2s, all L3 groups).
    """

    kind = "cache"

    iteration: int
    time: float
    level: str  # "L1" | "L2" | "L3"
    used: int
    capacity: int


class MissBurstEvent(NamedTuple):
    """Miss-burst statistics for one level over one barrier interval.

    A *burst* is a maximal run of consecutive ``CacheHierarchy.access``
    calls that missed at the level; ``bursts`` counts completed runs in
    the interval, ``longest`` is the longest run seen, ``misses`` the
    total missed lines attributed to the interval.
    """

    kind = "burst"

    iteration: int
    time: float
    level: str
    bursts: int
    longest: int
    misses: int


class NumaSampleEvent(NamedTuple):
    """NUMA page-home histogram at a barrier (handles per domain)."""

    kind = "numa"

    iteration: int
    time: float
    histogram: Tuple[int, ...]


EVENT_KINDS = {
    cls.kind: cls
    for cls in (
        TaskEvent,
        BarrierEvent,
        QueueDepthEvent,
        StealEvent,
        PollEvent,
        CacheSampleEvent,
        MissBurstEvent,
        NumaSampleEvent,
    )
}


def event_to_dict(event) -> dict:
    """JSON-serializable form (``kind`` key + the tuple's fields)."""
    d = {"kind": event.kind}
    d.update(event._asdict())
    return d


def event_from_dict(d: dict):
    """Inverse of :func:`event_to_dict` (for JSONL round trips)."""
    d = dict(d)
    cls = EVENT_KINDS[d.pop("kind")]
    if cls is NumaSampleEvent and "histogram" in d:
        d["histogram"] = tuple(d["histogram"])
    return cls(**d)
