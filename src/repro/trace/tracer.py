"""The :class:`Tracer`: the object threaded through engine and machine.

Layers never test "is tracing on?" globally — the engine takes an
optional ``tracer`` argument, and when it is ``None`` every emitting
site reduces to a single pre-hoisted ``is None`` check (the hot loops
hoist even that into a local), so tracing off is bit-identical *and*
effectively free.  When a tracer is present, the engine:

* calls :meth:`Tracer.task` for every executed task (real or
  replay-synthesized),
* calls :meth:`Tracer.barrier` and :meth:`Tracer.sample_machine` at
  every iteration barrier,
* installs :meth:`Tracer._on_cache_access` as the cache hierarchy's
  miss-burst hook and hands itself to the scheduler for queue-depth /
  steal / poll events.

The tracer normalizes everything into :mod:`repro.trace.events` tuples
and forwards them to an injectable :class:`~repro.trace.sink.TraceSink`
(in-memory by default, streaming JSONL for big runs).
"""

from __future__ import annotations

from typing import Optional

from repro.trace.events import (
    BarrierEvent,
    CacheSampleEvent,
    MissBurstEvent,
    NumaSampleEvent,
    PollEvent,
    QueueDepthEvent,
    StealEvent,
    TaskEvent,
)
from repro.trace.sink import InMemorySink, TraceSink

__all__ = ["Tracer"]

_LEVELS = ("L1", "L2", "L3")


class Tracer:
    """Collects one run's structured events into a sink.

    One tracer traces one run; ``meta`` (machine, policy, core count)
    is set by the engine via :meth:`begin_run` and read by the
    exporters.  ``dag`` is retained so exporters can resolve tile
    coordinates (``task.params['i']/['j']``) without the per-event
    emit paying for the lookup.
    """

    def __init__(self, sink: Optional[TraceSink] = None):
        self.sink = sink if sink is not None else InMemorySink()
        self._emit = self.sink.emit
        self.meta: dict = {}
        self.dag = None
        # Miss-burst accumulators, one slot per level: current run
        # length, completed-burst count, longest run, missed lines.
        self._burst_cur = [0, 0, 0]
        self._burst_count = [0, 0, 0]
        self._burst_longest = [0, 0, 0]
        self._burst_misses = [0, 0, 0]

    # -- lifecycle -----------------------------------------------------
    def begin_run(self, machine: str, policy: str, n_cores: int,
                  dag=None) -> None:
        """Engine entry hook: record run identity for the exporters."""
        self.meta = {
            "machine": machine,
            "policy": policy,
            "n_cores": n_cores,
            "n_tasks_per_iteration": 0 if dag is None else len(dag),
        }
        self.dag = dag

    def close(self) -> None:
        self.sink.close()

    @property
    def events(self) -> list:
        """The event list — only for in-memory sinks."""
        ev = getattr(self.sink, "events", None)
        if ev is None:
            raise TypeError(
                "tracer events are only retained by InMemorySink; "
                "streaming sinks must be read back from disk "
                "(repro.trace.sink.read_jsonl)"
            )
        return ev

    # -- engine-side emitters (hot when tracing is on) -----------------
    def task(self, tid, kernel, core, start, end, iteration,
             overhead, compute, memory, l1, l2, l3,
             synthesized=False) -> None:
        self._emit(TaskEvent(tid, kernel, core, start, end, iteration,
                             overhead, compute, memory, l1, l2, l3,
                             synthesized))

    def barrier(self, iteration, start, compute_end, end,
                synthesized=False) -> None:
        self._emit(BarrierEvent(iteration, start, compute_end, end,
                                synthesized))

    # -- scheduler-side emitters ---------------------------------------
    def queue_depth(self, time, depth) -> None:
        self._emit(QueueDepthEvent(time, depth))

    def steal(self, time, core, victim, tid) -> None:
        self._emit(StealEvent(time, core, victim, tid))

    def poll(self, time, core) -> None:
        self._emit(PollEvent(time, core))

    # -- machine-side sampling -----------------------------------------
    def _on_cache_access(self, lines) -> None:
        """Per-access miss-burst hook (installed on CacheHierarchy).

        Called once per simulated operand touch while tracing; updates
        the burst accumulators that :meth:`sample_machine` flushes per
        barrier interval.
        """
        cur = self._burst_cur
        for i in range(3):
            m = lines[i]
            if m:
                cur[i] += 1
                self._burst_misses[i] += m
            elif cur[i]:
                self._burst_count[i] += 1
                if cur[i] > self._burst_longest[i]:
                    self._burst_longest[i] = cur[i]
                cur[i] = 0

    def sample_machine(self, iteration, time, cache, memory) -> None:
        """Sample machine state at a barrier: occupancy, bursts, NUMA.

        Pure reads — sampling never mutates simulated state, which is
        what keeps tracing-on runs bit-identical to tracing-off runs.
        """
        for level, (used, capacity) in cache.occupancy_sample().items():
            self._emit(CacheSampleEvent(iteration, time, level,
                                        used, capacity))
        cur = self._burst_cur
        for i, level in enumerate(_LEVELS):
            count = self._burst_count[i]
            longest = self._burst_longest[i]
            if cur[i]:  # close the interval's trailing open run
                count += 1
                if cur[i] > longest:
                    longest = cur[i]
                cur[i] = 0
            self._emit(MissBurstEvent(iteration, time, level, count,
                                      longest, self._burst_misses[i]))
            self._burst_count[i] = 0
            self._burst_longest[i] = 0
            self._burst_misses[i] = 0
        hist = memory.domain_histogram()
        if hist is not None:
            self._emit(NumaSampleEvent(iteration, time, hist))
