"""Fault-plan vocabulary and the deterministic decision hash.

A :class:`FaultPlan` is a frozen value: a set of injections plus an
integer seed.  Every stochastic decision downstream — which core a
``"random"`` selector resolves to, whether a given task attempt fails —
is drawn from :func:`fault_hash`, a keyed blake2b digest of the plan
seed and the decision coordinates.  No RNG object is threaded through
the engines, so the outcome is independent of process, platform,
``PYTHONHASHSEED``, and the order in which decisions happen to be
asked for.

Fault *timing* is expressed in solver iterations ("cycles" in the
issue's vocabulary): onsets and core deaths take effect at the
iteration barrier, which is where real runtimes detect lane loss
(heartbeat timeout at the reduction) and where the simulation has a
well-defined global state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

__all__ = [
    "CoreLoss",
    "FaultPlan",
    "SlowCore",
    "TaskFaults",
    "fault_hash",
]


def fault_hash(seed: int, *coords: Union[int, str]) -> float:
    """Deterministic u01 draw for the decision named by ``coords``.

    blake2b is stable across platforms and Python versions and is not
    affected by hash randomization, unlike ``hash()``.  The 8-byte
    digest gives 64 bits of uniformity — far more than any retry
    budget or core count needs.
    """
    key = ":".join(str(c) for c in (seed, *coords))
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


# Core selectors understood by MachineSpec.select_cores:
#   an int        -> that core id
#   "first"/"last" -> core 0 / core n-1
#   "random"      -> fault_hash-chosen core
#   "domain:<d>"  -> every core of NUMA domain d
#   "socket:<s>"  -> every core of socket s
Selector = Union[int, str]


@dataclass(frozen=True)
class SlowCore:
    """A core (or core group) running at ``factor``x its nominal time.

    ``factor`` multiplies the *compute* component of every task charge
    on the affected core (frequency derate: memory stalls are set by
    the uncore/DRAM and do not slow down with the core clock), plus
    the per-task scheduler overhead, which is core-clock-bound work.
    ``onset`` is the first iteration the derate applies; 0 means the
    core is slow from the start, a positive value models a straggler
    appearing mid-run (thermal throttling, a noisy neighbour).
    """

    selector: Selector = "random"
    factor: float = 2.0
    onset: int = 0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"derate factor must be >= 1.0, got {self.factor}")
        if self.onset < 0:
            raise ValueError(f"onset must be >= 0, got {self.onset}")


@dataclass(frozen=True)
class CoreLoss:
    """A core (or core group) dies at the start of iteration ``at``.

    The loss takes effect at the iteration barrier: from iteration
    ``at`` onward the lane accepts no work.  How the *remaining* cores
    absorb its share is each runtime's recovery policy (see
    ``repro.faults.report.RECOVERY_POLICIES``).
    """

    selector: Selector = "random"
    at: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"loss iteration must be >= 0, got {self.at}")


@dataclass(frozen=True)
class TaskFaults:
    """Transient task faults: a result is poisoned and re-executed.

    Each execution attempt of each task fails independently with
    probability ``rate`` (decided by ``fault_hash(seed, it, tid,
    attempt)``).  A failed attempt is retried up to ``budget`` times;
    every retry re-charges the full task cost and adds exponential
    backoff ``backoff * 2**attempt`` to the simulated clock of the
    core that re-executes it.  A task that exhausts its budget is
    *abandoned* (counted in the fault report) — its value is still
    produced so the DAG completes, modeling a solver that falls back
    to the stale iterate for that block.
    """

    rate: float = 0.01
    budget: int = 3
    backoff: float = 5e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"fault rate must be in [0, 1), got {self.rate}")
        if self.budget < 0:
            raise ValueError(f"retry budget must be >= 0, got {self.budget}")
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, frozen set of fault injections.

    The plan is machine-agnostic: selectors are resolved against a
    concrete :class:`~repro.machine.topology.MachineSpec` only when
    :meth:`state` builds the per-run :class:`~repro.faults.state.FaultState`.
    The same plan can therefore be swept across machines while keeping
    the *decision stream* (which attempts fail, which "random" draw is
    used) tied solely to ``seed``.
    """

    spec: str = "none"
    seed: int = 0
    slow: Tuple[SlowCore, ...] = ()
    losses: Tuple[CoreLoss, ...] = ()
    task_faults: Optional[TaskFaults] = None

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the named-spec registry (see specs.py)."""
        from repro.faults.specs import make_plan

        return make_plan(spec, seed)

    @property
    def is_empty(self) -> bool:
        return not self.slow and not self.losses and self.task_faults is None

    def state(self, machine) -> Optional["FaultState"]:  # noqa: F821
        """Resolve the plan against a machine into a per-run FaultState.

        Returns ``None`` for an empty plan: the engines then bind their
        fault locals to neutral values (no derates, zero fault rate)
        and execute exactly the healthy float operations.
        """
        if self.is_empty:
            return None
        from repro.faults.state import FaultState

        return FaultState(self, machine)

    def to_dict(self) -> dict:
        d = {
            "spec": self.spec,
            "seed": self.seed,
            "slow": [
                {"selector": s.selector, "factor": s.factor, "onset": s.onset}
                for s in self.slow
            ],
            "losses": [{"selector": l.selector, "at": l.at} for l in self.losses],
        }
        if self.task_faults is not None:
            tf = self.task_faults
            d["task_faults"] = {
                "rate": tf.rate,
                "budget": tf.budget,
                "backoff": tf.backoff,
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        tf = d.get("task_faults")
        return cls(
            spec=d.get("spec", "none"),
            seed=int(d.get("seed", 0)),
            slow=tuple(
                SlowCore(s["selector"], s["factor"], s["onset"])
                for s in d.get("slow", ())
            ),
            losses=tuple(
                CoreLoss(l["selector"], l["at"]) for l in d.get("losses", ())
            ),
            task_faults=TaskFaults(tf["rate"], tf["budget"], tf["backoff"])
            if tf
            else None,
        )
