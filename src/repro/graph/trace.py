"""Primitive-call trace — the "Task Identifier" stage of the PCU.

Solvers are written against the engine API in
:mod:`repro.solvers.primitives`; when traced, each high-level call
(one SpMM, one XY, one inner product, …) is recorded as a
:class:`PrimitiveCall` carrying operand names and roles.  The result is
the function-call-level dependency graph of the paper's Task
Identifier; :class:`~repro.graph.builder.DAGBuilder` then decomposes it
into fine-grained tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["PrimitiveCall", "TraceRecorder"]

#: Primitive ops the builder knows how to decompose.
OPS = frozenset(
    {
        "SPMM",   # Y = A @ X (width ≥ 1; width 1 uses the SPMV kernel)
        "XY",     # Q = Y @ Z (chunked linear combination)
        "XTY",    # P = Yᵀ @ Q (chunked inner product + reduce)
        "AXPY",   # Y += alpha * X
        "SCALE",  # X *= alpha
        "COPY",   # Y = X
        "ADD",    # OUT = X + Y
        "SUB",    # OUT = X − Y
        "DOT",    # s = <X, Y> (chunked partials + reduce)
        "SMALL",  # unpartitioned dense op on small matrices / scalars
    }
)


@dataclass(frozen=True)
class PrimitiveCall:
    """One recorded high-level call.

    Attributes
    ----------
    op:
        Member of :data:`OPS`.
    reads / writes:
        Whole-operand names (vector blocks, small matrices, scalars);
        partitioning happens later in the builder.
    meta:
        Op-specific details: vector width, scalar coefficient name,
        small-op kernel name and dimension, etc.
    iteration:
        Solver iteration this call belongs to.
    """

    op: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    meta: tuple = ()
    iteration: int = 0

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown primitive op {self.op!r}")

    @property
    def meta_dict(self) -> dict:
        return dict(self.meta)


@dataclass
class TraceRecorder:
    """Accumulates :class:`PrimitiveCall` records in program order."""

    calls: List[PrimitiveCall] = field(default_factory=list)
    iteration: int = 0

    def record(self, primitive: str, reads, writes, **meta) -> PrimitiveCall:
        call = PrimitiveCall(
            primitive,
            tuple(reads),
            tuple(writes),
            tuple(sorted(meta.items())),
            self.iteration,
        )
        self.calls.append(call)
        return call

    def next_iteration(self) -> None:
        """Advance the iteration counter (flow-graph lane boundary)."""
        self.iteration += 1

    def __len__(self):
        return len(self.calls)
