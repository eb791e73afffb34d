"""Kernel metadata registry: flop and byte footprints per kernel.

The discrete-event simulator prices a task from the *shapes* of its
operands, not from running the kernel.  Each kernel registers a
:class:`KernelSpec` whose ``flops``/``bytes`` callables take the task's
shape dictionary (keys depend on the kernel: ``nnz``, ``rows``,
``cols``, ``width`` …) and return scalar counts.  Keeping this in one
place guarantees the simulator and the executable kernels agree on what
a task costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

__all__ = ["KernelSpec", "KERNELS", "register_kernel", "kernel_spec"]


@dataclass(frozen=True)
class KernelSpec:
    """Cost contract for one kernel.

    Attributes
    ----------
    name:
        Registry key; also the ``Task.kernel`` value in the DAG.
    flops:
        ``shape-dict -> float`` floating-point operation count.
    bytes_streamed:
        ``shape-dict -> float`` bytes of operand data the kernel must
        touch at least once (compulsory traffic; reuse on top of this
        is the cache simulator's job).
    kind:
        ``"sparse"``, ``"blas1"``, ``"blas3"`` or ``"dense-small"`` —
        used by schedulers that treat kernel classes differently and by
        the flow-graph renderer's lane grouping.
    """

    name: str
    flops: Callable[[dict], float]
    bytes_streamed: Callable[[dict], float]
    kind: str


KERNELS: Dict[str, KernelSpec] = {}


def register_kernel(name: str, flops, bytes_streamed, kind: str) -> KernelSpec:
    """Register (or replace) a kernel's cost contract."""
    spec = KernelSpec(name, flops, bytes_streamed, kind)
    KERNELS[name] = spec
    return spec


def kernel_spec(name: str) -> KernelSpec:
    """Look up a kernel's cost contract; raises KeyError for unknowns."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"kernel {name!r} is not registered; known kernels: "
            f"{', '.join(sorted(KERNELS))}"
        ) from None


_F8 = 8  # bytes per float64
_I4 = 4  # bytes per int32 (CSB local indices)


def _spmv_flops(s):
    return 2.0 * s["nnz"]


def _spmv_bytes(s):
    # block entries (val + 2 local indices) + x chunk + y chunk
    return s["nnz"] * (_F8 + 2 * _I4) + (s["cols"] + s["rows"]) * _F8


def _spmm_flops(s):
    return 2.0 * s["nnz"] * s["width"]


def _spmm_bytes(s):
    return s["nnz"] * (_F8 + 2 * _I4) + (s["cols"] + s["rows"]) * s["width"] * _F8


def _xy_flops(s):
    # Q(rows×w2) = Y(rows×w1) @ Z(w1×w2)
    return 2.0 * s["rows"] * s["w1"] * s["w2"]


def _xy_bytes(s):
    return (s["rows"] * (s["w1"] + s["w2"]) + s["w1"] * s["w2"]) * _F8


def _xty_flops(s):
    # P(w1×w2) = X(rows×w1)ᵀ @ Y(rows×w2)
    return 2.0 * s["rows"] * s["w1"] * s["w2"]


def _xty_bytes(s):
    return (s["rows"] * (s["w1"] + s["w2"]) + s["w1"] * s["w2"]) * _F8


def _reduce_flops(s):
    # accumulate n_parts partial buffers of `elems` elements each
    return float(s["n_parts"]) * s["elems"]


def _reduce_bytes(s):
    return (s["n_parts"] + 1.0) * s["elems"] * _F8


def _blas1_flops(s):
    return float(s.get("ops_per_elem", 2)) * s["rows"] * s.get("width", 1)


def _blas1_bytes(s):
    return float(s.get("streams", 3)) * s["rows"] * s.get("width", 1) * _F8


def _dot_reduce_flops(s):
    return float(s["n_parts"]) * s.get("elems", 1)


def _dot_reduce_bytes(s):
    return (s["n_parts"] + 1.0) * s.get("elems", 1) * _F8


def _dense_small_flops(s):
    k = s["k"]
    return float(s.get("eig_const", 10)) * k * k * k


def _dense_small_bytes(s):
    return 3.0 * s["k"] * s["k"] * _F8


register_kernel("SPMV", _spmv_flops, _spmv_bytes, "sparse")
register_kernel("SPMM", _spmm_flops, _spmm_bytes, "sparse")
register_kernel("XY", _xy_flops, _xy_bytes, "blas3")
register_kernel("XTY", _xty_flops, _xty_bytes, "blas3")
register_kernel("XTY_REDUCE", _reduce_flops, _reduce_bytes, "blas1")
register_kernel("SPMM_REDUCE", _reduce_flops, _reduce_bytes, "blas1")
register_kernel("AXPY", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("SCALE", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("COPY", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("ADD", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("SUB", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("DOT", _blas1_flops, _blas1_bytes, "blas1")
register_kernel("DOT_REDUCE", _dot_reduce_flops, _dot_reduce_bytes, "blas1")
register_kernel("RAYLEIGH_RITZ", _dense_small_flops, _dense_small_bytes,
                "dense-small")
register_kernel("SMALL_EIGH", _dense_small_flops, _dense_small_bytes,
                "dense-small")
register_kernel("ORTHO", _dense_small_flops, _dense_small_bytes,
                "dense-small")
