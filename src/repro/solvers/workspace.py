"""Solver workspace: named operands partitioned by the CSB row blocks.

The paper's key structural decision (§3) is that the CSB partitioning
of the matrix "dictates the decomposition of all other data structures
involved".  A :class:`Workspace` holds every named operand of a solver
— chunked vector blocks (m×w), small matrices, scalars — plus the
matrix itself, and serves the row-block chunk views that task bodies
mutate in place.

A workspace can also be *spec-only* (``allocate=False``): the tracing
engine and DAG builder need only names, widths and shapes, which is how
full-scale block censuses are driven without materializing operands.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Operand store bound to one matrix's row-block geometry.

    Parameters
    ----------
    matrix:
        A :class:`~repro.matrices.csb.CSBMatrix` or a
        :class:`~repro.matrices.census.BlockCensus` (spec-only use).
    chunked:
        ``name -> width`` of row-partitioned operands.
    small:
        ``name -> (rows, cols)`` of unpartitioned operands; scalars are
        ``(1, 1)``.
    allocate:
        Materialize arrays (zeros).  Spec-only workspaces pass False.
    """

    def __init__(
        self,
        matrix,
        chunked: Dict[str, int],
        small: Dict[str, Tuple[int, int]],
        allocate: bool = True,
        matrix_name: str = "A",
    ):
        self.matrix = matrix
        self.matrix_name = matrix_name
        self.chunked = dict(chunked)
        self.small = dict(small)
        self.m = matrix.shape[0]
        self.np_ = matrix.nbr
        self._bounds = [matrix.row_block_bounds(i) for i in range(self.np_)]
        self.arrays: Optional[Dict[str, np.ndarray]] = None
        self.buffers: Dict[tuple, object] = {}
        if allocate:
            self.allocate()

    # ------------------------------------------------------------------
    def allocate(self) -> None:
        """Materialize all operands as zero arrays."""
        self.arrays = {}
        for name, w in self.chunked.items():
            self.arrays[name] = np.zeros((self.m, w))
        for name, (r, c) in self.small.items():
            self.arrays[name] = np.zeros((r, c))

    @property
    def allocated(self) -> bool:
        return self.arrays is not None

    # ------------------------------------------------------------------
    def chunk(self, name: str, i: int) -> np.ndarray:
        """Row-block ``i`` view of a chunked operand (never a copy)."""
        s, e = self._bounds[i]
        return self.arrays[name][s:e]

    def full(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def smallarr(self, name: str) -> np.ndarray:
        """A small operand's array (alias of :meth:`full`, intent-named)."""
        return self.arrays[name]

    def scalar(self, name: str) -> float:
        return float(self.arrays[name].flat[0])

    def set_scalar(self, name: str, value: float) -> None:
        self.arrays[name].flat[0] = value

    # ------------------------------------------------------------------
    def prepare_buffers(self, dag) -> None:
        """Preallocate every partial buffer a task DAG will write.

        Reads the DAG's ``Task`` list
        (:meth:`repro.graph.builder.DAGBuilder.build_tasks`).  Done up
        front so concurrent task bodies never mutate the buffer dict
        structurally (thread safety of the real executor).
        """
        self.buffers = {}
        for t in dag.tasks:
            p = t.params
            if t.kernel == "XTY":
                self.buffers[(p["buf"], p["i"])] = np.zeros(
                    (t.shape["w1"], t.shape["w2"])
                )
            elif t.kernel == "DOT":
                self.buffers[(p["buf"], p["i"])] = 0.0
            elif t.kernel in ("SPMV", "SPMM") and p.get("buffer"):
                self.buffers[(p["Y"], p["i"])] = np.zeros(
                    (t.shape["rows"], t.shape["width"])
                )

    def operand_spec(self) -> tuple:
        """(chunked, small) dictionaries for the DAG builder."""
        return dict(self.chunked), dict(self.small)
