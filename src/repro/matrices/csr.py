"""Compressed Sparse Row (CSR) format — the ``libcsr`` baseline storage.

The BSP baseline in the paper (``libcsr``) stores the matrix in CSR and
calls thread-parallel MKL SpMV/SpMM.  Here CSR is implemented from
scratch with vectorized NumPy kernels; the SpMV/SpMM entry points in
:mod:`repro.kernels` dispatch to these methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.coo import COOMatrix

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """CSR storage: ``indptr`` (nrows+1), ``indices`` (nnz), ``data`` (nnz).

    Rows are stored contiguously; within a row, columns are ascending
    (guaranteed when built via :meth:`from_coo`).
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        nr, nc = self.shape
        if self.indptr.size != nr + 1:
            raise ValueError(
                f"indptr must have nrows+1={nr + 1} entries, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= nc
        ):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Build from COO; duplicates are summed, rows sorted by column."""
        coo = coo.canonical()
        nr = coo.shape[0]
        counts = np.bincount(coo.rows, minlength=nr)
        indptr = np.zeros(nr + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(coo.shape, indptr, coo.cols.copy(), coo.vals.copy())

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        out = COOMatrix(self.shape, rows, self.indices.copy(), self.data.copy())
        out._canonical = True
        return out

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def nbytes(self) -> int:
        """Storage footprint, used by the cache/memory machine model."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    # ------------------------------------------------------------------
    # Kernels (vectorized; no per-entry Python loops)
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """y = A @ x.

        Uses a gather-multiply then segment-reduce via
        ``np.add.reduceat`` over row boundaries — the standard
        vectorized CSR SpMV.
        """
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in spmv")
        if out is None:
            out = np.zeros(self.shape[0])
        else:
            out[:] = 0.0
        if self.nnz == 0:
            return out
        prod = self.data * x[self.indices]
        nonempty = np.diff(self.indptr) > 0
        starts = self.indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(prod, starts)
        return out

    def spmm(self, X: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Y = A @ X for a dense block of vectors X (m × n, small n)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in spmm")
        if out is None:
            out = np.zeros((self.shape[0], X.shape[1]))
        else:
            out[:] = 0.0
        if self.nnz == 0:
            return out
        prod = self.data[:, None] * X[self.indices]
        nonempty = np.diff(self.indptr) > 0
        starts = self.indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(prod, starts, axis=0)
        return out

    def transpose(self) -> "CSRMatrix":
        return CSRMatrix.from_coo(self.to_coo().transpose())
