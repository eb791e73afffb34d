"""Compressed Sparse Block (CSB) format — the 2-D tiled storage.

All three task-parallel versions in the paper (DeepSparse, HPX, Regent)
and the ``libcsb`` BSP baseline partition the matrix into ``b × b``
blocks; SpMV/SpMM tasks are created per *non-empty* block, and the same
row-block partitioning dictates the decomposition of every vector and
vector block in the solver.

Storage follows the paper's Regent workaround (§3.3): one contiguous
entry array where entries falling in the same block are contiguous
("to better utilize the cache"), plus a block-pointer array of length
``nbr*nbc + 1`` so that block *(i, j)* occupies the slice
``blk_ptr[i*nbc + j] : blk_ptr[i*nbc + j + 1]`` — the exact
``blkptrs[i*np+j] < blkptrs[i*np+j+1]`` non-empty test from Listing 3.
Within a block, coordinates are stored *local* to the block origin in
int32 (the space saving that motivates CSB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.coo import COOMatrix

__all__ = ["CSBMatrix", "CSBBlock"]


@dataclass
class CSBBlock:
    """A view of one non-empty CSB block: local COO triplets.

    ``rows``/``cols`` are offsets from the block origin
    ``(block_row * b, block_col * b)``; views into the parent's
    contiguous arrays, never copies.
    """

    block_row: int
    block_col: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes


class CSBMatrix:
    """Sparse matrix tiled into ``block_size × block_size`` blocks.

    Parameters
    ----------
    shape:
        Global ``(nrows, ncols)``.
    block_size:
        Tile edge ``b``.  The last block row/column may be ragged.

    Attributes
    ----------
    nbr, nbc:
        Number of block rows / block columns (``ceil(dim / b)``).
    blk_ptr:
        ``int64[nbr*nbc + 1]`` — entry-range pointers in row-major
        block order.
    local_rows, local_cols:
        ``int32[nnz]`` block-local coordinates.
    vals:
        ``float64[nnz]``.
    """

    def __init__(self, shape, block_size, blk_ptr, local_rows, local_cols, vals):
        self.shape = tuple(shape)
        self.block_size = int(block_size)
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        self.nbr = -(-self.shape[0] // self.block_size)
        self.nbc = -(-self.shape[1] // self.block_size)
        self.blk_ptr = np.asarray(blk_ptr, dtype=np.int64)
        self.local_rows = np.asarray(local_rows, dtype=np.int32)
        self.local_cols = np.asarray(local_cols, dtype=np.int32)
        self.vals = np.asarray(vals, dtype=np.float64)
        if self.blk_ptr.size != self.nbr * self.nbc + 1:
            raise ValueError(
                f"blk_ptr must have nbr*nbc+1={self.nbr * self.nbc + 1} "
                f"entries, got {self.blk_ptr.size}"
            )
        if self.blk_ptr[0] != 0 or self.blk_ptr[-1] != self.vals.size:
            raise ValueError("blk_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.blk_ptr) < 0):
            raise ValueError("blk_ptr must be non-decreasing")

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, block_size: int) -> "CSBMatrix":
        """Tile a COO matrix; entries are grouped block-contiguously."""
        coo = coo.canonical()
        b = int(block_size)
        if b <= 0:
            raise ValueError("block_size must be positive")
        nbr = -(-coo.shape[0] // b)
        nbc = -(-coo.shape[1] // b)
        bi = coo.rows // b
        bj = coo.cols // b
        blk_id = bi * nbc + bj
        order = np.argsort(blk_id, kind="stable")
        blk_sorted = blk_id[order]
        counts = np.bincount(blk_sorted, minlength=nbr * nbc)
        blk_ptr = np.zeros(nbr * nbc + 1, dtype=np.int64)
        np.cumsum(counts, out=blk_ptr[1:])
        local_rows = (coo.rows[order] - bi[order] * b).astype(np.int32)
        local_cols = (coo.cols[order] - bj[order] * b).astype(np.int32)
        return cls(coo.shape, b, blk_ptr, local_rows, local_cols, coo.vals[order])

    def to_coo(self) -> COOMatrix:
        nblk = self.nbr * self.nbc
        per_blk = np.diff(self.blk_ptr)
        blk_id = np.repeat(np.arange(nblk, dtype=np.int64), per_blk)
        bi = blk_id // self.nbc
        bj = blk_id % self.nbc
        rows = bi * self.block_size + self.local_rows
        cols = bj * self.block_size + self.local_cols
        return COOMatrix(self.shape, rows, cols, self.vals.copy())

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def nbytes(self) -> int:
        return (
            self.blk_ptr.nbytes
            + self.local_rows.nbytes
            + self.local_cols.nbytes
            + self.vals.nbytes
        )

    def block_nnz(self, i: int, j: int) -> int:
        """Stored entries in block (i, j); 0 means the block spawns no task."""
        k = i * self.nbc + j
        return int(self.blk_ptr[k + 1] - self.blk_ptr[k])

    def block_nnz_grid(self) -> np.ndarray:
        """``(nbr, nbc)`` array of per-block entry counts."""
        return np.diff(self.blk_ptr).reshape(self.nbr, self.nbc)

    def nonempty_blocks(self):
        """Row-major list of ``(i, j)`` for blocks with at least one entry.

        This is exactly the task census for SpMV/SpMM: one task per
        returned pair ("skipping empty tasks", §5.1).
        """
        nz = np.nonzero(np.diff(self.blk_ptr))[0]
        return list(zip((nz // self.nbc).tolist(), (nz % self.nbc).tolist()))

    def n_empty_blocks(self) -> int:
        return int(np.count_nonzero(np.diff(self.blk_ptr) == 0))

    def block(self, i: int, j: int) -> CSBBlock:
        """View of block (i, j) as local COO triplets (no copy)."""
        if not (0 <= i < self.nbr and 0 <= j < self.nbc):
            raise IndexError(f"block ({i}, {j}) out of range")
        k = i * self.nbc + j
        s, e = self.blk_ptr[k], self.blk_ptr[k + 1]
        return CSBBlock(
            i, j, self.local_rows[s:e], self.local_cols[s:e], self.vals[s:e]
        )

    # ------------------------------------------------------------------
    # Row-block geometry shared with vector partitioning
    # ------------------------------------------------------------------
    def row_block_bounds(self, i: int) -> tuple:
        """Global ``[start, end)`` row range of block row *i* (ragged tail)."""
        s = i * self.block_size
        return s, min(s + self.block_size, self.shape[0])

    def col_block_bounds(self, j: int) -> tuple:
        s = j * self.block_size
        return s, min(s + self.block_size, self.shape[1])

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def block_spmv(self, i: int, j: int, x: np.ndarray, y: np.ndarray) -> None:
        """``y += A_{ij} @ x`` on block-local vector chunks (in place).

        ``x`` is the column-block chunk, ``y`` the row-block chunk.
        Scatter-add via ``np.add.at`` — duplicate local rows accumulate.
        """
        blk = self.block(i, j)
        if blk.nnz:
            np.add.at(y, blk.rows, blk.vals * x[blk.cols])

    def block_spmm(self, i: int, j: int, X: np.ndarray, Y: np.ndarray) -> None:
        """``Y += A_{ij} @ X`` for dense vector-block chunks (in place)."""
        blk = self.block(i, j)
        if blk.nnz:
            np.add.at(Y, blk.rows, blk.vals[:, None] * X[blk.cols])

    def spmv(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Full y = A @ x by sweeping non-empty blocks (serial reference)."""
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in spmv")
        y = np.zeros(self.shape[0]) if out is None else out
        if out is not None:
            y[:] = 0.0
        for i, j in self.nonempty_blocks():
            rs, re = self.row_block_bounds(i)
            cs, ce = self.col_block_bounds(j)
            self.block_spmv(i, j, x[cs:ce], y[rs:re])
        return y

    def spmm(self, X: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Full Y = A @ X by sweeping non-empty blocks (serial reference)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in spmm")
        Y = np.zeros((self.shape[0], X.shape[1])) if out is None else out
        if out is not None:
            Y[:] = 0.0
        for i, j in self.nonempty_blocks():
            rs, re = self.row_block_bounds(i)
            cs, ce = self.col_block_bounds(j)
            self.block_spmm(i, j, X[cs:ce], Y[rs:re])
        return Y
