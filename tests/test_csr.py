"""CSR format: construction validation, kernels, conversions."""

import numpy as np
import pytest

from repro.matrices.coo import COOMatrix
from repro.matrices.csr import CSRMatrix


def test_from_coo_roundtrip(small_sym_coo):
    csr = CSRMatrix.from_coo(small_sym_coo)
    np.testing.assert_allclose(csr.to_dense(), small_sym_coo.to_dense())


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError, match="indptr"):
        CSRMatrix((2, 2), [0, 1], [0], [1.0])  # wrong length
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRMatrix((2, 2), [0, -1, 1], [0], [1.0])


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError, match="column index"):
        CSRMatrix((2, 2), [0, 1, 1], [5], [1.0])


def test_spmv_matches_dense(small_csr, rng):
    x = rng.standard_normal(small_csr.shape[1])
    np.testing.assert_allclose(
        small_csr.spmv(x), small_csr.to_dense() @ x, atol=1e-12
    )


def test_spmv_out_parameter_reused(small_csr, rng):
    x = rng.standard_normal(small_csr.shape[1])
    out = np.full(small_csr.shape[0], 99.0)
    y = small_csr.spmv(x, out=out)
    assert y is out
    np.testing.assert_allclose(out, small_csr.to_dense() @ x, atol=1e-12)


def test_spmv_empty_rows():
    # rows 1 and 3 have no entries: output must be exactly zero there
    coo = COOMatrix((4, 4), [0, 2], [1, 3], [2.0, 5.0])
    csr = CSRMatrix.from_coo(coo)
    y = csr.spmv(np.ones(4))
    np.testing.assert_allclose(y, [2.0, 0.0, 5.0, 0.0])


def test_spmv_dimension_mismatch(small_csr):
    with pytest.raises(ValueError, match="dimension"):
        small_csr.spmv(np.ones(small_csr.shape[1] + 1))


def test_spmm_matches_dense(small_csr, rng):
    X = rng.standard_normal((small_csr.shape[1], 5))
    np.testing.assert_allclose(
        small_csr.spmm(X), small_csr.to_dense() @ X, atol=1e-12
    )


def test_spmm_rejects_vector(small_csr):
    with pytest.raises(ValueError, match="dimension"):
        small_csr.spmm(np.ones(small_csr.shape[1]))


def test_zero_matrix_kernels():
    csr = CSRMatrix.from_coo(COOMatrix.empty((6, 6)))
    assert csr.nnz == 0
    assert not csr.spmv(np.ones(6)).any()
    assert not csr.spmm(np.ones((6, 2))).any()


def test_transpose_matches_dense(small_csr):
    np.testing.assert_allclose(
        small_csr.transpose().to_dense(), small_csr.to_dense().T
    )


def test_row_nnz_and_nbytes(small_csr):
    assert small_csr.row_nnz().sum() == small_csr.nnz
    assert small_csr.nbytes() > small_csr.nnz * 8
