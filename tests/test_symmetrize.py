"""Symmetrization rules (Table 1 preprocessing)."""

import numpy as np
import pytest

from repro.matrices.coo import COOMatrix
from repro.matrices.symmetrize import (
    fill_binary_random,
    is_symmetric,
    symmetrize_lower,
)


def test_symmetrize_lower_formula(rng):
    """A_new = L + Lᵀ − D exactly."""
    d = rng.standard_normal((12, 12))
    a = COOMatrix.from_dense(d)
    s = symmetrize_lower(a).to_dense()
    L = np.tril(d)
    expected = L + L.T - np.diag(np.diag(d))
    np.testing.assert_allclose(s, expected, atol=1e-14)


def test_symmetrize_produces_symmetric(rng):
    d = rng.standard_normal((20, 20))
    s = symmetrize_lower(COOMatrix.from_dense(d))
    assert is_symmetric(s)


def test_symmetrize_requires_square():
    with pytest.raises(ValueError, match="square"):
        symmetrize_lower(COOMatrix.empty((3, 4)))


def test_is_symmetric_detects_asymmetry():
    a = COOMatrix((3, 3), [0, 1], [1, 2], [1.0, 2.0])
    assert not is_symmetric(a)
    assert not is_symmetric(COOMatrix.empty((2, 3)))


def test_is_symmetric_value_mismatch():
    a = COOMatrix((2, 2), [0, 1], [1, 0], [1.0, 2.0])
    assert not is_symmetric(a)
    assert is_symmetric(a, tol=1.5)


def test_fill_binary_random_preserves_symmetry():
    n = 30
    rows = [0, 1, 1, 5, 5, 9]
    cols = [1, 0, 5, 1, 9, 5]
    a = COOMatrix((n, n), rows, cols, np.ones(6))
    f = fill_binary_random(a, seed=3)
    assert is_symmetric(f)
    d = f.to_dense()
    assert d[0, 1] == d[1, 0] != 0
    assert (d[d != 0] > 0.1).all()  # bounded away from zero


def test_fill_binary_random_deterministic():
    a = COOMatrix((5, 5), [0, 1], [1, 0], [1.0, 1.0])
    f1 = fill_binary_random(a, seed=7)
    f2 = fill_binary_random(a, seed=7)
    np.testing.assert_array_equal(f1.vals, f2.vals)
    f3 = fill_binary_random(a, seed=8)
    assert not np.array_equal(f1.vals, f3.vals)

