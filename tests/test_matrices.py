"""Gauss LDU factorization, the test oracle for the type IV Gauss coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import BigCellError, gauss_ldu


def complex_matrix(rows):
    return np.array(rows, dtype=complex)


small_entry = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


def complex_square(n):
    return st.lists(st.lists(small_entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(complex_matrix)


def test_gauss_ldu_hand_example():
    """[[2, 1], [1, 2]] has dyadic factors, so the float LDU is exact."""
    a = complex_matrix([[2, 1], [1, 2]])
    low, diag, up = gauss_ldu(a)
    assert low.tolist() == [[1, 0], [0.5, 1]]
    assert diag.tolist() == [[2, 0], [0, 1.5]]
    assert up.tolist() == [[1, 0.5], [0, 1]]
    assert np.array_equal(low @ diag @ up, a)


def test_gauss_ldu_rejects_zero_pivot():
    a = complex_matrix([[0, 1], [1, 0]])
    with pytest.raises(BigCellError):
        gauss_ldu(a)


@settings(max_examples=50, deadline=None)
@given(complex_square(3))
def test_ldu_roundtrip_when_minors_nonzero(a):
    n = a.shape[0]
    minors = [np.linalg.det(a[:k, :k]) for k in range(1, n + 1)]
    scale = max(1.0, np.abs(a).max())
    try:
        low, diag, up = gauss_ldu(a)
    except BigCellError:
        # a zero pivot: some leading minor vanishes, up to round-off
        assert min(abs(m) for m in minors) <= 1e-9 * scale ** n
        return
    if any(abs(m) < 1e-6 for m in minors):
        return  # nearly singular: a float pivot is not the minor ratio
    assert np.allclose(low @ diag @ up, a, rtol=0, atol=1e-9 * scale)
    # unipotent triangular shape
    assert np.array_equal(np.diagonal(low), np.ones(n))
    assert np.array_equal(np.diagonal(up), np.ones(n))
    assert not np.triu(low, 1).any() and not np.tril(up, -1).any()
    assert not (diag - np.diag(np.diagonal(diag))).any()
    # diagonal entries are ratios of consecutive leading minors
    ratios = np.array(minors) / np.array([1] + minors[:-1])
    assert np.allclose(np.diagonal(diag), ratios, rtol=1e-9, atol=0)
