"""Float matrix kernel: determinants, leading minors, LDU factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmorph.matrices import BigCellError, det, gauss_ldu, leading_principal_minors


def complex_matrix(rows):
    return np.array(rows, dtype=complex)


small_entry = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


def complex_square(n):
    return st.lists(st.lists(small_entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(complex_matrix)


def test_det_exact_2x2():
    """Entries with short binary expansions give an exact determinant."""
    a = complex_matrix([[0.5, 1], [3, 4]])
    assert det(a) == 0.5 * 4 - 3
    assert det(a).dtype == np.complex128


def test_det_with_zero_leading_pivot():
    """A zero pivot swaps rows, which flips the sign."""
    a = complex_matrix([[0, 1], [1, 0]])
    assert det(a) == -1


def test_det_of_singular_matrix_is_zero():
    assert det(complex_matrix([[0, 1], [0, 2]])) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(np.ones((2, 3), dtype=complex))


def test_leading_principal_minors():
    a = complex_matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert leading_principal_minors(a) == pytest.approx([2, 3, 4], rel=1e-15)


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
@given(complex_square(3), complex_square(3))
def test_det_is_multiplicative(a, b):
    assert abs(det(a @ b) - det(a) * det(b)) <= 1e-9 * max(1.0, abs(det(a) * det(b)))


@settings(max_examples=50, deadline=None)
@given(complex_square(3))
def test_ldu_roundtrip_when_minors_nonzero(a):
    minors = leading_principal_minors(a)
    if any(m == 0 for m in minors):
        with pytest.raises(BigCellError):
            gauss_ldu(a)
        return
    if any(abs(m) < 1e-6 for m in minors):
        return  # nearly singular: a float pivot is not the minor ratio
    low, diag, up = gauss_ldu(a)
    assert np.allclose(low @ diag @ up, a, rtol=0, atol=1e-9 * max(1.0, np.abs(a).max()))
    # unipotent triangular shape
    n = a.shape[0]
    assert np.array_equal(np.diagonal(low), np.ones(n))
    assert np.array_equal(np.diagonal(up), np.ones(n))
    assert not np.triu(low, 1).any() and not np.tril(up, -1).any()
    assert not (diag - np.diag(np.diagonal(diag))).any()
    # diagonal entries are ratios of consecutive leading minors
    ratios = np.array(minors) / np.array([1] + minors[:-1])
    assert np.allclose(np.diagonal(diag), ratios, rtol=1e-9, atol=0)
