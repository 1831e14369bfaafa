"""Exact matrix kernel: multiplication, determinants, LDU factorization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmorph.matrices import (BackendError, BigCellError, det, exact_eye, gauss_ldu,
                               is_exact, leading_principal_minors, mat_exp)


def exact_matrix(rows):
    """An exact matrix: an object array of Fractions."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


small_fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def exact_square(n):
    return st.lists(st.lists(small_fraction, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(exact_matrix)


def test_mat_mul_known_product():
    a = exact_matrix([[1, 2], [3, 4]])
    b = exact_matrix([[5, 6], [7, 8]])
    c = a @ b
    assert c.tolist() == [[19, 22], [43, 50]]
    assert is_exact(c)


def test_mat_mul_rejects_dimension_mismatch():
    a = exact_matrix([[1, 2], [3, 4]])
    b = exact_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ValueError):
        a @ b


def test_mat_exp_rejects_exact_backend():
    with pytest.raises(BackendError):
        mat_exp(exact_eye(2))


def test_mat_exp_matches_series_on_nilpotent():
    z = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(mat_exp(z), np.eye(2) + z)


def test_det_exact_2x2():
    a = exact_matrix([[Fraction(1, 2), 1], [3, 4]])
    assert det(a) == Fraction(1, 2) * 4 - 3


def test_det_with_zero_leading_pivot():
    a = exact_matrix([[0, 1], [1, 0]])
    assert det(a) == -1


def test_leading_principal_minors():
    a = exact_matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert leading_principal_minors(a) == [2, 3, 4]


def test_gauss_ldu_hand_example():
    a = exact_matrix([[2, 1], [1, 2]])
    low, diag, up = gauss_ldu(a)
    assert low.tolist() == [[1, 0], [Fraction(1, 2), 1]]
    assert [diag[0, 0], diag[1, 1]] == [2, Fraction(3, 2)]
    assert up.tolist() == [[1, Fraction(1, 2)], [0, 1]]
    assert (low @ diag @ up).tolist() == a.tolist()


def test_gauss_ldu_rejects_zero_pivot():
    a = exact_matrix([[0, 1], [1, 0]])
    with pytest.raises(BigCellError):
        gauss_ldu(a)


@settings(max_examples=50, deadline=None)
@given(exact_square(3), exact_square(3))
def test_det_is_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


@settings(max_examples=50, deadline=None)
@given(exact_square(3))
def test_ldu_roundtrip_when_minors_nonzero(a):
    minors = leading_principal_minors(a)
    if any(m == 0 for m in minors):
        with pytest.raises(BigCellError):
            gauss_ldu(a)
        return
    low, diag, up = gauss_ldu(a)
    assert (low @ diag @ up).tolist() == a.tolist()
    # unipotent triangular shape
    n = a.shape[0]
    for i in range(n):
        assert low[i, i] == 1 and up[i, i] == 1
        for j in range(i + 1, n):
            assert low[i, j] == 0 and up[j, i] == 0
    # diagonal entries are ratios of consecutive leading minors
    prev = Fraction(1)
    for i in range(n):
        assert diag[i, i] == minors[i] / prev
        prev = minors[i]
