"""Space configurations, tangent bases, and their exact counterparts."""

from fractions import Fraction

import numpy as np
import pytest

from harmorph.scalars import ComplexRational
from harmorph.spaces import (SPACE_IDS, casimir_p_sum, elem_D, elem_X, elem_Y,
                             expected_basis_size, form_inner, make_space,
                             p_basis, p_basis_exact, stabilizer_algebra,
                             symplectic_J, symplectic_J_exact)

ALL_CASES = [(sid, n) for sid in SPACE_IDS
             for n in ([1, 2, 3] if sid in ("sus-sp", "su-sp") else [2, 3, 4])]


def test_make_space_rejects_unknown_id():
    with pytest.raises(ValueError):
        make_space("nope", 2)


def test_ambient_dimensions():
    assert make_space("slr-so", 3).ambient_dim == 3
    assert make_space("sus-sp", 3).ambient_dim == 6
    assert make_space("su-so", 3).ambient_dim == 3
    assert make_space("su-sp", 3).ambient_dim == 6
    assert make_space("slc-su", 3).ambient_dim == 3


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_basis_size_and_orthonormality(sid, n):
    space = make_space(sid, n)
    basis = p_basis(space)
    m = len(basis)
    assert m == expected_basis_size(space)
    for i in range(m):
        for j in range(m):
            g = complex(form_inner(basis.form, basis.elements[i], basis.elements[j]))
            want = 1.0 if i == j else 0.0
            assert abs(g - want) < 1e-10


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_basis_lies_in_horizontal_complement(sid, n):
    """Every basis element is orthogonal to the stabilizer algebra."""
    space = make_space(sid, n)
    basis = p_basis(space)
    for z in basis:
        for k in stabilizer_algebra(space):
            assert abs(complex(form_inner(basis.form, z, k))) < 1e-10


def test_membership_accepts_identity_like_points():
    eye = np.eye(2, dtype=complex)
    assert make_space("slr-so", 2).membership(eye, 1e-10)
    assert make_space("su-so", 2).membership(eye, 1e-10)
    assert make_space("slc-su", 2).membership(eye, 1e-10)
    assert make_space("sus-sp", 1).membership(np.eye(2, dtype=complex), 1e-10)


def test_membership_rejects_bad_points():
    assert not make_space("slr-so", 2).membership(1j * np.eye(2, dtype=complex), 1e-8)
    assert not make_space("slr-so", 2).membership(np.diag([1.0, -1.0]).astype(complex), 1e-8)
    assert not make_space("su-so", 2).membership(np.array([[1, 1], [0, 1]], dtype=complex), 1e-8)
    assert not make_space("slc-su", 2).membership(2 * np.eye(2, dtype=complex), 1e-8)


def test_quaternionic_membership_condition():
    """z J = J conj(z) characterizes the quaternionic realization."""
    space = make_space("sus-sp", 1)
    J = symplectic_J(1)
    good = np.array([[1 + 1j, 2 - 1j], [-2 - 1j, 1 - 1j]]) / np.sqrt(7)
    assert np.allclose(good @ J, J @ good.conj())
    bad = np.array([[1 + 1j, 0], [0, 1]], dtype=complex)
    assert not space.membership(bad, 1e-8)


def test_elementary_matrices_normalized():
    x = elem_X(3, 1, 2)
    y = elem_Y(3, 1, 2)
    assert abs(np.trace(x @ x) - 1) < 1e-15
    assert abs(np.trace(y @ y) + 1) < 1e-15  # antisymmetric squares to -1 under trace
    assert np.trace(elem_D(3, 1) @ elem_D(3, 1)) == 1


@pytest.mark.parametrize("sid,n,expect", [
    ("slr-so", 2, Fraction(3, 2)), ("slr-so", 3, Fraction(2)),
    ("slr-so", 4, Fraction(5, 2)),
    ("sus-sp", 1, Fraction(1, 2)), ("sus-sp", 2, Fraction(3, 2)),
    ("sus-sp", 3, Fraction(5, 2)),
])
def test_casimir_sum_is_scalar(sid, n, expect):
    """Sum of Z^2 over the basis is the expected multiple of the identity, exactly."""
    space = make_space(sid, n)
    total = casimir_p_sum(space)
    d = space.ambient_dim
    for i in range(d):
        for j in range(d):
            want = expect if i == j else 0
            assert total[i, j] == want, (i, j, total[i, j])


@pytest.mark.parametrize("sid,n", [("slr-so", 2), ("slr-so", 3), ("sus-sp", 1), ("sus-sp", 2)])
def test_exact_basis_matches_float_basis(sid, n):
    """Exact (matrix, scale^2) pairs reproduce the float basis Gram matrix."""
    space = make_space(sid, n)
    exact = p_basis_exact(space)
    basis = p_basis(space)
    assert len(exact) == len(basis)
    for (m, c), z in zip(exact, basis):
        mf = np.array([[complex(v) for v in row] for row in m])
        gram_exact = float(c) * np.trace(mf @ mf).real
        gram_float = np.trace(np.asarray(z) @ np.asarray(z)).real
        assert abs(gram_exact - gram_float) < 1e-12


def test_symplectic_J_exact_matches_float():
    j_exact = symplectic_J_exact(2)
    j_float = symplectic_J(2)
    for i in range(4):
        for k in range(4):
            assert complex(j_exact[i, k]) == complex(j_float[i, k])
    assert isinstance(j_exact[0, 2], (ComplexRational, int, Fraction)) or j_exact[0, 2] == 0


def test_stabilizer_algebra_dimensions():
    assert len(stabilizer_algebra(make_space("slr-so", 3))) == 3        # so(3)
    assert len(stabilizer_algebra(make_space("su-so", 3))) == 3         # so(3)
    assert len(stabilizer_algebra(make_space("sus-sp", 2))) == 10       # sp(2)
    assert len(stabilizer_algebra(make_space("su-sp", 2))) == 10        # sp(2)
    assert len(stabilizer_algebra(make_space("slc-su", 3))) == 8        # su(3)


def test_space_labels():
    assert make_space("slr-so", 3).label() == "slr-so:n=3"


def test_symplectic_J_is_shared_and_read_only():
    space = make_space("su-sp", 2)
    J = space.J
    assert J is space.J is symplectic_J(2)
    assert not J.flags.writeable
    with pytest.raises(ValueError):
        J[0, 0] = 1
