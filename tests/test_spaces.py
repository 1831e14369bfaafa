"""Space configurations, tangent bases, and their exact counterparts."""

from fractions import Fraction

import numpy as np
import pytest

from harmorph.scalars import ComplexRational
from harmorph.spaces import (HALF, SPACE_IDS, X_JT_XT_J, X_XSTAR, X_XT, dense,
                             expected_basis_size, make_space, p_basis, p_basis_exact,
                             stabilizer_algebra, symplectic_J, symplectic_J_entries, unit)
from oracles import (FORMS, MINUS_RE_TRACE_XY, RE_TRACE_XY, TRACE_XY, casimir_p_sum,
                     form_inner)

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
    d = space.ambient_dim
    assert basis.shape == (m, d, d) and not basis.flags.writeable
    for i in range(m):
        for j in range(m):
            g = complex(form_inner(FORMS[sid], basis[i], basis[j]))
            want = 1.0 if i == j else 0.0
            assert abs(g - want) < 1e-10


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_basis_lies_in_horizontal_complement(sid, n):
    """Every basis element is orthogonal to the stabilizer algebra."""
    space = make_space(sid, n)
    basis = p_basis(space)
    for z in basis:
        for k in stabilizer_algebra(space):
            assert abs(complex(form_inner(FORMS[sid], z, k))) < 1e-10


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
    x = dense(unit(3, 1, 2, 1), HALF, 3)
    y = dense(unit(3, 1, 2, -1), HALF, 3)
    d = dense(unit(3, 1, 1, 1), Fraction(1), 3)
    assert abs(np.trace(x @ x) - 1) < 1e-15
    assert abs(np.trace(y @ y) + 1) < 1e-15  # antisymmetric squares to -1 under trace
    assert np.trace(d @ d) == 1


def test_unit_entries_and_range():
    assert unit(3, 1, 2, -1, (0, 1), (3, 0)) == ((3, 1, 0, 1), (4, 0, 0, -1))
    assert unit(3, 2, 2, -1, (2, -1)) == ((1, 1, 2, -1),)
    for k, l in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(IndexError):
            unit(3, k, l, 1)


@pytest.mark.parametrize("sid,n,expect", [
    ("slr-so", 2, Fraction(3, 2)), ("slr-so", 3, Fraction(2)),
    ("slr-so", 4, Fraction(5, 2)),
    ("sus-sp", 1, Fraction(1, 2)), ("sus-sp", 2, Fraction(3, 2)),
    ("sus-sp", 3, Fraction(5, 2)),
    # the compact duals: -(n-1)(n+2)/(2n) on su-so, -(n-1)(2n+1)/(2n) on su-sp
    ("su-so", 2, Fraction(-1)), ("su-so", 3, Fraction(-5, 3)), ("su-so", 4, Fraction(-9, 4)),
    ("su-sp", 1, Fraction(0)), ("su-sp", 2, Fraction(-5, 4)), ("su-sp", 3, Fraction(-7, 3)),
    # (n^2 - 1)/n on slc-su
    ("slc-su", 2, Fraction(3, 2)), ("slc-su", 3, Fraction(8, 3)), ("slc-su", 4, Fraction(15, 4)),
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


@pytest.mark.parametrize("sid,n", [("slr-so", 2), ("slr-so", 3), ("sus-sp", 1), ("sus-sp", 2),
                                   ("su-so", 2), ("su-so", 3), ("su-sp", 2), ("su-sp", 3),
                                   ("slc-su", 2), ("slc-su", 3)])
def test_exact_basis_matches_float_basis(sid, n):
    """Exact (entries, scale^2) pairs reproduce the float basis Gram matrix."""
    space = make_space(sid, n)
    exact = p_basis_exact(space)
    basis = p_basis(space)
    assert len(exact) == len(basis)
    for (m, c), z in zip(exact, basis):
        mf = dense(m, Fraction(1), space.ambient_dim)
        gram_exact = float(c) * np.trace(mf @ mf).real
        gram_float = np.trace(np.asarray(z) @ np.asarray(z)).real
        assert abs(gram_exact - gram_float) < 1e-12


def _gaussian_basis(space):
    """The exact basis as (scale^2, {(i, j): (Re, Im)})."""
    return [(c, {(i, j): (re, im) for i, j, re, im in m}) for m, c in p_basis_exact(space)]


def _exact(entries, d):
    """Exact entries as a dense d x d object array of ComplexRationals."""
    m = np.full((d, d), ComplexRational(0), dtype=object)
    for i, j, re, im in entries:
        m[i, j] = ComplexRational(re, im)
    return m


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_exact_basis_entries_are_gaussian_integers(sid, n):
    space = make_space(sid, n)
    d = space.ambient_dim
    basis = p_basis_exact(space)
    assert len(basis) == expected_basis_size(space)
    for m, _ in basis:
        assert m
        assert all(type(v) is int for entry in m for v in entry)
        # dense() assigns, so a repeated (i, j) would silently drop an entry
        assert len({(i, j) for i, j, _, _ in m}) == len(m)
        assert all((re, im) != (0, 0) for _, _, re, im in m)
        assert all(0 <= i < d and 0 <= j < d for i, j, _, _ in m)


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_exact_gram_matrix_is_identity(sid, n):
    """scale^2 form(m, m) is exactly 1, and form(m_a, m_b) exactly 0 for a != b."""
    space = make_space(sid, n)
    basis = _gaussian_basis(space)
    for a, (ca, ea) in enumerate(basis):
        for b, (_, eb) in enumerate(basis):
            re = im = 0
            for (i, j), (xr, xi) in ea.items():  # trace(m_a m_b)
                yr, yi = eb.get((j, i), (0, 0))
                re, im = re + xr * yr - xi * yi, im + xr * yi + xi * yr
            value = {TRACE_XY: (re, im), RE_TRACE_XY: (re, 0),
                     MINUS_RE_TRACE_XY: (-re, 0)}[FORMS[sid]]
            assert value == ((1 / ca, 0) if a == b else (0, 0)), (a, b)


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_exact_basis_is_horizontal(sid, n):
    """T(Z) = Z, where Z + T(Z) is the base map's derivative at the identity along Z."""
    space = make_space(sid, n)
    J = _exact(symplectic_J_entries(n), 2 * n)
    transform = {X_XT: lambda m: m.T, X_XSTAR: lambda m: np.conjugate(m).T,
                 X_JT_XT_J: lambda m: J.T @ m.T @ J}[space.base_map_variant]
    for m, _ in p_basis_exact(space):
        m = _exact(m, space.ambient_dim)
        assert (transform(m) == m).all()


@pytest.mark.parametrize("sid,n", ALL_CASES)
def test_exact_basis_lies_in_the_ambient_algebra(sid, n):
    space = make_space(sid, n)
    J = _exact(symplectic_J_entries(n), 2 * n)
    traceless_skew = lambda m: (np.conjugate(m).T == -m).all() and np.trace(m) == 0  # noqa: E731
    condition = {"slr-so": lambda m: (np.conjugate(m) == m).all(),
                 "sus-sp": lambda m: (m @ J == J @ np.conjugate(m)).all(),
                 "su-so": traceless_skew, "su-sp": traceless_skew,
                 "slc-su": lambda m: np.trace(m) == 0}[sid]
    assert all(condition(_exact(m, space.ambient_dim)) for m, _ in p_basis_exact(space))


def test_symplectic_J_exact_matches_float():
    for n in (1, 2, 3):
        assert np.array_equal(dense(symplectic_J_entries(n), Fraction(1), 2 * n),
                              symplectic_J(n))


def test_symplectic_J_is_the_block_matrix():
    """J = [[0, I], [-I, 0]], complex, whichever way its exact entries are built."""
    for n in (1, 2, 3, 4):
        z, i = np.zeros((n, n)), np.eye(n)
        J = symplectic_J(n)
        assert J.dtype == complex
        assert np.array_equal(J, np.block([[z, i], [-i, z]]))


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
