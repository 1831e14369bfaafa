"""Symmetric-space descriptors and orthonormal bases of the horizontal complement.

Five configurations are supported, identified by short CLI-facing ids:

====== =================== =============== ==================
id      ambient group       stabilizer K    base map
====== =================== =============== ==================
slr-so  GL+(n, R)           SO(n)           x -> x x^t
sus-sp  U*(2n)              Sp(n)           x -> x x^*
su-so   SU(n)               SO(n)           x -> x x^t
su-sp   SU(2n)              Sp(n)           x -> x J^t x^t J
slc-su  SL(n, C)            SU(n)           x -> x x^*
====== =================== =============== ==================

Every basis is built exactly, as the sparse Gaussian-integer entries of each
element with a rational scale^2 (:func:`p_basis_exact`), all from one unit
builder (:func:`unit`); the float basis is :func:`dense` of each element.
slr-so and sus-sp take the hand-written appendix families (D_k, X_kl and the
five block sets), slc-su the Hermitian units X_kl, iY_kl and the traceless
diagonals h_j.  A compact dual's tangent space is i times the
traceless part of its partner's: su-so takes i X_kl and i h_j, su-sp i times
the sus-sp block families with the trace direction replaced by diag(h_j, h_j).
Each basis is orthonormal for its space's invariant form (tr XY on slr-so,
Re tr XY on sus-sp and slc-su, -Re tr XY on the compact duals); no suite needs
the form itself, so it lives with the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# An exact matrix is the tuple of its nonzero entries (i, j, Re, Im): 0-based
# indices and Gaussian-integer values as Python ints.  An exact basis element
# is (entries, scale_sq) with the true element scale * M, scale = sqrt(scale_sq).
# Every identity checked exactly consumes only products of two basis elements,
# so the irrational scale never needs to be materialized.
Entries = tuple[tuple[int, int, int, int], ...]
ExactBasisElement = tuple[Entries, Fraction]

HALF = Fraction(1, 2)
ONE, I = (1, 0), (0, 1)


# ---------------------------------------------------------------------------
# exact unit matrices: sparse Gaussian-integer entries
# ---------------------------------------------------------------------------

def unit(n: int, k: int, l: int, sign: int, one=(1, 0), at=(0, 0)) -> Entries:
    """one * (E_kl + sign E_lk), or one * E_kk when k == l, of an n x n block at offset at.

    k and l are 1-based; one is a Gaussian integer (Re, Im).
    """
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"index ({k},{l}) out of range for n={n}")
    (r, c), (re, im) = at, one
    if k == l:
        return ((r + k - 1, c + k - 1, re, im),)
    return ((r + k - 1, c + l - 1, re, im), (r + l - 1, c + k - 1, sign * re, sign * im))


def dense(entries: Entries, scale_sq: Fraction, d: int) -> np.ndarray:
    """The d x d complex matrix scale * M of entries M, scale = sqrt(scale_sq)."""
    m = np.zeros((d, d), dtype=complex)
    for i, j, re, im in entries:
        m[i, j] = complex(re, im)
    return m / math.sqrt(1 / scale_sq)


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

X_XT = "x_xt"
X_XSTAR = "x_xstar"
X_JT_XT_J = "x_jt_xt_j"


@lru_cache(maxsize=None)
def symplectic_J(n: int) -> np.ndarray:
    """The fixed 2n x 2n symplectic matrix [[0, I], [-I, 0]] of symplectic_J_entries,
    shared and read-only."""
    J = dense(symplectic_J_entries(n), 1, 2 * n)
    J.setflags(write=False)
    return J


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of one symmetric-space configuration G/K."""

    id: str
    n: int
    ambient_dim: int
    base_map_variant: str
    compact: bool
    stabilizer: str  # "so", "sp" or "su"

    @property
    def J(self) -> np.ndarray:
        if self.stabilizer != "sp":
            raise ValueError(f"space {self.id} carries no symplectic structure")
        return symplectic_J(self.n)

    def membership(self, x: np.ndarray, tol: float = 1e-10):
        """Whether x is a point of the ambient group; for a stack (..., d, d), per matrix.

        Stacked determinants and products give each matrix the numbers it gets alone,
        and norms and moduli are taken as for one matrix, so a point's answer does not
        depend on the points stacked with it.
        """
        d = self.ambient_dim
        if x.shape[-2:] != (d, d):
            return np.zeros(x.shape[:-2], dtype=bool)
        if self.id == "slr-so":
            return ~(np.max(np.abs(x.imag), axis=(-2, -1)) > tol) & (np.linalg.det(x.real) > 0)
        if self.id == "sus-sp":
            J = self.J
            dx = np.linalg.det(x)
            return (~_norm_exceeds(x @ J - J @ x.conj(), tol, x) & (dx.real > 0)
                    & (np.abs(dx.imag) <= tol * np.maximum(1.0, _modulus(dx))))
        if self.id in ("su-so", "su-sp"):
            return _special_unitary(x, tol)
        if self.id == "slc-su":
            return _modulus(np.linalg.det(x) - 1) <= tol
        raise AssertionError(self.id)

    def stabilizer_membership(self, k: np.ndarray, tol: float = 1e-10):
        """Whether k is a point of the stabilizer K, per matrix as in membership: special
        unitary, and real for so(n) or commuting with J for sp(n)."""
        d = self.ambient_dim
        if k.shape[-2:] != (d, d):
            return np.zeros(k.shape[:-2], dtype=bool)
        ok = _special_unitary(k, tol)
        if self.stabilizer == "so":
            return ok & (np.max(np.abs(k.imag), axis=(-2, -1)) <= tol)
        if self.stabilizer == "sp":
            J = self.J
            # where the norm is NaN, k is not special unitary
            return ok & ~_norm_exceeds(k @ J - J @ k.conj(), tol)
        return ok  # su

    def label(self) -> str:
        return f"{self.id}:n={self.n}"


SPACE_IDS = ("slr-so", "sus-sp", "su-so", "su-sp", "slc-su")


def make_space(space_id: str, n: int) -> SpaceSpec:
    if n < 1:
        raise ValueError("rank parameter n must be positive")
    if space_id == "slr-so":
        return SpaceSpec("slr-so", n, n, X_XT, False, "so")
    if space_id == "sus-sp":
        return SpaceSpec("sus-sp", n, 2 * n, X_XSTAR, False, "sp")
    if space_id == "su-so":
        return SpaceSpec("su-so", n, n, X_XT, True, "so")
    if space_id == "su-sp":
        return SpaceSpec("su-sp", n, 2 * n, X_JT_XT_J, True, "sp")
    if space_id == "slc-su":
        return SpaceSpec("slc-su", n, n, X_XSTAR, False, "su")
    raise ValueError(f"unknown space id {space_id!r}; expected one of {SPACE_IDS}")


# A norm over a stack's last two axes sums in another order than np.linalg.norm of
# one matrix, so the two differ in the last bits: by about n eps for n entries, far
# less than this relative margin.
_NORM_MARGIN = 1e-9


def _norm_exceeds(a: np.ndarray, tol: float, scale: np.ndarray | None = None):
    """Whether ||a||_F > tol * max(1, ||scale||_F) for a matrix, or for each matrix of
    a stack (scale, if given, of the same shape), as np.linalg.norm of each matrix alone
    decides it: a NaN norm does not exceed.  The norms are taken over the whole stack,
    and again matrix by matrix only where they lie within _NORM_MARGIN of the bound or
    are NaN."""
    flat = a.reshape((-1,) + a.shape[-2:])
    norm = np.linalg.norm(flat, axis=(-2, -1))
    if scale is None:
        limit = np.full(len(flat), tol)
    else:
        scales = scale.reshape(flat.shape)
        limit = tol * np.maximum(1.0, np.linalg.norm(scales, axis=(-2, -1)))
    for i in np.flatnonzero(~(np.abs(norm - limit) > _NORM_MARGIN * limit)):
        norm[i] = np.linalg.norm(flat[i])
        if scale is not None:
            limit[i] = tol * np.maximum(1.0, np.linalg.norm(scales[i]))
    return (norm > limit).reshape(a.shape[:-2])


def _modulus(z):
    """abs() of each complex number: numpy's complex abs rounds differently from hypot."""
    return np.hypot(z.real, z.imag)


def _special_unitary(x: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix of x is unitary with determinant 1, within tol."""
    unitary = ~_norm_exceeds(x @ np.swapaxes(x, -1, -2).conj() - np.eye(x.shape[-1]), tol)
    return unitary & (_modulus(np.linalg.det(x) - 1) <= tol)


# ---------------------------------------------------------------------------
# p-bases
# ---------------------------------------------------------------------------

def expected_basis_size(space: SpaceSpec) -> int:
    n = space.n
    if space.id == "slr-so":
        return n * (n + 1) // 2
    if space.id == "sus-sp":
        return 2 * n * n - n
    if space.id == "su-so":
        return n * (n + 1) // 2 - 1
    if space.id == "su-sp":
        return 2 * n * n - n - 1
    if space.id == "slc-su":
        return n * n - 1
    raise AssertionError(space.id)


def stabilizer_algebra(space: SpaceSpec) -> list[np.ndarray]:
    """Generators (orthogonal, not normalized) of the stabilizer Lie algebra."""
    n = space.n
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    so = [dense(unit(n, k, l, -1), HALF, n) for k, l in pairs]
    if space.stabilizer == "so":
        return so
    if space.stabilizer == "su":
        # su(n) = so(n) + the tangent space of SU(n)/SO(n)
        return so + list(p_basis(make_space("su-so", n)))
    # sp(n): Q(a, b) with a anti-Hermitian, b symmetric; a unit is (k, l, sign, scale_sq)
    diag = [(k, k, 1, Fraction(1)) for k in range(1, n + 1)]
    sym = [(k, l, 1, HALF) for k, l in pairs]
    gens = [(u, I, False) for u in diag] + [((k, l, -1, HALF), ONE, False) for k, l in pairs]
    gens += [(u, I, False) for u in sym] + [(u, a, True) for a in (ONE, I) for u in diag + sym]
    return [dense(_quaternion(n, k, l, s, a, off), c, 2 * n) for (k, l, s, c), a, off in gens]


@lru_cache(maxsize=None)
def p_basis(space: SpaceSpec) -> np.ndarray:
    """The float basis, shape (directions, d, d) and read-only: dense() of each element
    of p_basis_exact, built once per space."""
    d = space.ambient_dim
    out = np.array([dense(m, scale_sq, d) for m, scale_sq in p_basis_exact(space)],
                   dtype=complex).reshape(-1, d, d)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# exact bases: sparse Gaussian-integer entries with their scale^2
# ---------------------------------------------------------------------------

QUARTER = Fraction(1, 4)


def p_basis_exact(space: SpaceSpec) -> list[ExactBasisElement]:
    """The basis of the horizontal complement as (entries, scale^2) pairs.

    The compact duals take i times their partner's elements: su-so those of
    slr-so, su-sp those of sus-sp, with the trace directions replaced by the
    traceless diagonals h_j.
    """
    n = space.n
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    if space.id == "slr-so":
        return ([(unit(n, k, k, 1), Fraction(1)) for k in range(1, n + 1)]
                + [(unit(n, k, l, 1), HALF) for k, l in pairs])
    if space.id == "su-so":
        return [(unit(n, k, l, 1, I), HALF) for k, l in pairs] + _traceless_diagonals(n, I)
    if space.id == "slc-su":
        return ([(unit(n, k, l, 1), HALF) for k, l in pairs]
                + [(unit(n, k, l, -1, I), HALF) for k, l in pairs]
                + _traceless_diagonals(n, ONE))
    if space.id == "sus-sp":
        one, diagonals = ONE, [(_quaternion(n, k, k, 1, ONE), HALF) for k in range(1, n + 1)]
    elif space.id == "su-sp":
        one, diagonals = I, _traceless_diagonals(n, I, ((0, 0), (n, n)))
    else:
        raise AssertionError(space.id)
    # one * Q(X_kl, 0), Q(iY_kl, 0), Q(0, Y_kl) and Q(0, iY_kl), Y_kl = E_kl - E_lk
    families = ((1, ONE, False), (-1, I, False), (-1, ONE, True), (-1, I, True))
    return diagonals + [(_quaternion(n, k, l, sign, a, off, one), QUARTER)
                        for sign, a, off in families for k, l in pairs]


def _quaternion(n: int, k: int, l: int, sign: int, a, off=False, one=ONE) -> Entries:
    """one * Q(A, B), Q(A, B) = [[A, B], [-conj B, conj A]], where A (or B if off) is
    a (E_kl + sign E_lk) and the other block 0."""
    (re, im), (ore, oim) = a, one
    a, twin = [(x * ore - y * oim, x * oim + y * ore)
               for x, y in (a, (-re, im) if off else (re, -im))]
    return (unit(n, k, l, sign, a, (0, n) if off else (0, 0))
            + unit(n, k, l, sign, twin, (n, 0) if off else (n, n)))


def _traceless_diagonals(n: int, one, ats=((0, 0),)) -> list[ExactBasisElement]:
    """one * h_j in each block at ats, h_j = diag(1, ..., 1, -j, 0, ..., 0) with j ones,
    scale^2 1/(j(j+1) len(ats))."""
    re, im = one
    return [(sum((unit(n, i, i, 1, (w * re, w * im), at) for at in ats
                  for i, w in enumerate([1] * j + [-j], start=1)), ()),
             Fraction(1, j * (j + 1) * len(ats))) for j in range(1, n)]


def symplectic_J_entries(n: int) -> Entries:
    """symplectic_J(n) = Q(0, I) as exact entries."""
    return sum((_quaternion(n, k, k, 1, ONE, True) for k in range(1, n + 1)), ())

