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

Every basis is built exactly, as Gaussian-integer matrices with a rational
scale^2 (:func:`p_basis_exact`); the float basis multiplies each matrix by
its scale.  slr-so and sus-sp take the hand-written appendix families (D_k,
X_kl and the five block sets), slc-su the Hermitian units X_kl, iY_kl and the
traceless diagonals h_j.  A compact dual's tangent space is i times the
traceless part of its partner's: su-so takes i X_kl and i h_j, su-sp i times
the sus-sp block families with the trace direction replaced by diag(h_j, h_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .matrices import exact_matrix
from .scalars import ComplexRational

SQRT2 = math.sqrt(2.0)

# Exact basis elements are stored as (matrix, scale_sq) with the true
# element scale * matrix, scale = sqrt(scale_sq).  Every identity checked
# on the exact backend consumes only products of two basis elements, so
# the irrational scale never needs to be materialized.
ExactBasisElement = tuple[np.ndarray, Fraction]

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# elementary matrices
# ---------------------------------------------------------------------------

def elem_E(n: int, k: int, l: int, dtype=complex) -> np.ndarray:
    """Matrix unit E_kl (1-based indices)."""
    _check_index(n, k, l)
    m = np.zeros((n, n), dtype=dtype)
    m[k - 1, l - 1] = 1
    return m


def elem_D(n: int, k: int, dtype=complex) -> np.ndarray:
    """Diagonal unit D_k = E_kk."""
    return elem_E(n, k, k, dtype)


def elem_X(n: int, k: int, l: int, dtype=complex) -> np.ndarray:
    """Symmetric unit (E_kl + E_lk) / sqrt(2), requires k < l."""
    _check_ordered(k, l)
    return (elem_E(n, k, l, dtype) + elem_E(n, l, k, dtype)) / SQRT2


def elem_Y(n: int, k: int, l: int, dtype=complex) -> np.ndarray:
    """Antisymmetric unit (E_kl - E_lk) / sqrt(2), requires k < l."""
    _check_ordered(k, l)
    return (elem_E(n, k, l, dtype) - elem_E(n, l, k, dtype)) / SQRT2


def _check_index(n: int, k: int, l: int) -> None:
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"index ({k},{l}) out of range for n={n}")


def _check_ordered(k: int, l: int) -> None:
    if not k < l:
        raise IndexError(f"X/Y units require k < l, got ({k},{l})")


def exact_unit(n: int, k: int, l: int, sign: int, one) -> np.ndarray:
    """one * (E_kl + sign E_lk), or one * E_kk when k == l, with entries of one's type.

    Built by assignment only, so making a unit costs no exact arithmetic.
    """
    _check_index(n, k, l)
    m = np.empty((n, n), dtype=object)
    m[:] = type(one)(0)
    m[k - 1, l - 1] = one
    if k != l:
        m[l - 1, k - 1] = one if sign > 0 else -one
    return m


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

TRACE_XY = "trace_xy"
RE_TRACE_XY = "re_trace_xy"
MINUS_RE_TRACE_XY = "minus_re_trace_xy"

X_XT = "x_xt"
X_XSTAR = "x_xstar"
X_JT_XT_J = "x_jt_xt_j"


@lru_cache(maxsize=None)
def symplectic_J(n: int) -> np.ndarray:
    """The fixed 2n x 2n symplectic matrix [[0, I], [-I, 0]], shared and read-only."""
    z = np.zeros((n, n))
    i = np.eye(n)
    J = np.block([[z, i], [-i, z]]).astype(complex)
    J.setflags(write=False)
    return J


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of one symmetric-space configuration G/K."""

    id: str
    n: int
    ambient_dim: int
    base_map_variant: str
    form: str
    compact: bool
    stabilizer: str  # "so", "sp" or "su"

    @property
    def J(self) -> np.ndarray:
        if self.stabilizer != "sp":
            raise ValueError(f"space {self.id} carries no symplectic structure")
        return symplectic_J(self.n)

    def membership(self, x: np.ndarray, tol: float = 1e-10):
        """Whether x is a point of the ambient group; for a stack, per matrix."""
        return _membership(self, x, tol)

    def stabilizer_membership(self, k: np.ndarray, tol: float = 1e-10) -> bool:
        return _stabilizer_membership(self, k, tol)

    def label(self) -> str:
        return f"{self.id}:n={self.n}"


SPACE_IDS = ("slr-so", "sus-sp", "su-so", "su-sp", "slc-su")


def make_space(space_id: str, n: int) -> SpaceSpec:
    if n < 1:
        raise ValueError("rank parameter n must be positive")
    if space_id == "slr-so":
        return SpaceSpec("slr-so", n, n, X_XT, TRACE_XY, False, "so")
    if space_id == "sus-sp":
        return SpaceSpec("sus-sp", n, 2 * n, X_XSTAR, RE_TRACE_XY, False, "sp")
    if space_id == "su-so":
        return SpaceSpec("su-so", n, n, X_XT, MINUS_RE_TRACE_XY, True, "so")
    if space_id == "su-sp":
        return SpaceSpec("su-sp", n, 2 * n, X_JT_XT_J, MINUS_RE_TRACE_XY, True, "sp")
    if space_id == "slc-su":
        return SpaceSpec("slc-su", n, n, X_XSTAR, RE_TRACE_XY, False, "su")
    raise ValueError(f"unknown space id {space_id!r}; expected one of {SPACE_IDS}")


def _norms(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack taken one by one: a
    norm over the stack's last two axes sums in another order and rounds differently."""
    if a.ndim == 2:
        return np.linalg.norm(a)
    return np.array([np.linalg.norm(m) for m in a.reshape((-1,) + a.shape[-2:])]).reshape(
        a.shape[:-2])


def _modulus(z):
    """abs() of each complex number: numpy's complex abs rounds differently from hypot."""
    return np.hypot(z.real, z.imag)


def _membership(space: SpaceSpec, x: np.ndarray, tol: float) -> np.ndarray:
    """Membership of a matrix, or of each matrix of a stack (x of shape (..., d, d)).

    Stacked determinants and products give each matrix the numbers it gets alone,
    and norms and moduli are taken as for one matrix, so a point's answer does not
    depend on the points stacked with it.
    """
    d = space.ambient_dim
    if x.shape[-2:] != (d, d):
        return np.zeros(x.shape[:-2], dtype=bool)
    if space.id == "slr-so":
        return ~(np.max(np.abs(x.imag), axis=(-2, -1)) > tol) & (np.linalg.det(x.real) > 0)
    if space.id == "sus-sp":
        J = space.J
        scale = np.maximum(1.0, _norms(x))
        dx = np.linalg.det(x)
        return (~(_norms(x @ J - J @ x.conj()) > tol * scale) & (dx.real > 0)
                & (np.abs(dx.imag) <= tol * np.maximum(1.0, _modulus(dx))))
    if space.id in ("su-so", "su-sp"):
        unitary = ~(_norms(x @ np.swapaxes(x, -1, -2).conj() - np.eye(d)) > tol)
        return unitary & (_modulus(np.linalg.det(x) - 1) <= tol)
    if space.id == "slc-su":
        return _modulus(np.linalg.det(x) - 1) <= tol
    raise AssertionError(space.id)


def _stabilizer_membership(space: SpaceSpec, k: np.ndarray, tol: float) -> bool:
    d = space.ambient_dim
    if k.shape != (d, d):
        return False
    if np.linalg.norm(k @ k.conj().T - np.eye(d)) > tol:
        return False
    if abs(np.linalg.det(k) - 1) > tol:
        return False
    if space.stabilizer == "so":
        return np.max(np.abs(k.imag)) <= tol
    if space.stabilizer == "sp":
        J = space.J
        return np.linalg.norm(k @ J - J @ k.conj()) <= tol
    return True  # su


# ---------------------------------------------------------------------------
# p-bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PBasis:
    """Ordered orthonormal basis of the horizontal complement."""

    elements: tuple[np.ndarray, ...]
    form: str

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def stack(self) -> np.ndarray:
        """The elements as one array over the directions, built once per basis."""
        out = np.array(self.elements, dtype=complex)
        out.setflags(write=False)
        return out

    def __iter__(self):
        return iter(self.elements)


def form_inner(form: str, a: np.ndarray, b: np.ndarray) -> float:
    t = np.trace(a @ b)
    if form == TRACE_XY:
        return complex(t).real if abs(complex(t).imag) < 1e-13 else complex(t)
    if form == RE_TRACE_XY:
        return complex(t).real
    if form == MINUS_RE_TRACE_XY:
        return -complex(t).real
    raise ValueError(f"unknown form {form!r}")


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


def _quat_block(top_left, bottom_right, top_right=None, bottom_left=None) -> np.ndarray:
    n = top_left.shape[0] if top_left is not None else top_right.shape[0]
    z = np.zeros((n, n), dtype=complex)
    tl = top_left if top_left is not None else z
    br = bottom_right if bottom_right is not None else z
    tr = top_right if top_right is not None else z
    bl = bottom_left if bottom_left is not None else z
    return np.block([[tl, tr], [bl, br]])


def stabilizer_algebra(space: SpaceSpec) -> list[np.ndarray]:
    """Generators (orthogonal, not normalized) of the stabilizer Lie algebra."""
    n = space.n
    so = [elem_Y(n, k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    if space.stabilizer == "so":
        return so
    if space.stabilizer == "su":
        # su(n) = so(n) + the tangent space of SU(n)/SO(n)
        return so + list(p_basis(make_space("su-so", n)))
    # sp(n): alpha anti-Hermitian, beta symmetric
    gens = []
    alphas = [1j * elem_D(n, k) for k in range(1, n + 1)]
    alphas += so
    alphas += [1j * elem_X(n, k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    for a in alphas:
        gens.append(_quat_block(a, a.conj()))
    betas = [elem_D(n, k) for k in range(1, n + 1)]
    betas += [elem_X(n, k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    betas += [1j * b for b in betas[: n + n * (n - 1) // 2]]
    for b in betas:
        gens.append(_quat_block(None, None, b, -b.conj()))
    return gens


@lru_cache(maxsize=None)
def _p_basis_cached(space_id: str, n: int) -> PBasis:
    space = make_space(space_id, n)
    els = []
    for m, scale_sq in p_basis_exact(space):
        z = m.astype(complex) / math.sqrt(1 / scale_sq)
        z.setflags(write=False)
        els.append(z)
    return PBasis(tuple(els), space.form)


def p_basis(space: SpaceSpec) -> PBasis:
    """The float basis, each element scale * matrix of p_basis_exact."""
    return _p_basis_cached(space.id, space.n)


# ---------------------------------------------------------------------------
# exact bases: Gaussian-integer matrices with their scale^2, built by assignment
# ---------------------------------------------------------------------------

ONE, I = ComplexRational(1), ComplexRational(0, 1)
QUARTER = Fraction(1, 4)


def p_basis_exact(space: SpaceSpec) -> list[ExactBasisElement]:
    """The basis of the horizontal complement as (matrix, scale^2) pairs.

    The compact duals take i times their partner's elements: su-so those of
    slr-so, su-sp those of sus-sp, with the trace directions replaced by the
    traceless diagonals h_j.
    """
    n = space.n
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    if space.id == "slr-so":
        one = Fraction(1)
        return ([(exact_unit(n, k, k, 1, one), one) for k in range(1, n + 1)]
                + [(exact_unit(n, k, l, 1, one), HALF) for k, l in pairs])
    if space.id == "su-so":
        return [(exact_unit(n, k, l, 1, I), HALF) for k, l in pairs] + _traceless_diagonals(n, I)
    if space.id == "slc-su":
        return ([(exact_unit(n, k, l, 1, ONE), HALF) for k, l in pairs]
                + [(exact_unit(n, k, l, -1, I), HALF) for k, l in pairs]
                + _traceless_diagonals(n, ONE))
    if space.id == "sus-sp":
        one, diagonals = ONE, [(exact_unit(n, k, k, 1, ONE), Fraction(1))
                              for k in range(1, n + 1)]
    elif space.id == "su-sp":
        one, diagonals = I, _traceless_diagonals(n, I)
    else:
        raise AssertionError(space.id)
    return ([(_exact_quat_block(n, tl=m, br=m), c / 2) for m, c in diagonals]
            + _sus_sp_basis_exact(n, one))


def _traceless_diagonals(n: int, one) -> list[ExactBasisElement]:
    """one * h_j, h_j = diag(1, ..., 1, -j, 0, ..., 0) with j ones, scale^2 1/(j(j+1))."""
    out = []
    for j in range(1, n):
        m = exact_unit(n, j + 1, j + 1, 1, one * -j)
        m[range(j), range(j)] = one
        out.append((m, Fraction(1, j * (j + 1))))
    return out


def _exact_quat_block(n, tl=None, br=None, tr=None, bl=None) -> np.ndarray:
    out = np.empty((2 * n, 2 * n), dtype=object)
    out[:] = ComplexRational(0)
    for block, (r0, c0) in ((tl, (0, 0)), (tr, (0, n)), (bl, (n, 0)), (br, (n, n))):
        if block is not None:
            out[r0:r0 + n, c0:c0 + n] = block
    return out


def _sus_sp_basis_exact(n: int, one) -> list[ExactBasisElement]:
    """The four traceless block families of the sus-sp basis, times one (1 or i)."""
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]

    def units(sign, unit):
        return [exact_unit(n, k, l, sign, unit) for k, l in pairs]

    oi = one * I
    blocks = [dict(tl=x, br=x) for x in units(1, one)]
    blocks += [dict(tl=a, br=b) for a, b in zip(units(-1, oi), units(-1, -oi))]
    blocks += [dict(tr=a, bl=b) for a, b in zip(units(-1, one), units(-1, -one))]
    blocks += [dict(tr=a, bl=a) for a in units(-1, oi)]
    return [(_exact_quat_block(n, **b), QUARTER) for b in blocks]


def symplectic_J_exact(n: int) -> np.ndarray:
    """symplectic_J(n) with ComplexRational entries."""
    return exact_matrix(symplectic_J(n).real.astype(int).tolist(), complex_backend=True)


# ---------------------------------------------------------------------------
# Casimir-style p-sum
# ---------------------------------------------------------------------------

def casimir_p_sum(space: SpaceSpec) -> np.ndarray:
    """Sum of Z^2 over the p-basis, exactly: a rational multiple of the identity."""
    d = space.ambient_dim
    total = np.full((d, d), Fraction(0), dtype=object)
    for m, scale_sq in p_basis_exact(space):
        total = total + scale_sq * (m @ m)
    return total
