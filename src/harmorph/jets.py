"""Second-order jets of stabilizer-invariant functions along one-parameter curves.

A function of the base map's entries is an immutable expression DAG.  Its
value and first two derivatives along s -> x exp(sZ) propagate through the
DAG by the 2-jet chain rules, seeded by the closed-form derivatives of the
base map (Taylor-mode forward differentiation).  A jet carries every
direction of a tangent basis at once: its value is the scalar at the point
and its derivatives are arrays over the directions, so one DAG walk per
point gives them all, and every division, square root and branch-cut test
acts on the scalar value.  The tension field tau and the conformality operator kappa
are the sums of these derivatives over an orthonormal basis of the
horizontal complement; kappa is complex bilinear (no conjugation).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .matrices import mat_exp
from .spaces import PBasis, SpaceSpec, X_JT_XT_J, X_XSTAR, X_XT, p_basis

BRANCH_CUT_EPS = 1e-9


class BranchCutError(ArithmeticError):
    """Square root requested on (or within eps of) the negative real axis."""


class EvaluationError(ArithmeticError):
    """Division by zero while evaluating an expression."""


# ---------------------------------------------------------------------------
# 2-jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of a scalar function along a fixed curve."""

    v: complex
    d1: complex
    d2: complex

    def __add__(self, o: "Jet2") -> "Jet2":
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __sub__(self, o: "Jet2") -> "Jet2":
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __mul__(self, o: "Jet2") -> "Jet2":
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    def __truediv__(self, o: "Jet2") -> "Jet2":
        if o.v == 0:
            raise EvaluationError("division by zero in expression evaluation")
        inv = 1.0 / o.v
        w = self.v * inv
        d1 = (self.d1 - w * o.d1) * inv
        d2 = (self.d2 - 2.0 * d1 * o.d1 - w * o.d2) * inv
        return Jet2(w, d1, d2)

    def sqrt(self) -> "Jet2":
        w = complex(self.v)
        if w == 0:
            raise BranchCutError("sqrt of zero has no finite jet")
        if w.real <= 0 and abs(w.imag) <= BRANCH_CUT_EPS * abs(w):
            raise BranchCutError(f"sqrt argument {w} lies on the principal branch cut")
        r = cmath.sqrt(w)  # principal branch
        d1 = self.d1 / (2.0 * r)
        d2 = self.d2 / (2.0 * r) - self.d1 * self.d1 / (4.0 * w * r)
        return Jet2(r, d1, d2)

    def times_i(self) -> "Jet2":
        return Jet2(1j * self.v, 1j * self.d1, 1j * self.d2)


# ---------------------------------------------------------------------------
# expression DAG
# ---------------------------------------------------------------------------

class Expr:
    """Immutable node of an expression over entries of the base map."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _wrap(other))

    def __radd__(self, other):
        return Add(_wrap(other), self)

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __rsub__(self, other):
        return Sub(_wrap(other), self)

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)

    def __truediv__(self, other):
        return Div(self, _wrap(other))

    def __rtruediv__(self, other):
        return Div(_wrap(other), self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        if k == 0:
            return Const(1.0)
        out = self
        for _ in range(k - 1):
            out = Mul(out, self)
        return out

    def __neg__(self):
        return Sub(Const(0.0), self)


def _wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(complex(x))


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Entry(Expr):
    """Entry (k, l) of the base map, 1-based."""

    k: int
    l: int


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    a: Expr


@dataclass(frozen=True)
class ScaleByI(Expr):
    a: Expr


# ---------------------------------------------------------------------------
# base map and its jets
# ---------------------------------------------------------------------------

def _companion(space: SpaceSpec, m: np.ndarray) -> np.ndarray:
    """The anti-homomorphism T with base map x -> x T(x), on a matrix or a stack of them."""
    mt = np.swapaxes(m, -1, -2)
    if space.base_map_variant == X_XT:
        return mt
    if space.base_map_variant == X_XSTAR:
        return mt.conj()
    if space.base_map_variant == X_JT_XT_J:
        J = space.J
        return J.T @ mt @ J
    raise AssertionError(space.base_map_variant)


def base_map_value(space: SpaceSpec, x: np.ndarray, check: bool = True) -> np.ndarray:
    if check and not space.membership(x, 1e-8):
        raise ValueError(f"point is not a member of {space.id} (n={space.n})")
    return x @ _companion(space, x)


def base_map_jet(space: SpaceSpec, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Phi, dPhi, d2Phi) along s -> x exp(sZ) at s = 0.

    Valid for any direction z: with T the companion anti-homomorphism,
    Phi(s) = x exp(sZ) exp(s T(Z)) T(x), so the derivatives are
    x (Z + TZ) T(x) and x (Z^2 + 2 Z TZ + TZ^2) T(x).  For z in the
    horizontal complement T(Z) = Z and these reduce to 2 x Z T(x) and
    4 x Z^2 T(x).
    """
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: point {x.shape}, direction {z.shape}")
    tx = _companion(space, x)
    tz = _companion(space, z)
    phi = x @ tx
    d1 = x @ (z + tz) @ tx
    d2 = x @ (z @ z + 2.0 * (z @ tz) + tz @ tz) @ tx
    return phi, d1, d2


class JetContext:
    """Base-map jets at one point along every basis direction at once.

    ``phi`` is the base map at x; ``d1`` and ``d2`` stack its first and second
    derivatives along each basis direction, shape (directions, d, d), computed
    as in ``base_map_jet`` by stacked matrix products.
    """

    def __init__(self, space: SpaceSpec, x: np.ndarray, basis: PBasis | None = None):
        self.space = space
        self.x = x
        self.basis = basis if basis is not None else p_basis(space)
        d = x.shape[0]
        z = np.array(self.basis.elements, dtype=complex).reshape(len(self.basis), d, d)
        tx = _companion(space, x)
        tz = _companion(space, z)
        self.phi = x @ tx
        self.d1 = x @ (z + tz) @ tx
        self.d2 = x @ (z @ z + 2.0 * (z @ tz) + tz @ tz) @ tx

    def entry_jet(self, k: int, l: int) -> Jet2:
        """Jet of the base-map entry (k, l), 1-based, along every basis direction."""
        return Jet2(complex(self.phi[k - 1, l - 1]), self.d1[:, k - 1, l - 1],
                    self.d2[:, k - 1, l - 1])

    def base_map_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """tau(phi_kl) as a matrix, and kappa(phi_kl, phi_ij) indexed [k, l, i, j]."""
        return self.d2.sum(axis=0), np.einsum("zkl,zij->klij", self.d1, self.d1)


def _eval(e: Expr, entry_fn, memo: dict) -> Jet2:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = Jet2(complex(e.value), 0.0, 0.0)
    elif isinstance(e, Entry):
        out = entry_fn(e.k, e.l)
    elif isinstance(e, Add):
        out = _eval(e.a, entry_fn, memo) + _eval(e.b, entry_fn, memo)
    elif isinstance(e, Sub):
        out = _eval(e.a, entry_fn, memo) - _eval(e.b, entry_fn, memo)
    elif isinstance(e, Mul):
        out = _eval(e.a, entry_fn, memo) * _eval(e.b, entry_fn, memo)
    elif isinstance(e, Div):
        out = _eval(e.a, entry_fn, memo) / _eval(e.b, entry_fn, memo)
    elif isinstance(e, Sqrt):
        out = _eval(e.a, entry_fn, memo).sqrt()
    elif isinstance(e, ScaleByI):
        out = _eval(e.a, entry_fn, memo).times_i()
    else:
        raise TypeError(f"unknown expression node {type(e).__name__}")
    memo[key] = out
    return out


def eval_jet(f: Expr, space: SpaceSpec, x: np.ndarray, z: np.ndarray) -> Jet2:
    """Value and first two derivatives of f along s -> x exp(sZ)."""
    phi, d1, d2 = base_map_jet(space, x, z)

    def entry_fn(k, l):
        return Jet2(complex(phi[k - 1, l - 1]), complex(d1[k - 1, l - 1]), complex(d2[k - 1, l - 1]))

    return _eval(f, entry_fn, {})


def eval_value(f: Expr, space: SpaceSpec, x: np.ndarray) -> complex:
    """Plain value of f at x (no derivatives)."""
    phi = base_map_value(space, x, check=False)

    def entry_fn(k, l):
        return Jet2(complex(phi[k - 1, l - 1]), 0.0, 0.0)

    return _eval(f, entry_fn, {}).v


def eval_jet_cached(f: Expr, ctx: JetContext) -> Jet2:
    """Jet of f along every basis direction of ctx, from one walk of the DAG."""
    return _eval(f, ctx.entry_jet, {})


def direction_jets(f: Expr, space: SpaceSpec, x: np.ndarray,
                   basis: PBasis | None = None) -> Jet2:
    """Jet of f at x along every direction of the basis (default: p_basis)."""
    return eval_jet_cached(f, JetContext(space, x, basis))


def jet_sums(j: Jet2) -> tuple[complex, complex, float]:
    """(tau(f), kappa(f, f), energy) from the jet of f along an orthonormal basis.

    tau sums the second derivatives, kappa the squared first derivatives
    (bilinear, no conjugation), and the energy sum of |d1|^2 is the scale
    used to normalize residuals.  A jet whose derivatives are the scalar 0.0
    (a constant) sums to zero.
    """
    return (complex(np.sum(j.d2)), complex(np.sum(j.d1 * j.d1)),
            float(np.sum(np.abs(j.d1) ** 2)))


def kappa_sum(jf: Jet2, jg: Jet2) -> complex:
    """kappa(f, g) from the jets of f and g along the same orthonormal basis."""
    return complex(np.sum(jf.d1 * jg.d1))


def normalized_residual(value: complex, energy: float) -> float:
    """|value| / max(1, S): the zero-target residual convention."""
    return abs(value) / max(1.0, energy)


DEFAULT_FD_STEP = 1e-4


def fd_jet(f: Expr, space: SpaceSpec, x: np.ndarray, z: np.ndarray,
           h: float = DEFAULT_FD_STEP) -> Jet2:
    """Independent central-difference oracle for eval_jet (O(h^2) accurate)."""
    xp = x @ mat_exp(h * z)
    xm = x @ mat_exp(-h * z)
    fp = eval_value(f, space, xp)
    f0 = eval_value(f, space, x)
    fm = eval_value(f, space, xm)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))


def rotated_basis(basis: PBasis, rng: np.random.Generator) -> PBasis:
    """Apply a random orthogonal mixing matrix to the basis elements."""
    d = len(basis)
    m = rng.uniform(-1.0, 1.0, (d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    els = []
    for i in range(d):
        acc = np.zeros_like(basis.elements[0])
        for j in range(d):
            acc = acc + q[i, j] * basis.elements[j]
        els.append(acc)
    return PBasis(tuple(els), basis.form)
