"""Second-order jets of stabilizer-invariant functions along one-parameter curves.

A function of the base map's entries is an immutable expression DAG.  Its
value and first two derivatives along s -> x exp(sZ) propagate through the
DAG by the 2-jet chain rules, seeded by the closed-form derivatives of the
base map (Taylor-mode forward differentiation).  A jet carries every
direction of a tangent basis and every point of a stack at once: its value
has the stack's shape and its derivatives one more leading axis over the
directions, so one DAG walk gives them all.  Every division, square root
and branch-cut test acts per point, and a point that fails one is recorded,
not raised, so the other points go on.  The tension field tau and the
conformality operator kappa are the sums of these derivatives over an
orthonormal basis of the horizontal complement; kappa is complex bilinear
(no conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import mat_exp
from .spaces import SpaceSpec, X_JT_XT_J, X_XSTAR, X_XT, p_basis

BRANCH_CUT_EPS = 1e-9


class BranchCutError(ArithmeticError):
    """Square root requested on (or within eps of) the negative real axis."""


class EvaluationError(ArithmeticError):
    """Division by zero while evaluating an expression."""


# ---------------------------------------------------------------------------
# 2-jets
# ---------------------------------------------------------------------------

# Values are multiplied and divided as Python multiplies and divides complex
# numbers: with the same real products and sums, rounded one by one (never
# fused), and the same quotient.  numpy's complex loops round differently, and
# the finite-difference oracle divides value differences by h^2 = 1e-8, so a
# last-bit change in a value would move an oracle residual by about 1e-8.  This
# keeps every value the same number at a point whatever stack it is walked in.

def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(a, b):
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a, b):
    """a / b for nonzero b: divide through by the larger of |Re b| and |Im b|."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    u, w = np.where(by_re, ar, ai), np.where(by_re, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    return _complex((u + w * ratio) / denom, np.where(by_re, 1.0, -1.0) * ((w - u * ratio) / denom))


def _guard(value, bad, make_error, errors):
    """value with 1 where bad, so that no arithmetic fails there.

    Each bad point whose entry of the error record ``errors`` is still None gets
    make_error(its value).
    """
    if not bad.any():
        return value
    bad = np.broadcast_to(bad, errors.shape)
    at = np.broadcast_to(value, errors.shape)
    for i in np.flatnonzero(bad):
        if errors.flat[i] is None:
            errors.flat[i] = make_error(complex(at.flat[i]))
    return np.where(bad, 1.0, at)


def _sqrt_error(w: complex) -> BranchCutError:
    if w == 0:
        return BranchCutError("sqrt of zero has no finite jet")
    return BranchCutError(f"sqrt argument {w} lies on the principal branch cut")


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of a scalar function along fixed curves.

    ``v`` has the shape of the stack of points (none for a constant).  ``d1``
    and ``d2`` carry, ahead of the stack's axes, one axis over tangent
    directions, and are the scalar 0 for a constant.  Division and square root
    check each point and record a bad one in the walk's error record.
    """

    v: complex | np.ndarray
    d1: complex | np.ndarray
    d2: complex | np.ndarray

    def __add__(self, o: "Jet2") -> "Jet2":
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __sub__(self, o: "Jet2") -> "Jet2":
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __mul__(self, o: "Jet2") -> "Jet2":
        return Jet2(
            _cmul(self.v, o.v),
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    def divide(self, o: "Jet2", errors: np.ndarray) -> "Jet2":
        """self / o; points where o is 0 go to ``errors`` as in _guard."""
        ov = _guard(o.v, np.asarray(o.v == 0),
                    lambda _: EvaluationError("division by zero in expression evaluation"), errors)
        inv = _cdiv(1.0, ov)
        w = _cmul(self.v, inv)
        d1 = (self.d1 - w * o.d1) * inv
        d2 = (self.d2 - 2.0 * d1 * o.d1 - w * o.d2) * inv
        return Jet2(w, d1, d2)

    def sqrt(self, errors: np.ndarray) -> "Jet2":
        """Principal square root; 0 and points within eps of the branch cut go to
        ``errors`` as in _guard."""
        w = np.asarray(self.v, dtype=complex)
        # hypot is abs() of a complex number; numpy's complex abs rounds differently
        cut = (w.real <= 0) & (np.abs(w.imag) <= BRANCH_CUT_EPS * np.hypot(w.real, w.imag))
        w = _guard(w, cut, _sqrt_error, errors)
        r = np.sqrt(w)  # principal branch, the same numbers as cmath.sqrt
        d1 = self.d1 / (2.0 * r)
        d2 = self.d2 / (2.0 * r) - self.d1 * self.d1 / (4.0 * w * r)
        return Jet2(r, d1, d2)

    def times_i(self) -> "Jet2":
        return Jet2(_cmul(1j, self.v), 1j * self.d1, 1j * self.d2)


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


# the jet of an operation node from its children's jets and the walk's error record
_CHAIN_RULES = {Add: lambda a, b, errors: a + b, Sub: lambda a, b, errors: a - b,
                Mul: lambda a, b, errors: a * b, Div: Jet2.divide, Sqrt: Jet2.sqrt,
                ScaleByI: lambda a, errors: a.times_i()}


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


_BLOCK = 10  # points per product x M in JetContext


class JetContext:
    """Base-map jets at a stack of points along every basis direction.

    With T the companion anti-homomorphism, the base map along s -> x exp(sZ) is
    Phi(s) = x exp(sZ) exp(s T(Z)) T(x), for any direction Z, so at s = 0

        Phi = x T(x),  dPhi = x (Z + TZ) T(x),  d2Phi = x (Z^2 + 2 Z TZ + TZ^2) T(x).

    For Z in the horizontal complement T(Z) = Z, and the derivatives reduce to
    2 x Z T(x) and 4 x Z^2 T(x).  For x of shape (..., d, d), ``phi`` is the
    base map, shape (..., d, c), and ``d1`` and ``d2`` stack its first and
    second derivatives along each basis direction, shape (directions, ..., d, c).
    They hold the c base-map columns listed in ``columns`` (1-based), by default
    all of them: a suite over a stack asks only for the columns its maps read,
    which keeps the stack's jets small.
    """

    def __init__(self, space: SpaceSpec, x: np.ndarray, basis: np.ndarray | None = None,
                 columns=None):
        self.space = space
        self.x = x
        self.basis = basis if basis is not None else p_basis(space)
        d, dirs = x.shape[-1], len(self.basis)
        cols = range(1, d + 1) if columns is None else sorted(columns)
        self._column = {l: i for i, l in enumerate(cols)}
        z = np.asarray(self.basis).reshape(dirs, d, d)
        tz = _companion(space, z)
        # x M T(x) for M = Z + TZ and Z^2 + 2 Z TZ + TZ^2 of every direction: x times
        # all the M as one matrix product, then T(x), a block of points at a time so
        # that the products stay small, keeping the wanted columns
        m = np.concatenate([z + tz, z @ z + 2.0 * (z @ tz) + tz @ tz])
        m = m.transpose(1, 0, 2).reshape(d, 2 * dirs * d)
        xs = x.reshape(-1, d, d)
        tx = _companion(space, xs)
        keep = slice(None) if columns is None else [l - 1 for l in cols]
        both = np.empty((len(xs), 2 * dirs * d, len(cols)), dtype=complex)
        for s in range(0, len(xs), _BLOCK):
            block = xs[s:s + _BLOCK]
            left = (block.reshape(-1, d) @ m).reshape(len(block), 2 * dirs * d, d)
            both[s:s + _BLOCK] = (left @ tx[s:s + _BLOCK])[..., keep]
        both = np.moveaxis(both.reshape(x.shape[:-2] + (d, 2 * dirs, len(cols))), -2, 0)
        self.phi = (xs @ tx)[..., keep].reshape(x.shape[:-2] + (d, len(cols)))
        self.d1, self.d2 = both[:dirs], both[dirs:]

    def entry_jet(self, k: int, l: int) -> Jet2:
        """Jet of the base-map entry (k, l), 1-based, along every basis direction."""
        c = self._column[l]
        return Jet2(self.phi[..., k - 1, c], self.d1[..., k - 1, c], self.d2[..., k - 1, c])

    def base_map_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """tau(phi_kl) as a matrix, and kappa(phi_kl, phi_ij) indexed [k, l, i, j], at
        each point of the stack."""
        return self.d2.sum(axis=0), np.einsum("z...kl,z...ij->...klij", self.d1, self.d1)


def _eval(f: Expr, entry_fn, shape: tuple[int, ...]) -> tuple[Jet2, np.ndarray]:
    """Jet of f at a stack of points of the given shape, from one walk of the DAG.

    entry_fn(k, l) gives the jet of the base-map entry (k, l) over the stack.
    Also returns the stack's error record: at each point the first
    EvaluationError or BranchCutError of the walk there, in DAG order, or None.
    The jet is meaningless at a point with an error.
    """
    errors = np.full(shape, None, dtype=object)
    return _walk(f, entry_fn, errors), errors


def _walk(f: Expr, entry_fn, errors: np.ndarray) -> Jet2:
    """Each node's jet once, after its children's, first child first: the order of a
    recursive walk, kept on an explicit stack so that no depth limit applies."""
    memo: dict[int, Jet2] = {}
    todo = [(f, False)]
    while todo:
        e, ready = todo.pop()
        if id(e) in memo:
            continue
        kids = [v for v in vars(e).values() if isinstance(v, Expr)]
        if kids and not ready:
            todo += [(e, True)] + [(k, False) for k in reversed(kids)]
            continue
        if isinstance(e, Const):
            memo[id(e)] = Jet2(complex(e.value), 0.0, 0.0)
        elif isinstance(e, Entry):
            memo[id(e)] = entry_fn(e.k, e.l)
        else:
            memo[id(e)] = _CHAIN_RULES[type(e)](*(memo[id(k)] for k in kids), errors)
    return memo[id(f)]


def raise_first_error(errors: np.ndarray) -> None:
    """Raise the error of the first point of an error record that has one."""
    for err in errors.flat:
        if err is not None:
            raise err


def eval_jet(f: Expr, space: SpaceSpec, x: np.ndarray, z: np.ndarray) -> Jet2:
    """Value and first two derivatives of f along s -> x exp(sZ): the jet of the
    point x as a stack of one, along the one direction z."""
    jet, errors = eval_jet_cached(f, JetContext(space, x[None], z[None]))
    raise_first_error(errors)
    return Jet2(*(complex(np.ravel(a)[0]) for a in (jet.v, jet.d1, jet.d2)))


def _values(f: Expr, space: SpaceSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of f at a stack of points, and the walk's error record."""
    phi = base_map_value(space, x, check=False)
    jet, errors = _eval(f, lambda k, l: Jet2(phi[..., k - 1, l - 1], 0.0, 0.0), phi.shape[:-2])
    return np.broadcast_to(jet.v, errors.shape), errors


def eval_value(f: Expr, space: SpaceSpec, x: np.ndarray) -> complex:
    """Plain value of f at x (no derivatives), walked as a stack of one."""
    value, errors = _values(f, space, x[None])
    raise_first_error(errors)
    return complex(value[0])


def entry_columns(f: Expr) -> set[int]:
    """The base-map columns l of the entries (k, l) that f reads."""
    seen, todo, cols = set(), [f], set()
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            if isinstance(e, Entry):
                cols.add(e.l)
            todo.extend(v for v in vars(e).values() if isinstance(v, Expr))
    return cols


def eval_jet_cached(f: Expr, ctx: JetContext) -> tuple[Jet2, np.ndarray]:
    """Jet of f along every basis direction of ctx, at each of its points, from one
    walk of the DAG, and the walk's error record (see _eval)."""
    return _eval(f, ctx.entry_jet, ctx.phi.shape[:-2])


def _direction_sum(a):
    # a 0-d derivative is a constant's 0
    return np.sum(a, axis=0) if np.ndim(a) else a


def jet_sums(j: Jet2) -> tuple:
    """(tau(f), kappa(f, f), energy) from the jet of f along an orthonormal basis.

    tau sums the second derivatives, kappa the squared first derivatives
    (bilinear, no conjugation), and the energy sum of |d1|^2 is the scale
    used to normalize residuals.  Each has the shape of the jet's stack of
    points.  A jet whose derivatives are the scalar 0.0 (a constant) sums to
    zero.
    """
    return (_direction_sum(j.d2), _direction_sum(j.d1 * j.d1),
            _direction_sum(np.abs(j.d1) ** 2))


def kappa_sum(jf: Jet2, jg: Jet2):
    """kappa(f, g) from the jets of f and g along the same orthonormal basis."""
    return _direction_sum(jf.d1 * jg.d1)


def normalized_residual(value, energy):
    """|value| / max(1, S): the zero-target residual convention."""
    return np.abs(value) / np.maximum(1.0, energy)


def _divided(a: np.ndarray, b: float) -> np.ndarray:
    # Python's complex / float divides each part; numpy multiplies by a reciprocal
    return _complex(a.real / b, a.imag / b)


def fd_jet(f: Expr, space: SpaceSpec, x: np.ndarray, z: np.ndarray, h: float,
           errors: np.ndarray) -> Jet2:
    """Independent central-difference oracle for the jets (O(h^2) accurate).

    At each point of a stack x of shape (k, d, d) along its own direction, the
    matching entry of z.  One stacked exponential of the 2k matrices +-hZ and one
    walk of the values over the (3, k) stencil points give every point the
    numbers it gets in a stack of its own.  A point whose stencil has an error
    gets the first one (+h, then 0, then -h) in its entry of ``errors``, as in
    _guard.
    """
    k = len(x)
    e = mat_exp(np.concatenate([h * z, -h * z]))
    values, stencil_errors = _values(f, space, np.stack([x @ e[:k], x, x @ e[k:]]))
    for i, stencil in enumerate(stencil_errors.T):
        if errors[i] is None:
            errors[i] = next((err for err in stencil if err is not None), None)
    fp, f0, fm = values
    return Jet2(f0, _divided(fp - fm, 2.0 * h), _divided(fp - 2.0 * f0 + fm, h * h))


def rotated_basis(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random orthogonal mixing matrix to the basis elements."""
    d = len(basis)
    m = rng.uniform(-1.0, 1.0, (d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    return np.tensordot(q, basis, axes=1)
