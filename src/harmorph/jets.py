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
(no conjugation).  Every such sum adds the directions one at a time in
basis order (_direction_sum), so a point's sums do not depend on its stack
or on how the stack is laid out in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sampling import normal_exp, sign_fixed_q
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

    def __getitem__(self, index) -> "Jet2":
        """The jet at v[..., index]: the index acts on the stack's last axes."""
        return Jet2(*(a[(Ellipsis, *np.index_exp[index])] for a in (self.v, self.d1, self.d2)))


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


def _direction_products(space: SpaceSpec, z: np.ndarray) -> np.ndarray:
    """The M = Z + TZ of every direction Z of the stack z, then its Z^2 + 2 Z TZ + TZ^2,
    as the rows of one (2 directions d, d) matrix."""
    tz = _companion(space, z)
    return np.concatenate([z + tz, z @ z + 2.0 * (z @ tz) + tz @ tz]).reshape(-1, z.shape[-1])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _stock_products(space: SpaceSpec) -> np.ndarray:
    """_direction_products of p_basis(space), built once per space and read-only."""
    return _read_only(_direction_products(space, p_basis(space)))


class JetContext:
    """Base-map jets at a stack of points along every basis direction.

    With T the companion anti-homomorphism, the base map along s -> x exp(sZ) is
    Phi(s) = x exp(sZ) exp(s T(Z)) T(x), for any direction Z, so at s = 0

        Phi = x T(x),  dPhi = x (Z + TZ) T(x),  d2Phi = x (Z^2 + 2 Z TZ + TZ^2) T(x).

    For Z in the horizontal complement T(Z) = Z, and the derivatives reduce to
    2 x Z T(x) and 4 x Z^2 T(x).  For x of shape (..., d, d), ``phi`` is the
    base map, shape (..., d, d), and ``d1`` and ``d2`` stack its first and
    second derivatives along each basis direction, shape (directions, ..., d, d).
    ``entry_jet`` computes a column's derivatives when it is first asked for and
    keeps them, so a walk computes only the columns its map reads, and a later walk
    on the same context reuses them; ``d1`` and ``d2`` take all columns in one
    product.  Every array the context holds is read-only.

    Column l of a derivative is x (M T(x) e_l) for each M above.  One product
    gives M T(x) e_l for every M at every point and every asked column l, and
    each point's x then multiplies its own block.  A point's jets are the same
    numbers alone, in any stack and with any columns.  Where neither the points
    nor the basis have an imaginary part (slr-so, and real stabilizer or rotated
    bases), the derivatives are real and taken in float64; ``phi`` is the complex
    product either way.
    """

    def __init__(self, space: SpaceSpec, x: np.ndarray, basis: np.ndarray | None = None):
        self.space = space
        self.x = _read_only(x.view())
        self.basis = basis if basis is not None else p_basis(space)
        d = x.shape[-1]
        xs = x.reshape(-1, d, d)
        self.phi = _read_only((xs @ _companion(space, xs)).reshape(x.shape))
        if self.basis is p_basis(space):
            m = _stock_products(space)
        else:
            m = _direction_products(space, np.asarray(self.basis).reshape(len(self.basis), d, d))
        if not np.imag(m).any() and not np.imag(xs).any():
            m, xs = np.ascontiguousarray(m.real), np.ascontiguousarray(xs.real)
        # row l of point p: (T(x) e_l)^T
        self._m, self._xs, self._tx = m, xs, _companion(space, xs).swapaxes(-1, -2)
        self._columns: dict[int, np.ndarray] = {}

    def _jets(self, columns: list[int]) -> np.ndarray:
        """d1 then d2 of the base-map columns listed (1-based), stacked over
        2 * directions, shape (2 directions, ..., d, len(columns))."""
        xs, d, dirs = self._xs, self._xs.shape[-1], len(self.basis)
        # The stack and the columns set only the number of rows of each product below:
        # BLAS rounds a row the same way whatever their number, but not a column (the
        # last few take another kernel), and it sends a product of one row to gemv,
        # which rounds differently (hence a spare row).
        rows = np.zeros((len(xs) * len(columns) + 1, d), dtype=xs.dtype)
        rows[:-1] = self._tx[:, [l - 1 for l in columns]].reshape(-1, d)
        # row (point, l) of the first product holds (M T(x) e_l)^T of every M; taken
        # per point, row (l, M) of the second holds (x M T(x) e_l)^T
        mt = (rows @ self._m.T)[:-1].reshape(len(xs), len(columns) * 2 * dirs, d)
        both = (mt @ xs.swapaxes(-1, -2)).reshape(len(xs), len(columns), 2 * dirs, d)
        return _read_only(both.transpose(2, 0, 3, 1).reshape(
            (2 * dirs,) + self.x.shape[:-2] + (d, len(columns))))

    @cached_property
    def _all(self) -> np.ndarray:
        return self._jets(range(1, self.x.shape[-1] + 1))

    @property
    def d1(self) -> np.ndarray:
        return self._all[:len(self.basis)]

    @property
    def d2(self) -> np.ndarray:
        return self._all[len(self.basis):]

    def entry_jet(self, k: int, l: int) -> Jet2:
        """Jet of the base-map entry (k, l), 1-based, along every basis direction."""
        column = self._columns.get(l)
        if column is None:
            column = self._columns[l] = self._jets([l])[..., 0]
        dirs = len(self.basis)
        return Jet2(self.phi[..., k - 1, l - 1], column[:dirs, ..., k - 1],
                    column[dirs:, ..., k - 1])


def _eval(f: Expr, entry_fn, shape: tuple[int, ...]) -> tuple[Jet2, np.ndarray]:
    """Jet of f at a stack of points of the given shape, from one walk of the DAG.

    entry_fn(k, l) gives the jet of the base-map entry (k, l) over the stack.
    Also returns the stack's error record: at each point the first
    EvaluationError or BranchCutError of the walk there, in DAG order, or None.
    The jet is meaningless at a point with an error.

    Each node's jet is taken once, after its children's, first child first: the
    order of a recursive walk, kept on an explicit stack so that no depth limit
    applies.
    """
    errors = np.full(shape, None, dtype=object)
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
    return memo[id(f)], errors


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


def _values(f: Expr, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of f at a stack of base-map values phi (base_map_value of a stack of
    points), and the walk's error record."""
    jet, errors = _eval(f, lambda k, l: Jet2(phi[..., k - 1, l - 1], 0.0, 0.0), phi.shape[:-2])
    return np.broadcast_to(jet.v, errors.shape), errors


def eval_jet_cached(f: Expr, ctx: JetContext) -> tuple[Jet2, np.ndarray]:
    """Jet of f along every basis direction of ctx, at each of its points, from one
    walk of the DAG, and the walk's error record (see _eval)."""
    return _eval(f, ctx.entry_jet, ctx.phi.shape[:-2])


def _direction_sum(a, b=None):
    """The sum of a[z], or of a[z] * b[z], over the leading axis of directions z,
    added to zero one direction at a time in basis order.  Each term is an array
    over the stack (numpy's scalar complex product rounds differently), so a
    point's sum has the same bits whatever its stack and memory layout."""
    if b is not None:
        a, b = np.broadcast_arrays(a, b)
    if not np.ndim(a):  # a constant's 0
        return a if b is None else a * b
    total = np.zeros(a.shape[1:])
    for z in range(len(a)):
        total = total + (a[z, ...] if b is None else a[z, ...] * b[z, ...])
    return total


def jet_sums(j: Jet2) -> tuple:
    """(tau(f), kappa(f, f), energy) from the jet of f along an orthonormal basis.

    tau sums the second derivatives, kappa the squared first derivatives
    (bilinear, no conjugation), and the energy sum of |d1|^2 is the scale
    used to normalize residuals.  Each has the shape of the jet's stack of
    points.  A jet whose derivatives are the scalar 0.0 (a constant) sums to
    zero.
    """
    modulus = np.abs(j.d1)
    return _direction_sum(j.d2), _direction_sum(j.d1, j.d1), _direction_sum(modulus, modulus)


def kappa_sum(jf: Jet2, jg: Jet2):
    """kappa(f, g) from the jets of f and g along the same orthonormal basis."""
    return _direction_sum(jf.d1, jg.d1)


def normalized_residual(value, scale):
    """|value| / max(1, S): the zero-target residual convention.  It is NaN, so it
    fails, where S is not finite: an overflowed scale normalizes nothing."""
    return np.where(np.isfinite(scale), np.abs(value) / np.maximum(1.0, scale), np.nan)


def _divided(a: np.ndarray, b: float) -> np.ndarray:
    # Python's complex / float divides each part; numpy multiplies by a reciprocal
    return _complex(a.real / b, a.imag / b)


def fd_jet(f: Expr, space: SpaceSpec, x: np.ndarray, z: np.ndarray,
           h: float) -> tuple[Jet2, np.ndarray]:
    """Independent central-difference oracle for the jets (O(h^2) accurate), and its
    error record.

    At each point of a stack x of shape (k, d, d) along its own direction, the
    matching entry of z.  A direction is Hermitian, or skew-Hermitian on a compact
    dual, so one stacked eigh of the k directions gives both exp(+hZ) and
    exp(-hZ).  That and one walk of the values over the (3, k) stencil points give
    every point the numbers it gets in a stack of its own.  The stencil's base-map
    values are kept for the next calls with the same space, h, x and z (_stencil),
    so every map of one space at one seed walks the same ones.  A point whose
    stencil has an error gets the first one (+h, then 0, then -h) in its entry of
    the record.
    """
    (fp, f0, fm), errors = _values(f, _stencil(space, x, z, h))
    jet = Jet2(f0, _divided(fp - fm, 2.0 * h), _divided(fp - 2.0 * f0 + fm, h * h))
    return jet, _first_errors(*errors)


# the base-map values of the latest oracle stencils, oldest first, with their
# (space, h, x, z); enough for every member of a family to find its own again
_STENCILS: list[tuple] = []
_STENCILS_MAXSIZE = 8


def _stencil(space: SpaceSpec, x: np.ndarray, z: np.ndarray, h: float) -> np.ndarray:
    """The base map at x exp(+hZ), x and x exp(-hZ), shape (3, k, d, d) and read-only:
    from _STENCILS if an entry has the same space, h and bits of x and z."""
    for held_space, step, held_x, held_z, phi in _STENCILS:
        if held_space == space and step == h and _same_bits(held_x, x) and _same_bits(held_z, z):
            return phi
    ep, em = normal_exp(z, space.compact, (h, -h))
    phi = _read_only(base_map_value(space, np.stack([x @ ep, x, x @ em]), check=False))
    _STENCILS.append((space, h, x.copy(), z.copy(), phi))
    del _STENCILS[:-_STENCILS_MAXSIZE]
    return phi


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the arrays have the same dtype, shape and bits, so that every product
    of theirs is the same."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _first_errors(*records) -> np.ndarray:
    """Each point's first error over the error records, taken in order, or None."""
    out = np.full(np.shape(records[0]), None, dtype=object)
    for r in reversed(records):
        out = np.where(np.equal(r, None), out, r)
    return out


def rotated_basis(basis: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """The basis elements mixed by the orthogonal QR factor of the square matrix mixing."""
    return np.tensordot(sign_fixed_q(mixing), basis, axes=1)
