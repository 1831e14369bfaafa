"""Independent oracles that only the tests use: Gauss LDU, the invariant forms, the
Casimir-style p-sum, the generator of one key, a basis rotated by one key's draw
(its orthogonal factor built by Givens rotations), the value of a map at one point and
the decoding of an exact trial's draw.

Everything here stays small (n <= 16), so clarity wins over performance
throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from harmorph.jets import Expr, _values, base_map_value, raise_first_error
from harmorph.scalars import ComplexRational
from harmorph.spaces import SpaceSpec, p_basis_exact

# ---------------------------------------------------------------------------
# Gauss LDU of small float matrices
# ---------------------------------------------------------------------------


class BigCellError(ValueError):
    """A leading principal minor vanishes: the matrix is not in the big cell."""


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def gauss_ldu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss decomposition a = L D U (L, U unipotent, D diagonal).

    Exists and is unique iff all leading principal minors are nonzero;
    a zero pivot raises :class:`BigCellError`.
    """
    _check_square(a)
    n = a.shape[0]
    dt = np.result_type(a.dtype, np.float64)
    m = a.astype(dt)
    L = np.eye(n, dtype=dt)
    U = np.eye(n, dtype=dt)
    D = np.zeros((n, n), dtype=dt)
    for k in range(n):
        p = m[k, k]
        if p == 0:
            raise BigCellError(f"leading principal minor {k + 1} vanishes")
        D[k, k] = p
        for i in range(k + 1, n):
            L[i, k] = m[i, k] / p
        for j in range(k + 1, n):
            U[k, j] = m[k, j] / p
        for i in range(k + 1, n):
            factor = m[i, k] / p
            m[i, k:] = m[i, k:] - factor * m[k, k:]
    return L, D, U


# ---------------------------------------------------------------------------
# the invariant form of each space, for which its basis is orthonormal
# ---------------------------------------------------------------------------

TRACE_XY = "trace_xy"
RE_TRACE_XY = "re_trace_xy"
MINUS_RE_TRACE_XY = "minus_re_trace_xy"

FORMS = {"slr-so": TRACE_XY, "sus-sp": RE_TRACE_XY, "su-so": MINUS_RE_TRACE_XY,
         "su-sp": MINUS_RE_TRACE_XY, "slc-su": RE_TRACE_XY}


def form_inner(form: str, a: np.ndarray, b: np.ndarray) -> float:
    t = np.trace(a @ b)
    if form == TRACE_XY:
        return complex(t).real if abs(complex(t).imag) < 1e-13 else complex(t)
    if form == RE_TRACE_XY:
        return complex(t).real
    if form == MINUS_RE_TRACE_XY:
        return -complex(t).real
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# Casimir-style p-sum
# ---------------------------------------------------------------------------

def casimir_p_sum(space: SpaceSpec) -> np.ndarray:
    """Sum of Z^2 over the p-basis, exactly: a rational multiple of the identity."""
    d = space.ambient_dim
    total = np.full((d, d), ComplexRational(0), dtype=object)
    for m, scale_sq in p_basis_exact(space):
        for i, j, ar, ai in m:
            for j2, l, br, bi in m:
                if j2 == j:
                    total[i, l] = total[i, l] + scale_sq * ComplexRational(ar * br - ai * bi,
                                                                           ar * bi + ai * br)
    return total


# ---------------------------------------------------------------------------
# one key's generator and one point's value
# ---------------------------------------------------------------------------

def rng_from_seed(seed: int, *spawn: int) -> np.random.Generator:
    """The generator of one key (seed, spawn...), built directly: Philox seeded by
    SeedSequence(seed, spawn_key=spawn), the seed masked to 64 bits."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(spawn))
    return np.random.Generator(np.random.Philox(ss))


def givens_q(m: np.ndarray) -> np.ndarray:
    """The orthogonal factor Q of the real square matrix m = QR, with R's diagonal
    positive: Givens rotations zero m's entries below the diagonal, column by column
    from the bottom up, and Q is the product of their transposes."""
    r, n = np.array(m, dtype=float), len(m)
    q = np.eye(n)
    for j in range(n):
        for i in range(n - 1, j, -1):
            h = math.hypot(r[i - 1, j], r[i, j])
            if h == 0:
                continue
            c, s = r[i - 1, j] / h, r[i, j] / h
            g = np.array([[c, s], [-s, c]])
            r[[i - 1, i]] = g @ r[[i - 1, i]]
            q[:, [i - 1, i]] = q[:, [i - 1, i]] @ g.T
    return q * np.sign(np.diag(r))


def random_rotation(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The basis mixed by the orthogonal factor of rng.uniform(-1, 1, (m, m)), m its
    size, the mixing verify_basis_independence draws."""
    q = givens_q(rng.uniform(-1.0, 1.0, (len(basis),) * 2))
    return np.tensordot(q, basis, axes=1)


def eval_value(f: Expr, space: SpaceSpec, x: np.ndarray) -> complex:
    """Plain value of f at x (no derivatives), walked as a stack of one."""
    value, errors = _values(f, base_map_value(space, x[None], check=False))
    raise_first_error(errors)
    return complex(value[0])


# ---------------------------------------------------------------------------
# the four rational vectors of an exact trial
# ---------------------------------------------------------------------------

def exact_trial_fractions(rng: np.random.Generator, n: int, complex_parts: bool = False):
    """The four vectors x, y, alpha, beta of an exact trial as Fractions, and each
    vector's drawn denominators, from one rng.integers(0, 171, (4, n)) call, or
    (4, 2, n) with the real parts first: q is the fraction (q // 9 - 9) / (q % 9 + 1).

    A real vector is a list of n Fractions, a complex one a list of n (Re, Im) pairs.
    """
    draw = rng.integers(0, 171, (4, 2, n) if complex_parts else (4, n)).tolist()
    vectors, dens = [], []
    for parts in (draw if complex_parts else [[v] for v in draw]):
        values = [[Fraction(q // 9 - 9, q % 9 + 1) for q in part] for part in parts]
        vectors.append(list(zip(*values)) if complex_parts else values[0])
        dens.append([q % 9 + 1 for part in parts for q in part])
    return vectors, dens
