"""Dense matrix kernel shared by the float and exact rational backends.

Matrices are numpy arrays: float64/complex128 for the numerical backend,
``dtype=object`` holding Fraction or ComplexRational entries for the exact
backend.  Everything here stays small (n <= 16), so clarity wins over
performance throughout.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg


class BackendError(TypeError):
    """Operation requested on an unsupported scalar backend."""


class BigCellError(ValueError):
    """A leading principal minor vanishes: the matrix is not in the big cell."""


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or of each matrix of a stack; float backends only."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if is_exact(a):
        raise BackendError("mat_exp is not defined on the exact backend")
    return scipy.linalg.expm(a)


def exact_eye(n: int) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Fraction(1) if i == j else Fraction(0)
    return out


def _zero(a: np.ndarray):
    return Fraction(0) if is_exact(a) else a.dtype.type(0)


def _one(a: np.ndarray):
    return Fraction(1) if is_exact(a) else a.dtype.type(1)


def det(a: np.ndarray):
    """Determinant via Gaussian elimination with pivot search.

    Exact on the rational backends (Fraction / ComplexRational entries).
    """
    _check_square(a)
    n = a.shape[0]
    m = a.copy()
    sign = 1
    result = _one(a)
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if m[i, k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return _zero(a)
        if pivot_row != k:
            m[[k, pivot_row]] = m[[pivot_row, k]]
            sign = -sign
        p = m[k, k]
        result = result * p
        for i in range(k + 1, n):
            factor = m[i, k] / p
            m[i, k:] = m[i, k:] - factor * m[k, k:]
    return sign * result if sign < 0 else result


def leading_principal_minors(a: np.ndarray) -> list:
    """Minors m_1..m_n, where m_k is the determinant of the top-left k x k block."""
    _check_square(a)
    return [det(a[:k, :k]) for k in range(1, a.shape[0] + 1)]


def gauss_ldu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss decomposition a = L D U (L, U unipotent, D diagonal).

    Exists and is unique iff all leading principal minors are nonzero;
    a zero pivot raises :class:`BigCellError`.
    """
    _check_square(a)
    n = a.shape[0]
    m = a.copy()
    if is_exact(a):
        L = exact_eye(n)
        U = exact_eye(n)
        D = np.empty((n, n), dtype=object)
        D[:] = Fraction(0)
    else:
        dt = np.result_type(a.dtype, np.float64)
        L = np.eye(n, dtype=dt)
        U = np.eye(n, dtype=dt)
        D = np.zeros((n, n), dtype=dt)
        m = m.astype(dt)
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
