"""Gauss LDU of small float matrices, kept as an independent oracle for the tests.

Everything here stays small (n <= 16), so clarity wins over performance
throughout.
"""

from __future__ import annotations

import numpy as np


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
