"""The candidate harmonic-morphism constructions, as expressions plus domains.

Each construction pairs an expression over the base-map entries with the
space it lives on, a domain predicate with a numerical margin, and the
invariances it is expected to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .jets import BRANCH_CUT_EPS, Const, Entry, Expr, ScaleByI, Sqrt, _values, base_map_value
from .spaces import SpaceSpec, make_space

DEFAULT_MARGIN = 1e-6

STABILIZER_RIGHT = "stabilizer-right"
POSITIVE_SCALE = "positive-scale"


@dataclass(frozen=True)
class Morphism:
    """A candidate complex-valued map on the ambient group.

    ``domain`` is the map's own condition at a point of the group.  Callers
    pass points the group sampler has accepted, so it does not test
    membership again.
    """

    expr: Expr
    space: SpaceSpec
    label: str
    domain: Callable[[np.ndarray], bool]
    invariances: tuple[str, ...]


def _everywhere(x: np.ndarray) -> bool:
    """The domain of a globally defined map."""
    return True


def _check_kl(n: int, k: int, l: int) -> None:
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"indices ({k},{l}) out of range for n={n}")
    if k == l:
        raise ValueError("the construction requires k != l")


def _psi(k: int, l: int) -> Expr:
    """psi_kl = sqrt(phi_kk phi_ll - phi_kl^2) of the minor of phi on (k, l)."""
    return Sqrt(Entry(k, k) * Entry(l, l) - Entry(k, l) ** 2)


def _real_quotient(space: SpaceSpec, k: int, l: int, domain: Callable[[np.ndarray], bool],
                   invariances: tuple[str, ...]) -> Morphism:
    """(phi_kl + i psi_kl) / phi_ll on the space."""
    expr = (Entry(k, l) + ScaleByI(_psi(k, l))) / Entry(l, l)
    return Morphism(expr, space, f"{space.label()}:kl={k}{l}", domain, invariances)


def _quotient_family(space: SpaceSpec, l: int, domain: Callable[[np.ndarray], bool],
                     invariances: tuple[str, ...]) -> list[Morphism]:
    """The family {phi_kl / phi_ll | k != l} on the space."""
    return [Morphism(Entry(k, l) / Entry(l, l), space, f"{space.label()}:l={l}:k={k}", domain,
                     invariances) for k in range(1, 2 * space.n + 1) if k != l]


def real_morphism(n: int, k: int, l: int) -> Morphism:
    """(phi_kl + i psi_kl) / phi_ll on GL+(n, R), globally defined."""
    _check_kl(n, k, l)
    return _real_quotient(make_space("slr-so", n), k, l, _everywhere,
                          (STABILIZER_RIGHT, POSITIVE_SCALE))


def control_morphism(n: int) -> Morphism:
    """phi_11 on GL+(n, R): not harmonic, so its harmonic suite must FAIL."""
    space = make_space("slr-so", n)

    def domain(x: np.ndarray) -> bool:
        # moderate-scale window so the non-harmonic signal stays well above
        # the residual normalization floor at every sampled point
        phi11 = complex(base_map_value(space, x, check=False)[0, 0]).real
        return 0.1 <= phi11 <= 10.0

    return Morphism(Entry(1, 1), space, f"control:phi11:n={n}", domain, (STABILIZER_RIGHT,))


def quat_family(n: int, l: int) -> list[Morphism]:
    """The family {phi_kl / phi_ll | k != l} on U*(2n), globally defined."""
    if not 1 <= l <= n:
        raise IndexError(f"l={l} out of range for n={n}")
    return _quotient_family(make_space("sus-sp", n), l, _everywhere,
                            (STABILIZER_RIGHT, POSITIVE_SCALE))


def dual_real_domain_detail(space: SpaceSpec, k: int, l: int, x: np.ndarray,
                            margin: float = DEFAULT_MARGIN) -> tuple[bool, bool]:
    """(stated-condition ok, branch-cut guard ok) at x.

    The stated condition is phi_ll != 0 and w = phi_kk phi_ll - phi_kl^2
    off the imaginary axis; the guard additionally keeps w away from the
    principal branch cut.  The two can disagree; callers may count such
    points.  w is the argument of the square root in psi_kl, taken by a walk of
    its expression, so the guard holds exactly where a walk of psi_kl at x does
    not record a BranchCutError.
    """
    phi = base_map_value(space, x[None], check=False)
    pll = complex(phi[0, l - 1, l - 1])
    w = complex(_values(_psi(k, l).a, phi)[0][0])
    stated = abs(pll) > margin and abs(w.real) > margin * abs(w)
    cut_ok = not (w.real <= 0 and abs(w.imag) <= BRANCH_CUT_EPS * abs(w)) and w != 0
    return stated, cut_ok


def dual_real_morphism(n: int, k: int, l: int, margin: float = DEFAULT_MARGIN) -> Morphism:
    """(phi*_kl + i psi*_kl) / phi*_ll on SU(n), defined off the stated bad set."""
    _check_kl(n, k, l)
    space = make_space("su-so", n)

    def domain(x: np.ndarray) -> bool:
        stated, cut_ok = dual_real_domain_detail(space, k, l, x, margin)
        return stated and cut_ok

    return _real_quotient(space, k, l, domain, (STABILIZER_RIGHT,))


def dual_quat_family(n: int, l: int, margin: float = DEFAULT_MARGIN) -> list[Morphism]:
    """The family {phi*_kl / phi*_ll | k != l} on SU(2n), defined where phi*_ll != 0."""
    if not 1 <= l <= n:
        raise IndexError(f"l={l} out of range for n={n}")
    space = make_space("su-sp", n)

    def domain(x: np.ndarray) -> bool:
        phi = base_map_value(space, x, check=False)
        return abs(complex(phi[l - 1, l - 1])) > margin

    return _quotient_family(space, l, domain, (STABILIZER_RIGHT,))


# ---------------------------------------------------------------------------
# holomorphic composition
# ---------------------------------------------------------------------------

MAX_COMPOSE_DEGREE = 6


def _joint_domain(maps: Sequence[Morphism]) -> Callable[[np.ndarray], bool]:
    """Where every map is defined: _everywhere if every map is globally defined, else the
    one distinct predicate of the others, or a predicate calling each distinct one once."""
    domains = list(dict.fromkeys(m.domain for m in maps if m.domain is not _everywhere))
    if len(domains) > 1:
        return lambda x: all(d(x) for d in domains)
    return domains[0] if domains else _everywhere


def _family_space(family: Sequence[Morphism]) -> SpaceSpec:
    """The space every member of a non-empty family lives on."""
    if not family:
        raise ValueError("empty family")
    space = family[0].space
    if any(m.space != space for m in family[1:]):
        raise ValueError("family members live on different spaces")
    return space


def holomorphic_compose(coeffs: Mapping[tuple[int, ...], complex],
                        family: Sequence[Morphism]) -> Morphism:
    """Polynomial F(f_1, ..., f_m) of the family members.

    ``coeffs`` maps exponent tuples (one exponent per member) to complex
    coefficients; total degree at most 6.
    """
    space = _family_space(family)
    expr: Expr = Const(0.0)
    for exps, c in sorted(coeffs.items()):
        if len(exps) != len(family):
            raise ValueError(f"exponent tuple {exps} does not match family size {len(family)}")
        if sum(exps) > MAX_COMPOSE_DEGREE:
            raise ValueError(f"total degree {sum(exps)} exceeds {MAX_COMPOSE_DEGREE}")
        term: Expr = Const(complex(c))
        for f, e in zip(family, exps):
            if e > 0:
                term = term * f.expr ** e
        expr = expr + term

    shared = tuple(inv for inv in family[0].invariances
                   if all(inv in m.invariances for m in family))
    label = f"{space.id}:n={space.n}:compose[{len(family)}]"
    return Morphism(expr, space, label, _joint_domain(family), shared)


# ---------------------------------------------------------------------------
# type IV big-cell coordinates on SL(n, C)
# ---------------------------------------------------------------------------

def _expr_det(entries: list[list[Expr]]) -> Expr:
    """Determinant of a small matrix of expression nodes, by cofactor expansion."""
    m = len(entries)
    if m == 1:
        return entries[0][0]
    total: Expr | None = None
    for j in range(m):
        sub = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * _expr_det(sub)
        if j % 2 == 1:
            term = Const(0.0) - term
        total = term if total is None else total + term
    return total


def typeIV_bigcell_morphism(n: int, i: int, j: int) -> Morphism:
    """Lower-unipotent Gauss coordinate L(g g*)_ij on SL(n, C), i > j.

    g g* is Hermitian positive definite, so all leading principal minors
    are real positive and the Gauss factor exists everywhere; the entry is
    the classical minor ratio
    det(rows 1..j-1, i; cols 1..j) / det(rows 1..j; cols 1..j).
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if not (1 <= j < i <= n):
        raise ValueError(f"need 1 <= j < i <= n, got (i,j)=({i},{j})")
    space = make_space("slc-su", n)
    rows = list(range(1, j)) + [i]
    cols = list(range(1, j + 1))
    num = _expr_det([[Entry(r, c) for c in cols] for r in rows])
    den = _expr_det([[Entry(r, c) for c in cols] for r in range(1, j + 1)])
    expr = num / den
    return Morphism(expr, space, f"slc-su:n={n}:L{i}{j}", _everywhere,
                    (STABILIZER_RIGHT,))
