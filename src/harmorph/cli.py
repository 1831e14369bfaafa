"""Command-line entry point: every suite behind reproducible flags.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error.  When no seed is given a fresh one is drawn and
echoed on standard error so any run can be replayed.
"""

from __future__ import annotations

import ast
import cmath
import math
import sys

import click

from . import verify as vf
from .morphisms import (MAX_COMPOSE_DEGREE, control_morphism, dual_quat_family,
                        dual_real_morphism, holomorphic_compose, quat_family, real_morphism,
                        typeIV_bigcell_morphism)
from .sampling import fresh_seed
from .spaces import SPACE_IDS, SPACES, expected_basis_size, make_space


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    s = fresh_seed()
    click.echo(f"seed: {s}", err=True)
    return s


def _emit(ctx, reports, fmt: str, output: str | None) -> None:
    """Write the reports, then exit 0 if every report passed and 1 otherwise; a report
    that cannot be written is a configuration error, exit 2."""
    text = "\n".join(vf.render_report(r, fmt) for r in reports) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"Error: cannot write the report to {output}: {exc.strerror}", err=True)
            ctx.exit(2)
    else:
        click.echo(text, nl=False)
    ctx.exit(0 if all(r.passed for r in reports) else 1)


def _check_tol(ctx, param, value):
    # nan would pass every check (residual > nan is False) and inf accepts anything
    if value is not None and not 0 < value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number > 0")
    return value


format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                             default="text", show_default=True)
output_option = click.option("--output", type=click.Path(writable=True), default=None,
                             help="Write the report(s) to this path instead of stdout.")
# the generators mask a seed to 64 bits, so a wider range would alias seeds
seed_option = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
                           help="64-bit seed, 0 <= S < 2^64; a fresh one is drawn and "
                                "echoed if omitted.")


@click.group()
def main():
    """Verification workbench for harmonic-morphism constructions on matrix symmetric spaces."""


@main.command()
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True,
              help="Rank parameter used to display concrete sizes.")
def spaces(n):
    """List the supported symmetric-space configurations."""
    click.echo(f"{'id':<8} {'ambient':<10} {'matrix size':<12} {'p-basis size':<12} (at n={n})")
    for sid, row in SPACES.items():
        sp = make_space(sid, n)
        click.echo(f"{sid:<8} {row.ambient:<10} {sp.ambient_dim:<12} {expected_basis_size(sp):<12}")


@main.command()
@click.option("--lemma", type=click.Choice(["formula-real", "long"]), required=True)
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True,
              help="Recorded in the report; the proof does not use it.")
@seed_option
@format_option
@output_option
@click.pass_context
def identities(ctx, lemma, n, trials, seed, fmt, output):
    """Exact sum identities, proved at rank --n from their coefficients.

    --trials and --seed are recorded in the report, and the proof depends on neither."""
    seed = _resolve_seed(seed)
    if lemma == "formula-real":
        report = vf.verify_lemma_formula_real(n, trials, seed)
    else:
        report = vf.verify_lemma_long(n, trials, seed)
    _emit(ctx, [report], fmt, output)


@main.command()
@click.option("--space", "space_id", type=click.Choice(["slr-so", "sus-sp"]), required=True)
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True, callback=_check_tol)
@seed_option
@format_option
@output_option
@click.pass_context
def lemmas(ctx, space_id, n, trials, tol, seed, fmt, output):
    """Derivative-constant lemma relations at sampled points."""
    seed = _resolve_seed(seed)
    report = vf.verify_derivative_lemmas(make_space(space_id, n), trials, seed, tol)
    _emit(ctx, [report], fmt, output)


def _build_targets(space_id, n, k, l, family_l):
    """Returns (single morphism or None, family list or None)."""
    if family_l is not None and (k is not None or l is not None):
        raise click.UsageError("--family excludes --k/--l")
    try:
        if space_id in ("sus-sp", "su-sp"):
            fam_fn = quat_family if space_id == "sus-sp" else dual_quat_family
            if family_l is not None:
                return None, fam_fn(n, family_l)
            if k is None or l is None:
                raise click.UsageError(f"{space_id} needs --family L or both --k and --l")
            if not 1 <= k <= 2 * n or k == l:
                raise click.UsageError(f"k={k} is not in 1..{2 * n} other than l={l} (n={n})")
            return next(m for m in fam_fn(n, l) if m.label.endswith(f":k={k}")), None
        if family_l is not None:
            raise click.UsageError(f"--family applies to sus-sp/su-sp, not {space_id}")
        if k is None or l is None:
            raise click.UsageError(f"{space_id} needs both --k and --l")
        if space_id == "slr-so":
            return real_morphism(n, k, l), None
        if space_id == "su-so":
            return dual_real_morphism(n, k, l), None
        if space_id == "slc-su":
            return typeIV_bigcell_morphism(n, k, l), None
    except (ValueError, IndexError) as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown space {space_id!r}")


@main.command(name="verify")
@click.option("--space", "space_id", type=click.Choice(list(SPACE_IDS)), required=True)
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--k", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option("--family", "family_l", type=int, default=None,
              help="Verify the whole family with this column index l.")
@click.option("--compose", "compose_poly", type=str, default=None,
              help="Polynomial in z1..zm to compose with the family members.")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--tol", type=float, default=None, callback=_check_tol,
              help="Residual tolerance, finite and > 0 (space-dependent default).")
@seed_option
@format_option
@output_option
@click.pass_context
def verify_cmd(ctx, space_id, n, k, l, family_l, compose_poly, trials, tol, seed, fmt,
               output):
    """Harmonicity / orthogonal-family verification of one construction."""
    seed = _resolve_seed(seed)
    single, family = _build_targets(space_id, n, k, l, family_l)
    if compose_poly is not None:
        if family is None:
            raise click.UsageError("--compose requires --family")
        try:
            coeffs = parse_polynomial(compose_poly, len(family))
            single, family = holomorphic_compose(coeffs, family), None
        except ValueError as exc:
            raise click.UsageError(str(exc))
    try:
        if family is not None:
            reports = [vf.verify_family(family, trials, seed, tol)]
        else:
            reports = [vf.verify_harmonic(single, trials, seed, tol)]
    except vf.SamplingError as exc:
        raise click.ClickException(str(exc))
    _emit(ctx, reports, fmt, output)


@main.command()
@click.option("--n", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True)
@seed_option
@format_option
@output_option
@click.pass_context
def bigcell(ctx, n, trials, seed, fmt, output):
    """Leading-principal-minor positivity of g g* on SL(n, C)."""
    seed = _resolve_seed(seed)
    report = vf.verify_bigcell(n, trials, seed)
    _emit(ctx, [report], fmt, output)


@main.command(name="all")
@click.option("--n-max", type=click.IntRange(min=2), default=3, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=50, show_default=True,
              help="Trials per float suite in the sweep.")
@seed_option
@format_option
@output_option
@click.pass_context
def all_cmd(ctx, n_max, trials, seed, fmt, output):
    """Full sweep: every suite at least once up to rank --n-max."""
    seed = _resolve_seed(seed)
    try:
        reports = run_sweep(n_max, trials, seed)
    except vf.SamplingError as exc:
        raise click.ClickException(str(exc))
    _emit(ctx, reports, fmt, output)


def run_sweep(n_max: int, trials: int, seed: int) -> list[vf.VerificationReport]:
    reports = []
    for n in range(2, n_max + 1):
        reports.append(vf.verify_lemma_formula_real(n, trials, seed))
    for n in range(1, n_max + 1):
        reports.append(vf.verify_lemma_long(n, trials, seed))
    for n in range(2, n_max + 1):
        reports.append(vf.verify_derivative_lemmas(make_space("slr-so", n), trials, seed))
    for n in range(1, n_max + 1):
        reports.append(vf.verify_derivative_lemmas(make_space("sus-sp", n), trials, seed))
    for n in range(2, n_max + 1):
        m = real_morphism(n, 1, 2)
        reports.append(vf.verify_harmonic(m, trials, seed))
        reports.append(vf.verify_invariance(m, min(trials, 20), seed))
        reports.append(vf.verify_basis_independence(m, 10, seed))
    for n in range(1, n_max + 1):
        fam = quat_family(n, 1)
        reports.append(vf.verify_family(fam, trials, seed))
        if n == 2:
            reports.append(vf.verify_invariance(fam[0], min(trials, 20), seed))
            composed = holomorphic_compose({(2, 0): 1, (1, 1): 3}, fam[:2])
            reports.append(vf.verify_harmonic(composed, trials, seed))
    for n in range(2, n_max + 1):
        reports.append(vf.verify_harmonic(dual_real_morphism(n, 1, 2), trials, seed))
    for n in range(2, n_max + 1):
        reports.append(vf.verify_family(dual_quat_family(n, 1), trials, seed))
    for n in range(2, n_max + 1):
        reports.append(vf.verify_bigcell(n, max(trials, 200), seed))
        mor = typeIV_bigcell_morphism(n, 2, 1)
        reports.append(vf.verify_harmonic(mor, trials, seed))
        reports.append(vf.verify_invariance(mor, min(trials, 20), seed))
    # sensitivity: the known non-harmonic control must FAIL its suite
    control = vf.verify_harmonic(control_morphism(2), min(trials, 20), seed)
    control.suite = "sensitivity-control"
    control.failures = []  # expected to fail; keep the report light
    control.passed = not control.passed and control.max_residuals.get("tau", 0.0) >= 0.1
    reports.append(control)
    return reports


# ---------------------------------------------------------------------------
# tiny polynomial syntax for --compose: z1..zm, + - *, integer coefficients, powers
# ---------------------------------------------------------------------------

def parse_polynomial(text: str, nvars: int) -> dict[tuple[int, ...], complex]:
    """Parse e.g. ``z1**2 + 3*z1*z2`` (``^`` also accepted for powers).

    A power or product above MAX_COMPOSE_DEGREE is rejected before it is expanded,
    and so is a constant or coefficient that is not finite.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse polynomial: {exc}")
    poly = _poly_eval(tree.body, nvars)
    if not all(cmath.isfinite(c) for c in poly.values()):  # a product overflowed
        raise ValueError("a coefficient of the polynomial is not finite")
    return poly


def _poly_eval(node, nvars) -> dict[tuple[int, ...], complex]:
    zero = (0,) * nvars
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):  # rejects bool, an int subclass
            raise ValueError(f"unsupported constant {node.value!r}")
        if not abs(node.value) <= sys.float_info.max:  # inf, nan or an int beyond floats
            raise ValueError("constants must be finite")
        return {zero: complex(node.value)}
    if isinstance(node, ast.Name):
        name = node.id
        if not (name.startswith("z") and name[1:].isdigit()):
            raise ValueError(f"unknown variable {name!r}; use z1..z{nvars}")
        i = int(name[1:])
        if not 1 <= i <= nvars:
            raise ValueError(f"variable {name} out of range; the family has {nvars} members")
        exps = list(zero)
        exps[i - 1] = 1
        return {tuple(exps): 1.0 + 0.0j}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _poly_eval(node.operand, nvars)
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        return {e: sign * c for e, c in inner.items()}
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = _poly_eval(node.left, nvars)
            right = _poly_eval(node.right, nvars)
            sign = -1.0 if isinstance(node.op, ast.Sub) else 1.0
            out = dict(left)
            for e, c in right.items():
                out[e] = out.get(e, 0.0) + sign * c
            return out
        if isinstance(node.op, ast.Mult):
            return _poly_mul(_poly_eval(node.left, nvars), _poly_eval(node.right, nvars))
        if isinstance(node.op, ast.Pow):
            exp = node.right.value if isinstance(node.right, ast.Constant) else None
            # not bool, an int subclass; a constant base, of degree 0, is bounded too
            if type(exp) is not int or not 0 <= exp <= MAX_COMPOSE_DEGREE:
                raise ValueError(f"powers must be integer constants 0..{MAX_COMPOSE_DEGREE}")
            base = _poly_eval(node.left, nvars)
            out = {zero: 1.0 + 0.0j}
            for _ in range(exp):
                out = _poly_mul(out, base)
            return out
    raise ValueError(f"unsupported syntax element {ast.dump(node)[:60]}")


def _poly_mul(p: dict, q: dict) -> dict[tuple[int, ...], complex]:
    degree = max(map(sum, p)) + max(map(sum, q))
    if degree > MAX_COMPOSE_DEGREE:  # checked before the product is expanded
        raise ValueError(f"total degree {degree} exceeds {MAX_COMPOSE_DEGREE}")
    out: dict[tuple[int, ...], complex] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


if __name__ == "__main__":
    sys.exit(main())
