"""Exponentials from eigh, without scipy at run time.

Every tangent direction is Hermitian (the non-compact spaces) or skew-Hermitian
(the compact duals), and so is every Sp(n) stabilizer generator Q(alpha, beta):
``sampling.normal_exp`` takes their exponentials from one eigh each.  These tests
check that precondition bit for bit, compare the exponentials with
``scipy.linalg.expm`` (an independent reference, in the test extra only), and
check that importing harmorph loads no scipy module, and every module of the
package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import harmorph
import harmorph.sampling
from harmorph.sampling import (MEMBERSHIP_TOL, _candidates, _stabilizer_candidates, normal_exp,
                               sample_group_point, uniforms)
from harmorph.spaces import SPACE_IDS, make_space, p_basis, p_basis_exact
from oracles import random_rotation, rng_from_seed

ALL_SPACES = [(sid, n) for sid in SPACE_IDS for n in range(1, 5)]


def _exact_matrix(entries, d):
    m = np.zeros((d, d), dtype=complex)
    for i, j, re, im in entries:
        m[i, j] = complex(re, im)
    return m


@pytest.mark.parametrize("sid,n", ALL_SPACES)
def test_every_direction_is_exactly_hermitian_or_skew_hermitian(sid, n):
    space = make_space(sid, n)
    d = space.ambient_dim
    sign = -1.0 if space.compact else 1.0
    exact = [_exact_matrix(m, d) for m, _ in p_basis_exact(space)]
    rotated = [z for seed in (0, 7, 20240823)
               for z in random_rotation(p_basis(space), rng_from_seed(seed, 0, 11))]
    for z in list(p_basis(space)) + exact + rotated:
        assert np.array_equal(z, sign * z.conj().T)


def _max_gap(a, b):
    return np.max(np.abs(a - b))


@pytest.mark.parametrize("sid,n", [(sid, n) for sid in SPACE_IDS for n in range(1, 4)])
def test_oracle_exponentials_agree_with_scipy(sid, n):
    space = make_space(sid, n)
    basis = p_basis(space)
    if not len(basis):
        return
    z = np.concatenate([basis, random_rotation(basis, rng_from_seed(3, 0, 11))])
    ep, em = normal_exp(z, space.compact, (1e-4, -1e-4))
    for zi, p, m in zip(z, ep, em):
        assert _max_gap(p, scipy.linalg.expm(1e-4 * zi)) <= 1e-14
        assert _max_gap(m, scipy.linalg.expm(-1e-4 * zi)) <= 1e-14


@pytest.mark.parametrize("n", range(1, 5))
def test_stabilizer_exponentials_agree_with_scipy(n):
    space = make_space("sus-sp", n)
    indices = np.arange(40)
    k = _stabilizer_candidates(space, 5, indices, 0, 1)
    for i, ki in zip(indices, k):
        rng = rng_from_seed(5, int(i), 0, 1)
        g, h = (0.35 * (rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n)))
                for _ in range(2))
        alpha, beta = (g - g.conj().T) / 2.0, (h + h.T) / 2.0
        q = np.block([[alpha, beta], [-beta.conj(), alpha.conj()]])
        assert _max_gap(ki, scipy.linalg.expm(q)) <= 1e-14
    assert space.stabilizer_membership(k, MEMBERSHIP_TOL).all()


@pytest.mark.parametrize("n", range(1, 5))
def test_sus_sp_candidates_have_determinant_one(monkeypatch, n):
    space = make_space("sus-sp", n)
    x = sample_group_point(space, 11, index=np.arange(200))
    assert space.membership(x, MEMBERSHIP_TOL).all()
    assert np.max(np.abs(np.linalg.det(x) - 1)) <= 1e-10

    def middle_row_of_halves(seed, shape, *spawn):
        # words of 0.5 are uniform(-1, 1) draws of 0: that candidate has determinant 0
        u = uniforms(seed, shape, *spawn)
        u[1] = 0.5
        return u

    monkeypatch.setattr(harmorph.sampling, "uniforms", middle_row_of_halves)
    z, drawn = _candidates(space, 11, np.array([0, 2, 1]), 0)
    assert drawn.tolist() == [True, False, True]
    assert np.all(np.isfinite(z))


@pytest.fixture(scope="module")
def fresh_import_modules():
    """The names in sys.modules after `import harmorph, harmorph.cli` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(harmorph.__file__).parents[1]))
    code = "import json, sys, harmorph, harmorph.cli; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return json.loads(result.stdout)


def test_importing_harmorph_loads_no_scipy(fresh_import_modules):
    assert [m for m in fresh_import_modules if m.split(".")[0] == "scipy"] == []


def test_importing_harmorph_loads_every_module_of_the_package(fresh_import_modules):
    """A module that the program never imports (a test-only oracle, say) does not belong
    in the package."""
    package = Path(harmorph.__file__).parent
    modules = {f"harmorph.{p.stem}" for p in package.glob("*.py")} - {
        "harmorph.__init__", "harmorph.__main__"}
    assert modules - set(fresh_import_modules) == set()
