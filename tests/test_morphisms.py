"""Construction of the candidate maps: values, labels, domains, composition."""

import numpy as np
import pytest

from harmorph.morphisms import (POSITIVE_SCALE, STABILIZER_RIGHT, _everywhere,
                                dual_quat_family, dual_real_domain_detail,
                                dual_real_morphism, holomorphic_compose,
                                quat_family, real_morphism,
                                typeIV_bigcell_morphism)
from harmorph.sampling import sample_group_point
from harmorph.spaces import make_space
from oracles import eval_value, gauss_ldu


def test_real_morphism_known_values():
    m = real_morphism(2, 1, 2)
    assert m.label == "slr-so:n=2:kl=12"
    assert eval_value(m.expr, m.space, np.eye(2, dtype=complex)) == 1j
    tri = np.array([[1, 1], [0, 1]], dtype=complex)
    assert abs(eval_value(m.expr, m.space, tri) - (1 + 1j)) < 1e-14
    assert set(m.invariances) == {STABILIZER_RIGHT, POSITIVE_SCALE}


def test_real_morphism_rejects_equal_indices():
    with pytest.raises(ValueError):
        real_morphism(3, 2, 2)
    with pytest.raises(IndexError):
        real_morphism(3, 1, 4)


def test_quat_family_size_and_labels():
    fam = quat_family(2, 1)
    assert len(fam) == 3  # k in 1..4, k != 1
    assert [m.label for m in fam] == [
        "sus-sp:n=2:l=1:k=2", "sus-sp:n=2:l=1:k=3", "sus-sp:n=2:l=1:k=4"]
    with pytest.raises(IndexError):
        quat_family(2, 3)  # column index bounded by n


def test_quat_family_domain_is_global():
    fam = quat_family(1, 1)
    x = sample_group_point(make_space("sus-sp", 1), 3)
    assert all(m.domain(x) for m in fam)


def test_dual_real_out_of_domain_witness():
    """A hand-built SU(2) point with phi*_22 = 0 must be rejected."""
    m = dual_real_morphism(2, 1, 2)
    x = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    assert abs(np.linalg.det(x) - 1) < 1e-14
    assert make_space("su-so", 2).membership(x, 1e-10)
    assert not m.domain(x)
    assert m.domain(np.eye(2, dtype=complex))


def test_dual_real_domain_detail_reports_both_predicates():
    space = make_space("su-so", 2)
    stated, cut_ok = dual_real_domain_detail(space, 1, 2, np.eye(2, dtype=complex))
    assert stated and cut_ok


def test_dual_quat_out_of_domain_witness():
    """diag(A, A) in SU(4) with A = (1/sqrt2)[[1,i],[i,1]] kills phi*_11."""
    fam = dual_quat_family(2, 1)
    a = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    x = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])
    assert make_space("su-sp", 2).membership(x, 1e-10)
    assert not fam[0].domain(x)
    assert fam[0].domain(np.eye(4, dtype=complex))


def test_holomorphic_compose_degree_cap_and_shape():
    fam = quat_family(2, 1)
    composed = holomorphic_compose({(2, 0, 0): 1, (1, 1, 0): 3}, fam)
    assert composed.space.id == "sus-sp"
    x = sample_group_point(make_space("sus-sp", 2), 9)
    f1, f2 = eval_value(fam[0].expr, fam[0].space, x), eval_value(fam[1].expr, fam[1].space, x)
    assert abs(eval_value(composed.expr, composed.space, x) - (f1 ** 2 + 3 * f1 * f2)) < 1e-12
    with pytest.raises(ValueError):
        holomorphic_compose({(7, 0, 0): 1}, fam)
    with pytest.raises(ValueError):
        holomorphic_compose({(1, 1): 1}, fam)  # tuple length mismatch
    with pytest.raises(ValueError):
        holomorphic_compose({}, [])


def test_compose_intersects_domains_and_invariances():
    fam = dual_quat_family(2, 1)
    composed = holomorphic_compose({(1, 1, 0): 1}, fam)
    assert composed.invariances == (STABILIZER_RIGHT,)
    a = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    x = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])
    assert not composed.domain(x)


def test_compose_of_global_maps_is_global():
    composed = holomorphic_compose({(1, 1, 0): 1, (0, 0, 2): 2}, quat_family(2, 1))
    assert composed.domain is _everywhere


def test_typeIV_morphism_matches_ldu_factor():
    """The minor-ratio expression equals the lower-unipotent Gauss factor entry."""
    space = make_space("slc-su", 3)
    for i, j in [(2, 1), (3, 1), (3, 2)]:
        m = typeIV_bigcell_morphism(3, i, j)
        assert m.label == f"slc-su:n=3:L{i}{j}"
        for t in range(3):
            g = sample_group_point(space, 13, index=t)
            a = g @ g.conj().T
            low, _, _ = gauss_ldu(a)
            assert abs(eval_value(m.expr, m.space, g) - low[i - 1, j - 1]) < 1e-10


def test_typeIV_requires_lower_triangular_indices():
    with pytest.raises(ValueError):
        typeIV_bigcell_morphism(3, 1, 2)
    with pytest.raises(ValueError):
        typeIV_bigcell_morphism(1, 1, 1)


def test_typeIV_simplest_coordinate_is_entry_ratio():
    m = typeIV_bigcell_morphism(2, 2, 1)
    g = sample_group_point(make_space("slc-su", 2), 19)
    a = g @ g.conj().T
    assert abs(eval_value(m.expr, m.space, g) - a[1, 0] / a[0, 0]) < 1e-12


def test_family_checks_shared_by_suite_and_composition():
    from harmorph.verify import verify_family

    mixed = [real_morphism(2, 1, 2), real_morphism(3, 1, 2)]
    for build in (lambda fam: verify_family(fam, 1, 0),
                  lambda fam: holomorphic_compose({(1,) * len(fam): 1}, fam)):
        with pytest.raises(ValueError, match="empty family"):
            build([])
        with pytest.raises(ValueError, match="family members live on different spaces"):
            build(mixed)
