"""Verification workbench for complex-valued harmonic-morphism candidates
on five families of matrix symmetric spaces.

The package constructs the candidate maps symbolically over the base-map
entries, pushes 2-jets through them along orthonormal tangent bases, and
certifies harmonicity (vanishing tension) and horizontal conformality
numerically — with exact rational backends for the algebraic identities
the constructions rest on.
"""

from .jets import (Const, Entry, Expr, Jet2, ScaleByI, Sqrt, base_map_value, eval_jet, fd_jet,
                   jet_sums, kappa_sum, normalized_residual)
from .morphisms import (Morphism, dual_quat_family, dual_real_morphism,
                        holomorphic_compose, quat_family, real_morphism,
                        typeIV_bigcell_morphism)
from .sampling import fresh_seed, sample_group_point, sample_stabilizer_point
from .scalars import ComplexRational
from .spaces import SPACE_IDS, SpaceSpec, make_space, p_basis, p_basis_exact
from .verify import (VerificationReport, default_tolerance, render_report,
                     verify_basis_independence, verify_bigcell,
                     verify_derivative_lemmas, verify_family, verify_harmonic,
                     verify_invariance, verify_lemma_formula_real,
                     verify_lemma_long)

__version__ = "0.1.0"

__all__ = [
    "ComplexRational", "Const", "Entry", "Expr", "Jet2", "Morphism",
    "SPACE_IDS", "ScaleByI", "SpaceSpec", "Sqrt", "VerificationReport",
    "base_map_value", "default_tolerance", "dual_quat_family",
    "dual_real_morphism", "eval_jet", "fd_jet", "fresh_seed", "holomorphic_compose",
    "jet_sums", "kappa_sum", "make_space", "normalized_residual", "p_basis",
    "p_basis_exact", "quat_family", "real_morphism", "render_report",
    "sample_group_point", "sample_stabilizer_point", "typeIV_bigcell_morphism",
    "verify_basis_independence", "verify_bigcell", "verify_derivative_lemmas",
    "verify_family", "verify_harmonic", "verify_invariance",
    "verify_lemma_formula_real", "verify_lemma_long",
]
