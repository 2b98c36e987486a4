"""Chaos expansions of powers of Levy increments, with pathwise verification."""

from .chaos import (
    Expansion,
    PrmIntegrandDescriptor,
    c_poly_closed,
    c_poly_recursive,
    expand,
    expand_from_moments,
    expectation,
    jamshidian_expand,
    pi_coeff,
    prm_integrands,
)
from .combinatorics import IndexTuple, Partition, exact_sum_compositions, index_set, multinomial, partitions
from .errors import LevyChaosError
from .evaluate import (
    VerificationReport,
    eval_exact,
    eval_grid,
    product_check,
    reconstruct,
    verify_exact,
    verify_grid,
)
from .models import (
    CompoundPoisson,
    Deterministic,
    ExponentialSigned,
    GammaJumps,
    LevyModel,
    MomentVector,
    SyntheticMoments,
    TwoPoint,
    moments,
    parse_model,
    sigma_adjust,
)
from .ortho import EtaMoments, OrthoTriangular, eta_moments, gram_schmidt, invert_to_b, orthogonalize, to_h_basis
from .paths import GridPath, JumpPath, make_jump_path, power_increments, random_jump_path, simulate_grid
from .taylor import FunctionalSpec, eval_functional, taylor_terms
from .timepoly import TimePolynomial

__version__ = "0.1.0"
