"""Primitive-differential algebra on period matrices and special-surface search."""

from .differentials import (
    d_matrix,
    eta_bases,
    lattice_image,
    period_of,
    primitive_coeffs,
)
from .errors import (
    AsymmetryError,
    BadRationality,
    DegenerateBase,
    DegenerateCharge,
    DomainError,
    LatticeDefect,
    NotASolution,
    NotInGamma,
    NotIntegralDegree,
    NotPositiveDefinite,
    ParseError,
    SpecialPeriodsError,
)
from .genus2 import (
    Genus2Params,
    build_special_genus2,
    gamma_complete,
    gamma_members,
    genus2_eigenvalue_family,
)
from .pairings import (
    DualityTensors,
    area,
    canonical_duality_tensors,
    duality_coeffs,
    herm_product,
    monodromy_factor,
    real_product,
    wedge_integral,
)
from .siegel import (
    CyclePair,
    LatticeCharge,
    ModularMatrix,
    PeriodMatrix,
    modular_transform_charge,
    modular_transform_tau,
    random_modular_matrix,
    random_siegel_point,
    validate_period_matrix,
)
from .special import (
    CoverData,
    SolutionRecord,
    cm_relation_check,
    cm_wedge_residual,
    cm_witness_from_record,
    consistency_ratios,
    cover_data,
    cover_degree,
    cover_monodromy,
    search_solutions,
    solution_record,
    solve_c,
)
from .torus import (
    TorusSpectrumEntry,
    dedekind_eta,
    fd_eigen_residual,
    grid_inner_product,
    mu_covariance_residual,
    sample_eigenfunction,
    spectrum_table,
    torus_eigenvalue,
    wraparound_residual,
)

__version__ = "0.1.0"
