"""Primitive-differential algebra on period matrices and special-surface search."""

from .differentials import (
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
)
from .pairings import (
    area,
    herm_product,
)
from .siegel import (
    CyclePair,
    LatticeCharge,
    PeriodMatrix,
    random_siegel_point,
    validate_period_matrix,
)
from .special import (
    CoverData,
    SolutionRecord,
    SolutionRecords,
    cm_relation_check,
    cm_wedge_residual,
    cm_witness_from_record,
    cover_data,
    cover_degree,
    cover_monodromy,
    search_solutions,
    solution_record,
)
from .torus import (
    TorusSpectrumEntry,
    fd_eigen_residual,
    sample_eigenfunction,
    spectrum_table,
    torus_eigenvalue,
)

__version__ = "0.1.0"
