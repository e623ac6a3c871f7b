"""Per-charge reference functions that the tests check the library against.

Nothing in ``specialperiods`` calls these.  Each identity residual takes one
charge and one cycle (or second charge) and evaluates the identity through
the library's per-charge products, one value at a time; ``tests/test_report.py``
checks the batched suite of ``report.run_identity_suite`` against them.  The
record of one accepted probe is built here one scalar at a time (``_record``),
as the reference for the search's array builder.  The rest are small
independent routes to quantities the library computes (``d_matrix``,
``consistency_ratios``, ``genus2_eigenvalue_family``) and the genus-one modular
group with the checks built on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from specialperiods.differentials import eta_bases, lattice_image, period_of, primitive_coeffs
from specialperiods.errors import DomainError, NotIntegralDegree
from specialperiods.genus2 import BRANCH_PLUS, Genus2Params, gamma_complete
from specialperiods.pairings import (
    _unit_cycles, area, duality_vectors, herm_product, integer_defect, real_products,
    wedge_integrals,
)
from specialperiods.siegel import CyclePair, LatticeCharge, PeriodMatrix, checked_modulus
from specialperiods.special import (
    COLLINEAR_RATIONAL, DEGENERATE, SPECIAL_COMPLEX, SolutionRecord, _accept_probe, base_image,
)
from specialperiods.torus import _eigenfunction, torus_eigenvalue

DEFAULT_ETA_TERMS = 64


# ---------------------------------------------------------------------------
# pairings


def real_product(omega: PeriodMatrix, nm: LatticeCharge, qp: CyclePair) -> float:
    """Symmetric real form; positive definite on nonzero integer data."""
    return float(real_products(omega, nm.n_vec, nm.m_vec, qp.q_vec, qp.p_vec))


def monodromy_factor(omega: PeriodMatrix, nm: LatticeCharge, qp: CyclePair) -> float:
    """Real multiplier picked up around a cycle: exp of the Hermitian product.

    The imaginary part of the exponent is pi times the integer pairing, so
    the factor is exp(Re) with the sign of that pairing's parity, exactly real.
    Raises DomainError when exp(Re) overflows the float range.
    """
    sign = -1.0 if integer_defect(nm, qp) % 2 else 1.0
    exponent = herm_product(omega, nm, qp).real
    with np.errstate(over="ignore"):
        magnitude = np.exp(exponent)
    if magnitude == np.inf:
        raise DomainError("monodromy factor exp(%.6g) overflows" % exponent)
    return float(magnitude * sign)


def wedge_integral(omega: PeriodMatrix, nm: LatticeCharge, qp: LatticeCharge) -> complex:
    """Surface integral of the first differential against the conjugate second.

    Evaluated through the bilinear relations: only alpha and beta periods of
    the two differentials enter.
    """
    ca = primitive_coeffs(omega, nm)
    cb = primitive_coeffs(omega, qp)
    return complex(wedge_integrals(omega, ca, cb))


def duality_coeffs(omega: PeriodMatrix, nm: LatticeCharge):
    """Coefficient vectors of the two real one-forms solving the duality conditions.

    With the canonical tensors the second vector reproduces the primitive
    coefficients, pinning them through duality instead of monodromy.
    """
    return duality_vectors(omega, nm.n_vec, nm.m_vec)


# ---------------------------------------------------------------------------
# identity residuals


def herm_period_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Hermitian product against the direct period of the coefficient vector."""
    direct = period_of(omega, primitive_coeffs(omega, nm), qp)
    return abs(herm_product(omega, nm, qp) - direct)


def imag_integrality_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Distance of the product's imaginary part from pi times the integer pairing."""
    return abs(herm_product(omega, nm, qp).imag - np.pi * integer_defect(nm, qp))


def conjugation_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Conjugating the product shifts it by -2 i pi times the integer pairing."""
    value = herm_product(omega, nm, qp)
    shifted = value - 2j * np.pi * integer_defect(nm, qp)
    swapped = herm_product(
        omega, LatticeCharge(tuple(-q for q in qp.q), qp.p), CyclePair(tuple(-n for n in nm.n), nm.m)
    )
    return max(abs(np.conj(value) - shifted), abs(np.conj(value) - swapped))


def factorization_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Resolution of the product through the 2h unit-cycle products."""
    h = omega.genus
    total = 0j
    for beta_j, alpha_j in _unit_cycles(h):
        ej = alpha_j.p  # unit charge living on slot j
        zero = (0,) * h
        total += herm_product(omega, nm, beta_j) * herm_product(
            omega, LatticeCharge(zero, ej), qp
        )
        total += herm_product(omega, nm, alpha_j) * herm_product(
            omega, LatticeCharge(ej, zero), qp
        )
    return abs(herm_product(omega, nm, qp) - total / (2j * np.pi))


def real_symmetry_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """The real product is symmetric under exchanging its two integer pairs."""
    forward = real_product(omega, nm, qp)
    backward = real_product(omega, LatticeCharge(qp.q, qp.p), CyclePair(nm.n, nm.m))
    return abs(forward - backward)


def herm_real_link_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Real product as the Hermitian product over the reflected cycle."""
    reflected = CyclePair(tuple(-q for q in qp.q), qp.p)
    expected = herm_product(omega, nm, reflected) - 1j * np.pi * integer_defect(nm, reflected)
    return abs(real_product(omega, nm, qp) - expected)


def self_pairing_residual(omega, nm: LatticeCharge) -> float:
    """Self real product equals the (real) Hermitian product over the reflected cycle."""
    reflected = CyclePair(tuple(-n for n in nm.n), nm.m)
    return abs(real_product(omega, nm, CyclePair(nm.n, nm.m)) - herm_product(omega, nm, reflected))


def coeff_form_residual(omega, nm: LatticeCharge, qp: CyclePair) -> float:
    """Real product expressed through the coefficient vectors of both charges."""
    ca = primitive_coeffs(omega, nm)
    cb = primitive_coeffs(omega, LatticeCharge(qp.q, qp.p))
    o2 = omega.imag_part
    value = (ca.real @ o2 @ cb.real + cb.imag @ o2 @ ca.imag) / np.pi
    return abs(real_product(omega, nm, qp) - value)


def wedge_herm_residual(omega, nm: LatticeCharge, qp: LatticeCharge) -> float:
    """(i/2) times the wedge integral equals pi times a reflected Hermitian product."""
    reflected = CyclePair(tuple(-q for q in qp.n), qp.m)
    lhs = 0.5j * wedge_integral(omega, nm, qp)
    return abs(lhs - np.pi * herm_product(omega, nm, reflected))


def wedge_swap_residual(omega, nm: LatticeCharge, qp: LatticeCharge) -> float:
    """Swapping the wedge factors costs 4 pi^2 times the integer pairing."""
    defect = integer_defect(nm, CyclePair(tuple(-q for q in qp.n), qp.m))
    lhs = wedge_integral(omega, nm, qp)
    rhs = wedge_integral(omega, qp, nm) + 4 * np.pi * np.pi * defect
    return abs(lhs - rhs)


def wedge_imag_swap_residual(omega, nm: LatticeCharge, qp: LatticeCharge) -> float:
    """Imaginary parts of (i/2) wedge integrals are antisymmetric under the
    component swap (n, m; q, p) -> (m, n; p, q).

    The imaginary part equals pi^2 (p.n - q.m), which changes sign under the
    swap, so the two values cancel rather than agree.
    """
    lhs = np.imag(0.5j * wedge_integral(omega, nm, qp))
    swapped = np.imag(
        0.5j
        * wedge_integral(
            omega, LatticeCharge(nm.m, nm.n), LatticeCharge(qp.m, qp.n)
        )
    )
    return abs(lhs + swapped)


def winding_area_residual(omega, nm: LatticeCharge) -> float:
    """Winding once around the distinguished cycle scales by exp(-2 A / pi).

    The exponent is the Hermitian product over the cycle with (q, p) = (n, -m);
    it must be real and equal to -2/pi times the area.
    """
    cycle = CyclePair(nm.n, tuple(-m for m in nm.m))
    exponent = herm_product(omega, nm, cycle)
    target = -2.0 / np.pi * area(omega, nm)
    return max(abs(exponent.real - target), abs(exponent.imag))


def area_real_product_residual(omega, nm: LatticeCharge) -> float:
    """Area against pi/2 times the self real product."""
    return abs(area(omega, nm) - np.pi / 2 * real_product(omega, nm, CyclePair(nm.n, nm.m)))


def duality_canonical_residual(omega, nm: LatticeCharge) -> float:
    """With canonical tensors the second duality vector is the coefficient vector."""
    _, d2 = duality_coeffs(omega, nm)
    return float(np.max(np.abs(d2 - primitive_coeffs(omega, nm))))


# ---------------------------------------------------------------------------
# differentials


def d_matrix(omega: PeriodMatrix, charge: LatticeCharge) -> np.ndarray:
    """Charge-weighted matrix D_kj = m_k delta_kj - n_k conj(Omega)_kj."""
    n, m = charge.n_vec, charge.m_vec
    return np.diag(m).astype(complex) - n[:, None] * omega.entries.conj()


def eta_decomposition_residual(omega: PeriodMatrix, charge: LatticeCharge) -> float:
    """Residual of c_{n,m} = m . eta1 + n . eta2."""
    eta1, eta2 = eta_bases(omega)
    recombined = charge.m_vec @ eta1 + charge.n_vec @ eta2
    return float(np.max(np.abs(primitive_coeffs(omega, charge) - recombined)))


def d_matrix_contraction_residual(omega: PeriodMatrix, charge: LatticeCharge) -> float:
    """Residual of c_k = pi * sum_{j,l} D_jl (Im Omega)^{-1}_{lk}."""
    d = d_matrix(omega, charge)
    contracted = np.pi * (d.sum(axis=0) @ omega.imag_inverse)
    return float(np.max(np.abs(contracted - primitive_coeffs(omega, charge))))


# ---------------------------------------------------------------------------
# special and genus2


def _modulus(c: complex) -> float:
    """abs(c), or inf where abs raises OverflowError: both parts finite, the modulus not."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _normalize(cbar: complex, tol: float):
    """(sign, c, classification) of an accepted conjugate scale factor.

    The probe is flipped exactly when Im cbar < -tol, so a special record has
    Im conj(c) > 0.  Negation keeps the sign of a zero imaginary part, which
    the tables print.
    """
    sign = 1
    if cbar.imag < -tol:
        sign, cbar = -1, -cbar
    c = complex(np.conj(cbar))
    if _modulus(c) <= tol:
        return sign, c, DEGENERATE
    if abs(c.imag) <= tol:
        return sign, c, COLLINEAR_RATIONAL
    return sign, c, SPECIAL_COMPLEX


def _degree(base: LatticeCharge, probe: LatticeCharge, sign: int) -> int:
    """Covering degree of the effective probe sign * probe, summed over Python ints."""
    degree = sign * (sum(n * m for n, m in zip(base.n, probe.m)) - sum(n * m for n, m in zip(probe.n, base.m)))
    if degree < 1:
        raise NotIntegralDegree("degree %d is not a positive integer" % degree)
    return degree


def _record(base, probe, cbar, tol, base_area: float, probe_area: float) -> SolutionRecord:
    """The record of an accepted probe, from its conjugate scale factor and the two areas."""
    sign, c, classification = _normalize(cbar, tol)
    try:
        c_squared = _modulus(c) ** 2
    except OverflowError:  # |c| past about 1.3e154: one factor |c| at a time
        lambda_c = 2.0 * base_area * _modulus(c) * _modulus(c)
        lambda_dual = 2.0 * probe_area / _modulus(c) / _modulus(c)
    else:
        lambda_c = 2.0 * base_area * c_squared
        # 4 A A' / lambda_c without forming A A', which overflows long before the quotient;
        # |c|^2 is 0 for a degenerate record, or once |c| < ~1e-162 underflows: inf there
        lambda_dual = 2.0 * probe_area / c_squared if c_squared else np.inf
    if not (
        cmath.isfinite(c)
        and math.isfinite(lambda_c)
        and (math.isfinite(lambda_dual) or classification == DEGENERATE)
    ):
        raise DomainError(
            "the record of probe %s;%s is not finite (c %r, lambda_c %r, lambda_dual %r)"
            % (",".join(map(str, probe.n)), ",".join(map(str, probe.m)), c, lambda_c, lambda_dual)
        )
    return SolutionRecord(
        probe=probe,
        c=c,
        sign=sign,
        lambda_c=float(lambda_c),
        lambda_c_dual=float(lambda_dual),
        degree=_degree(base, probe, sign) if classification == SPECIAL_COMPLEX else None,
        classification=classification,
    )


def consistency_ratios(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge) -> np.ndarray:
    """Componentwise ratios of probe image to base image.

    The probe solves the proportionality problem precisely when all ratios
    agree; their common value is the conjugate of the scale factor.
    """
    v = base_image(omega, base)
    return lattice_image(omega, probe) / v


def solve_c(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge, tol: float) -> complex:
    """Scale factor of an accepted probe, sign-normalized.

    The returned value c satisfies (for the probe up to an overall sign flip)
    image(probe) = conj(c) * image(base), with Im conj(c) >= -tol.
    """
    return _normalize(_accept_probe(omega, base, probe, tol), tol)[1]


def genus2_eigenvalue_family(
    omega: PeriodMatrix,
    params: Genus2Params,
    branch: str,
    base1,
    probe1,
) -> float:
    """Closed-form eigenvalue for a (base seed, probe seed) pair of one family.

    Both seeds are completed to genus-2 charges; the eigenvalue comes from the
    family's explicit ratio and is cross-checked against the generic
    scale-factor route.
    """
    base = gamma_complete(params, branch, *base1)
    probe = gamma_complete(params, branch, *probe1)
    o11 = complex(params.omega11)
    o12 = complex(params.omega12)
    if branch == BRANCH_PLUS:
        weight = complex(params.M)
        slope = weight * o11 + o12
    else:
        weight = complex(params.N2 + params.M)
        slope = weight * o11 - o12
    numer = abs(weight * probe1[1] - probe1[0] * slope) ** 2
    denom = abs(weight * base1[1] - base1[0] * slope) ** 2
    lam = 2.0 * area(omega, base) * numer / denom

    # independent route through the generic ratio machinery
    c = solve_c(omega, base, probe, tol=1e-9)
    lam_generic = 2.0 * area(omega, base) * abs(c) ** 2
    if abs(lam - lam_generic) > 1e-10 * max(1.0, lam):
        raise ValueError(
            "family eigenvalue %.15g disagrees with the generic route %.15g"
            % (lam, lam_generic)
        )
    return float(lam)


# ---------------------------------------------------------------------------
# the genus-one modular group


@dataclass(frozen=True)
class ModularMatrix:
    """Integer matrix ((a, b), (c, d)) with unit determinant."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @classmethod
    def identity(cls) -> "ModularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls) -> "ModularMatrix":
        return cls(1, 1, 0, 1)

    @classmethod
    def inversion(cls) -> "ModularMatrix":
        return cls(0, -1, 1, 0)

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    @property
    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


def modular_transform_tau(gamma: ModularMatrix, tau: complex) -> complex:
    """Moebius action (a tau + b) / (c tau + d) on the upper half plane."""
    tau = checked_modulus(tau)
    denom = gamma.c * tau + gamma.d
    if denom == 0:
        raise DomainError("c tau + d vanished")
    return (gamma.a * tau + gamma.b) / denom


def modular_transform_charge(gamma: ModularMatrix, charge: LatticeCharge) -> LatticeCharge:
    """Companion action on a genus-one charge: ((a, b), (c, d)) applied to (m, n)."""
    if charge.genus != 1:
        raise ValueError("the modular charge action is defined at genus one only")
    m, n = charge.m[0], charge.n[0]
    m_new = gamma.a * m + gamma.b * n
    n_new = gamma.c * m + gamma.d * n
    return LatticeCharge((n_new,), (m_new,))


def random_modular_matrix(rng, max_entry: int = 10, max_steps: int = 20) -> ModularMatrix:
    """Random word in the standard generators, kept within an entry bound.

    Draws from the given numpy Generator, so results are reproducible from
    the caller's seed.  The walk stops early when the next step would exceed
    the bound; the identity is a possible (rare) outcome.
    """
    generators = (
        ModularMatrix.translation(),
        ModularMatrix.translation().inverse(),
        ModularMatrix.inversion(),
    )
    gamma = ModularMatrix.identity()
    steps = int(rng.integers(1, max_steps + 1))
    for _ in range(steps):
        candidate = gamma @ generators[int(rng.integers(0, 3))]
        if candidate.max_entry > max_entry:
            break
        gamma = candidate
    return gamma


# ---------------------------------------------------------------------------
# torus


def mu_covariance_residual(tau: complex, gamma: ModularMatrix, n: int, m: int) -> float:
    """|mu at the transformed (modulus, charge) minus mu at the original pair|."""
    entry = torus_eigenvalue(tau, n, m)
    moved = modular_transform_charge(gamma, LatticeCharge((n,), (m,)))
    tau_moved = modular_transform_tau(gamma, tau)
    entry_moved = torus_eigenvalue(tau_moved, moved.n[0], moved.m[0])
    return abs(entry_moved.mu - entry.mu)


def grid_inner_product(f: np.ndarray, g: np.ndarray) -> complex:
    """Quadrature of f conj(g) against the normalized flat area measure.

    On the periodic grid the trapezoid rule collapses to the plain mean.
    """
    if f.shape != g.shape:
        raise ValueError("grids must share a resolution")
    return complex(np.mean(f * np.conj(g)))


def wraparound_residual(tau: complex, n: int, m: int, N: int) -> float:
    """Mismatch of the sampled eigenfunction across both cell boundaries."""
    entry = torus_eigenvalue(tau, n, m)
    coords = np.arange(N) / N
    dx = np.max(np.abs(_eigenfunction(entry, 1.0, coords) - _eigenfunction(entry, 0.0, coords)))
    dy = np.max(np.abs(_eigenfunction(entry, coords, 1.0) - _eigenfunction(entry, coords, 0.0)))
    return float(max(dx, dy))


def dedekind_eta(tau: complex, terms: int = DEFAULT_ETA_TERMS) -> complex:
    """Truncated product q^{1/24} prod_{k<=terms} (1 - q^k), q = exp(2 pi i tau)."""
    tau = checked_modulus(tau)
    if terms < 1:
        raise ValueError("need at least one product term")
    q = np.exp(2j * np.pi * tau)
    value = np.exp(2j * np.pi * tau / 24)
    power = 1.0 + 0j
    for _ in range(terms):
        power *= q
        value *= 1.0 - power
    return complex(value)
