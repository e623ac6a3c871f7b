"""Scalar products, monodromy factors, areas, and surface-integral identities.

The Hermitian product of a charge with a cycle is the period of the
corresponding primitive differential over that cycle; its imaginary part is
always pi times the integer pairing p.n + q.m.  The real product is the
symmetric positive form underneath.  Each identity used in the verification
suite is exposed as a function returning a residual, so callers can report
worst cases instead of bare booleans.

Each formula is written once, over arrays of integer vectors (or coefficient
rows) whose last axis has length h and whose leading axes broadcast, giving
one value or row per broadcast index; the per-charge functions call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .differentials import lattice_image, period_of, primitive_coeffs
from .errors import DegenerateCharge, DomainError
from .siegel import CyclePair, LatticeCharge, PeriodMatrix


def _unit_cycles(h: int):
    eye = np.eye(h, dtype=int)
    zero = (0,) * h
    for j in range(h):
        ej = tuple(eye[j])
        yield CyclePair(q=ej, p=zero), CyclePair(q=zero, p=ej)


def bilinear(x, a, y):
    """The form x @ a @ y over the last axis of x and y."""
    return np.sum((x @ a) * y, axis=-1)


def integer_pairings(n, m, q, p):
    """Integer pairing p.n + q.m over the last axis."""
    return np.sum(p * n, axis=-1) + np.sum(q * m, axis=-1)


def integer_defect(nm: LatticeCharge, qp: CyclePair) -> int:
    """Integer pairing p.n + q.m fixing the imaginary part of the product.

    Summed over the Python ints of the tuples, so it is exact at any size.
    """
    return sum(a * b for a, b in zip(qp.p + qp.q, nm.n + nm.m, strict=True))


def herm_products(omega: PeriodMatrix, n, m, q, p):
    """``herm_product`` over arrays of charges (n, m) and cycles (q, p)."""
    w = p + q @ omega.entries.T
    v_conj = m - n @ omega.entries.conj().T
    return np.pi * bilinear(w, omega.imag_inverse, v_conj)


def herm_product(omega: PeriodMatrix, nm: LatticeCharge, qp: CyclePair) -> complex:
    """Period of the primitive differential of charge (n, m) over p.alpha + q.beta."""
    return complex(herm_products(omega, nm.n_vec, nm.m_vec, qp.q_vec, qp.p_vec))


def real_products(omega: PeriodMatrix, n, m, q, p):
    """``real_product`` over arrays of charges (n, m) and cycles (q, p)."""
    o1 = omega.real_part
    left = p - q @ o1.T
    right = m - n @ o1.T
    return np.pi * (bilinear(left, omega.imag_inverse, right) + bilinear(q, omega.imag_part, n))


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


def wedge_integrals(omega: PeriodMatrix, ca, cb):
    """``wedge_integral`` over arrays of coefficient rows ``ca`` and ``cb``."""
    beta_a = ca @ omega.entries.T
    beta_b = cb @ omega.entries.T
    return np.sum(ca * np.conj(beta_b) - np.conj(cb) * beta_a, axis=-1)


def wedge_integral(omega: PeriodMatrix, nm: LatticeCharge, qp: LatticeCharge) -> complex:
    """Surface integral of the first differential against the conjugate second.

    Evaluated through the bilinear relations: only alpha and beta periods of
    the two differentials enter.
    """
    ca = primitive_coeffs(omega, nm)
    cb = primitive_coeffs(omega, qp)
    return complex(wedge_integrals(omega, ca, cb))


def area(omega: PeriodMatrix, nm: LatticeCharge) -> float:
    """Total area of the flat metric defined by the charge's differential."""
    if nm.is_zero:
        raise DegenerateCharge("the zero charge has no metric")
    v = lattice_image(omega, nm)
    value = np.pi * np.pi / 2 * np.real(v @ omega.imag_inverse @ np.conj(v))
    return float(value)


@dataclass(frozen=True, eq=False)
class DualityTensors:
    """Real symmetric tensor triple (E, F, G) entering the duality ansatz."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name in ("E", "F", "G"):
            arr = getattr(self, name)
            if np.max(np.abs(arr - arr.T)) > 1e-12 or np.iscomplexobj(arr):
                raise ValueError("%s must be real symmetric" % name)
            arr.setflags(write=False)


def canonical_duality_tensors(omega: PeriodMatrix) -> DualityTensors:
    """The canonical choice: E = pi (Im Omega)^{-1}, F = 0, G = pi * I."""
    h = omega.genus
    return DualityTensors(
        E=np.pi * omega.imag_inverse.copy(), F=np.zeros((h, h)), G=np.pi * np.eye(h)
    )


def duality_vectors(omega: PeriodMatrix, n, m, tensors: DualityTensors):
    """``duality_coeffs`` over an array of charges (n, m)."""
    o1n = n @ omega.real_part.T
    twisted = (1j * m + n @ omega.imag_part.T) @ tensors.F.astype(complex)
    gn = 1j * (n @ tensors.G)
    d1 = (m + o1n) @ tensors.E - twisted + gn
    d2 = (m - o1n) @ tensors.E + twisted + gn
    return d1.astype(complex), d2.astype(complex)


def duality_coeffs(omega: PeriodMatrix, nm: LatticeCharge, tensors: DualityTensors):
    """Coefficient vectors of the two real one-forms solving the duality conditions.

    With the canonical tensors the second vector reproduces the primitive
    coefficients, pinning them through duality instead of monodromy.
    """
    return duality_vectors(omega, nm.n_vec, nm.m_vec, tensors)


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
    _, d2 = duality_coeffs(omega, nm, canonical_duality_tensors(omega))
    return float(np.max(np.abs(d2 - primitive_coeffs(omega, nm))))
