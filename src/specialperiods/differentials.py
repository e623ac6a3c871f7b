"""Coefficients of primitive differentials in the normalized basis.

A charge (n, m) labels the unique holomorphic one-differential whose cycle
periods all have imaginary part in pi * Z.  Everything here is expressed
through its coefficient vector c in the basis normalized against the
alpha cycles.

``coeff_rows`` and ``periods`` take arrays whose last axis has length h and
whose leading axes broadcast; ``primitive_coeffs`` and ``period_of`` call them.
"""

from __future__ import annotations

import numpy as np

from .siegel import CyclePair, LatticeCharge, PeriodMatrix


def lattice_image(omega: PeriodMatrix, charge: LatticeCharge) -> np.ndarray:
    """Complex image m - Omega n of an integer charge."""
    return charge.m_vec - omega.entries @ charge.n_vec


def coeff_rows(omega: PeriodMatrix, n, m) -> np.ndarray:
    """The vector c of ``primitive_coeffs``, one row per charge (n, m) of the arrays."""
    real = np.pi * ((m - n @ omega.real_part.T) @ omega.imag_inverse.T)
    return real + 1j * (np.pi * n)


def primitive_coeffs(omega: PeriodMatrix, charge: LatticeCharge) -> np.ndarray:
    """Coefficients c_k = pi * sum_j (m - conj(Omega) n)_j (Im Omega)^{-1}_{jk}.

    The real and imaginary parts are assembled separately so that
    Im c_k = pi * n_k holds exactly, not merely to rounding.
    """
    return coeff_rows(omega, charge.n_vec, charge.m_vec)


def eta_bases(omega: PeriodMatrix) -> tuple:
    """Coefficient rows (eta1, eta2) of the two distinguished bases.

    Row j of ``eta1`` holds the coefficients of the j-th differential whose
    beta periods have imaginary part pi * delta_jk; ``eta2`` is the companion
    basis with the roles of alpha and beta periods exchanged.
    """
    h = omega.genus
    eta1 = np.pi * omega.imag_inverse.astype(complex)
    eta2 = np.pi * (1j * np.eye(h) - omega.real_part @ omega.imag_inverse)
    return eta1, eta2


def periods(omega: PeriodMatrix, c, q, p):
    """``period_of`` over arrays of coefficient rows c and cycles (q, p)."""
    return np.sum(c * (p + q @ omega.entries.T), axis=-1)


def period_of(omega: PeriodMatrix, coeffs, cycle: CyclePair) -> complex:
    """Period of sum_k coeffs_k omega_k over the cycle p.alpha + q.beta."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return complex(periods(omega, coeffs, cycle.q_vec, cycle.p_vec))


def eta_row_identity_residual(omega: PeriodMatrix) -> float:
    """Residual of eta2 = -conj(Omega) eta1, row by row."""
    eta1, eta2 = eta_bases(omega)
    return float(np.max(np.abs(eta2 + omega.entries.conj() @ eta1)))


def eta_period_residual(omega: PeriodMatrix) -> float:
    """Residual of the imaginary-part period normalizations of eta1 and eta2.

    The alpha periods of eta1 are real, its beta periods have imaginary part
    pi * delta_jk, and eta2 satisfies the transposed pattern.  Entry (j, k)
    of ``eta @ Omega`` is the period of row j over the k-th beta cycle.  The
    worst case is an array maximum, so a NaN period yields NaN.
    """
    eta1, eta2 = eta_bases(omega)
    pi_eye = np.pi * np.eye(omega.genus)
    defects = (
        eta1.imag,
        (eta1 @ omega.entries).imag - pi_eye,
        eta2.imag - pi_eye,
        (eta2 @ omega.entries).imag,
    )
    return float(np.max(np.abs(defects)))
