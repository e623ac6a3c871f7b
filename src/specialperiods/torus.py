"""Genus-one spectrum and finite-difference checks of the eigenflow.

The flat Laplacian used throughout this module is -2 d_z d_zbar.  Its
eigenfunctions on the torus of modulus tau are pure phases labelled by an
integer charge, and the scaled eigenvalues mu = Im(tau) * lambda are
invariant under the modular group acting on both tau and the charge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .siegel import charge_box, checked_modulus

FD_MIN_RESOLUTION = 16


@dataclass(frozen=True)
class TorusSpectrumEntry:
    """One eigenvalue of the flat torus Laplacian with its coefficient."""

    charge: tuple
    c: complex
    lam: float
    mu: float
    tau: complex


def torus_eigenvalue(tau: complex, n: int, m: int) -> TorusSpectrumEntry:
    """Eigenvalue 2 |c|^2 with c = pi (m - n conj(tau)) / Im(tau)."""
    tau = checked_modulus(tau)
    c = np.pi * (m - n * np.conj(tau)) / tau.imag
    lam = 2.0 * abs(c) ** 2
    return TorusSpectrumEntry(charge=(int(n), int(m)), c=complex(c), lam=float(lam), mu=float(tau.imag * lam), tau=tau)


def _eigenfunction(entry: TorusSpectrumEntry, x, y):
    """exp(c z - conj(c z)) at z = x + tau y."""
    # z is named: numpy would multiply a temporary in place, which rounds differently
    z = x + entry.tau * y
    return np.exp(2j * np.imag(entry.c * z))


def sample_eigenfunction(tau: complex, n: int, m: int, N: int) -> np.ndarray:
    """Sample exp(c z - conj(c z)) on the N x N flat-coordinate grid.

    Entry [j, k] is the value at (x, y) = (j / N, k / N) of the unit cell
    {x + tau y : x, y in [0, 1)}; both directions wrap periodically.
    """
    if N < 8:
        raise ValueError("grid resolution must be at least 8")
    coords = np.arange(N) / N
    return _eigenfunction(torus_eigenvalue(tau, n, m), coords[:, None], coords[None, :])


def _fd_laplacian(samples: np.ndarray, tau: complex, N: int) -> np.ndarray:
    """Second-order periodic finite-difference form of -2 d_z d_zbar.

    In the (x, y) chart with z = x + tau y the operator reads
    -(|tau|^2 d_xx - 2 Re(tau) d_xy + d_yy) / (2 Im(tau)^2); the mixed term
    needs the centered four-point cross stencil whenever Re(tau) != 0.
    """
    t1, t2 = tau.real, tau.imag
    scale = float(N * N)
    dxx = (np.roll(samples, -1, 0) - 2 * samples + np.roll(samples, 1, 0)) * scale
    dyy = (np.roll(samples, -1, 1) - 2 * samples + np.roll(samples, 1, 1)) * scale
    if t1 != 0.0:
        up = np.roll(samples, -1, 0)
        down = np.roll(samples, 1, 0)
        dxy = (
            np.roll(up, -1, 1) - np.roll(up, 1, 1) - np.roll(down, -1, 1) + np.roll(down, 1, 1)
        ) * (scale / 4.0)
    else:
        dxy = 0.0
    return -(abs(tau) ** 2 * dxx - 2 * t1 * dxy + dyy) / (2 * t2 * t2)


def fd_eigen_residual(tau: complex, n: int, m: int, N: int):
    """Relative discrete residual of the eigenvalue equation at resolution N.

    Returns (analytic eigenvalue, ||L h - lambda h|| / ||lambda h||); the
    residual decays like N^-2.  The zero charge is annihilated exactly and
    reports residual zero.
    """
    if N < FD_MIN_RESOLUTION:
        raise ValueError("grid resolution must be at least %d" % FD_MIN_RESOLUTION)
    entry = torus_eigenvalue(tau, n, m)
    if n == 0 and m == 0:
        return 0.0, 0.0
    samples = sample_eigenfunction(tau, n, m, N)
    applied = _fd_laplacian(samples, entry.tau, N)
    target = entry.lam * samples
    residual = np.linalg.norm(applied - target) / np.linalg.norm(target)
    return entry.lam, float(residual)


def spectrum_table(tau: complex, max_component: int) -> list:
    """All spectrum entries with |n|, |m| <= max_component, sorted by
    (n^2 + m^2, n, m) so the output is deterministic."""
    charges = charge_box(2, max_component).tolist()
    charges.sort(key=lambda nm: (nm[0] ** 2 + nm[1] ** 2, nm[0], nm[1]))
    return [torus_eigenvalue(tau, n, m) for n, m in charges]
