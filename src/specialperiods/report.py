"""Randomized identity suite over one period matrix, reported as residuals.

Each trial draws a charge (n, m) and a second integer pair (q, p), which
serves both as the cycle p.alpha + q.beta and as the charge (q, p).  All
trials are drawn at once and every identity is one array expression over the
batch, calling the shared array functions of ``pairings`` and
``differentials``.  The tests check the suite against per-charge reference
residuals, one trial at a time (``tests/oracles.py``).
Integer arrays carry a leading batch axis and broadcast, so a unit matrix in
place of a batch evaluates every unit charge or cycle at once.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from . import differentials
from .differentials import coeff_rows, periods
from .pairings import (
    areas, bilinear, duality_vectors, herm_products, integer_pairings, real_products, wedge_integrals
)
from .errors import DomainError
from .siegel import PeriodMatrix, ellipsoid_points


def draw_trials(rng, trials: int, h: int, bound: int) -> tuple:
    """Integer data (n, m, q, p) of every trial, each of shape (trials, h).

    One draw of shape (trials, 4, h) yields the same integers, in the same
    order, as drawing n, m, q and p of length h for each trial in turn.
    """
    data = rng.integers(-bound, bound + 1, size=(trials, 4, h))
    return tuple(data[:, k] for k in range(4))


def _factorized_herm(omega, n, m, q, p):
    """Sum over the 2h unit cycles of herm(nm, cycle) * herm(unit charge, qp)."""
    eye = np.eye(omega.genus, dtype=int)
    zero = np.zeros_like(eye)
    n, m, q, p = (x[:, None, :] for x in (n, m, q, p))
    over_beta = herm_products(omega, n, m, eye, zero) * herm_products(omega, zero, eye, q, p)
    over_alpha = herm_products(omega, n, m, zero, eye) * herm_products(omega, eye, zero, q, p)
    # interleaved beta_j, alpha_j terms, summed in the reference's order
    terms = np.stack((over_beta, over_alpha), axis=-1).reshape(len(over_beta), -1)
    return np.sum(terms, axis=-1)


def run_identity_suite(
    omega: PeriodMatrix,
    trials: int = 200,
    seed: int = 0,
    charge_bound: int = 5,
) -> dict:
    """Worst residual of every structural identity over random integer data.

    Returns ``{identity name: worst residual}`` in a fixed order.  Charges
    and cycles are drawn uniformly from [-bound, bound]; the per-matrix
    identities (the eta-basis ones) are folded in once.  The two area
    identities need a nonzero charge and are reported only when one was
    drawn.  A NaN residual propagates to the worst case.  The integer
    pairings are int64 and reach 2h bound^2, which bounds ``charge_bound``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    limit = isqrt((2**63 - 1) // (2 * omega.genus))
    if not 0 <= charge_bound <= limit:
        raise ValueError(
            "charge bound must be between 0 and %d at genus %d, got %d"
            % (limit, omega.genus, charge_bound)
        )
    n, m, q, p = draw_trials(np.random.default_rng(seed), trials, omega.genus, charge_bound)
    pi = np.pi
    eta1, eta2 = differentials.eta_bases(omega)

    defect = integer_pairings(n, m, q, p)
    twist = integer_pairings(n, m, -q, p)
    herm = herm_products(omega, n, m, q, p)
    reflected = herm_products(omega, n, m, -q, p)
    real = real_products(omega, n, m, q, p)
    c_nm = coeff_rows(omega, n, m)
    c_qp = coeff_rows(omega, q, p)
    wedge = wedge_integrals(omega, c_nm, c_qp)
    swapped = wedge_integrals(omega, coeff_rows(omega, m, n), coeff_rows(omega, p, q))
    o2 = omega.imag_part

    residuals = {
        "herm-vs-period": np.abs(herm - periods(omega, c_nm, q, p)),
        "herm-imag-integrality": np.abs(herm.imag - pi * defect),
        "herm-conjugation-shift": np.maximum(
            np.abs(np.conj(herm) - (herm - 2j * pi * defect)),
            np.abs(np.conj(herm) - herm_products(omega, -q, p, -n, m)),
        ),
        "herm-basis-factorization": np.abs(
            herm - _factorized_herm(omega, n, m, q, p) / (2j * pi)
        ),
        "real-product-symmetry": np.abs(real - real_products(omega, q, p, n, m)),
        "herm-vs-real-product": np.abs(real - (reflected - 1j * pi * twist)),
        "self-pairing-real": np.abs(
            real_products(omega, n, m, n, m) - herm_products(omega, n, m, -n, m)
        ),
        "real-product-coefficient-form": np.abs(
            real - (bilinear(c_nm.real, o2, c_qp.real) + bilinear(c_qp.imag, o2, c_nm.imag)) / pi
        ),
        "wedge-vs-herm": np.abs(0.5j * wedge - pi * reflected),
        "wedge-order-defect": np.abs(
            wedge - (wedge_integrals(omega, c_qp, c_nm) + 4 * pi * pi * twist)
        ),
        "wedge-imag-antisymmetry": np.abs(
            np.imag(0.5j * wedge) + np.imag(0.5j * swapped)
        ),
        "coeffs-eta-decomposition": np.max(
            np.abs(c_nm - (m @ eta1 + n @ eta2)), axis=1
        ),
        "duality-fixes-coefficients": np.max(
            np.abs(duality_vectors(omega, n, m)[1] - c_nm), axis=1
        ),
    }
    nonzero = np.any(n != 0, axis=1) | np.any(m != 0, axis=1)
    if nonzero.any():
        n, m = n[nonzero], m[nonzero]
        area = areas(omega, n, m)
        exponent = herm_products(omega, n, m, n, -m)
        target = -2.0 / pi * area
        residuals["winding-area-exponent"] = np.maximum(
            np.abs(exponent.real - target), np.abs(exponent.imag)
        )
        residuals["area-vs-real-product"] = np.abs(area - pi / 2 * real_products(omega, n, m, n, m))
    residuals["eta-period-normalization"] = differentials.eta_period_residual(omega)
    residuals["eta-row-identity"] = differentials.eta_row_identity_residual(omega)

    return {name: float(np.max(values)) for name, values in residuals.items()}


def positivity_sweep(omega: PeriodMatrix, bound: int):
    """Self real product over the nonzero charges of the box [-bound, bound]^{2h}.

    Returns (minimum over nonzero charges, value at zero).  The product is
    pi (n Y n + (m - X n) Y^-1 (m - X n)), with Omega = X + iY.  The box holds
    every unit charge, so only a charge whose product is at most the smallest
    unit product can hold the minimum: ``siegel.ellipsoid_points`` lists the
    n parts of those charges, then the m parts around each X n.  The
    candidates, zero included, are evaluated in one batch.  Time and memory
    follow the number of candidates, not the bound; a bound past 2^52 is taken
    as 2^52, since the charges reach the product as floats.  Raises
    DomainError when every unit product overflows, or when Im Omega is too
    ill-conditioned to bound the rounding.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    h = omega.genus
    units = np.eye(2 * h)
    eps = np.finfo(float).eps
    # Rounding.  The batch's product of (n, m) is pi (a + b) rounded twice, with
    # b = bilinear(n, Y, n) and a the form of Y^-1 at m - fl(n @ X.T) rounded once per
    # entry, both nonnegative under ellipsoid_points's guard.  Rows of n @ X.T and of
    # bilinear round alike in any batch of at least two rows (see special._accept_probe),
    # and a batch of one row is the zero row, so the centres and b below are the batch's.
    # A product at most the smallest unit product then has b <= radius and
    # a <= radius - b, with 1 + 4 eps and 1 + 2 eps covering the roundings here.
    radius = real_products(omega, units[:, :h], units[:, h:], units[:, :h], units[:, h:]).min()
    radius = radius / np.pi * (1 + 4 * eps)
    if not np.isfinite(radius):
        raise DomainError("the self real product of a unit charge overflows")
    _, n_part = ellipsoid_points(omega.imag_part, np.zeros((1, h)), [radius], bound)
    n_part = n_part.astype(float)
    rest = (radius - bilinear(n_part, omega.imag_part, n_part)) * (1 + 2 * eps)
    owner, m_part = ellipsoid_points(omega.imag_inverse, n_part @ omega.real_part.T, rest, bound)
    n_part, m_part = n_part[owner], m_part.astype(float)
    values = real_products(omega, n_part, m_part, n_part, m_part)
    nonzero = n_part.any(axis=1) | m_part.any(axis=1)
    (at_zero,) = values[~nonzero]
    return float(values[nonzero].min()), float(at_zero)
