"""Randomized identity suite over one period matrix, reported as residuals.

Each trial draws a charge (n, m) and a second integer pair (q, p), which
serves both as the cycle p.alpha + q.beta and as the charge (q, p).  All
trials are drawn at once and every identity is one array expression over the
batch.  The kernels below are batched forms of the per-charge functions in
``pairings`` and ``differentials``, which remain the reference they are tested
against.  Integer arrays carry a leading batch axis and broadcast, so a unit
matrix in place of a batch evaluates every unit charge or cycle at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import differentials, pairings
from .siegel import PeriodMatrix, box_block, box_blocks


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def draw_trials(rng, trials: int, h: int, bound: int) -> tuple:
    """Integer data (n, m, q, p) of every trial, each of shape (trials, h).

    One draw of shape (trials, 4, h) yields the same integers, in the same
    order, as drawing n, m, q and p of length h for each trial in turn.
    """
    data = rng.integers(-bound, bound + 1, size=(trials, 4, h))
    return tuple(data[:, k] for k in range(4))


def _quad(x, a, y):
    """Batched bilinear form x @ a @ y over the last axis."""
    return np.sum((x @ a) * y, axis=-1)


def _herm(omega, n, m, q, p):
    """Batched ``pairings.herm_product`` of charges (n, m) over cycles (q, p)."""
    w = p + q @ omega.entries.T
    v_conj = m - n @ omega.entries.conj().T
    return np.pi * _quad(w, omega.imag_inverse, v_conj)


def _real(omega, n, m, q, p):
    """Batched ``pairings.real_product``."""
    o1 = omega.real_part
    left = p - q @ o1.T
    right = m - n @ o1.T
    return np.pi * (_quad(left, omega.imag_inverse, right) + _quad(q, omega.imag_part, n))


def _coeffs(omega, n, m):
    """Batched ``differentials.primitive_coeffs``: one coefficient row per charge."""
    real = np.pi * ((m - n @ omega.real_part.T) @ omega.imag_inverse.T)
    return real + 1j * (np.pi * n)


def _period(omega, c, q, p):
    """Batched ``differentials.period_of`` of coefficient rows over cycles (q, p)."""
    return np.sum(c * (p + q @ omega.entries.T), axis=-1)


def _wedge(omega, ca, cb):
    """Batched ``pairings.wedge_integral`` from the two coefficient rows."""
    beta_a = ca @ omega.entries.T
    beta_b = cb @ omega.entries.T
    return np.sum(ca * np.conj(beta_b) - np.conj(cb) * beta_a, axis=-1)


def _area(omega, n, m):
    """Batched ``pairings.area`` of nonzero charges."""
    v = m - n @ omega.entries.T
    return np.pi * np.pi / 2 * np.real(_quad(v, omega.imag_inverse, np.conj(v)))


def _factorized_herm(omega, n, m, q, p):
    """Sum over the 2h unit cycles of herm(nm, cycle) * herm(unit charge, qp)."""
    eye = np.eye(omega.genus, dtype=int)
    zero = np.zeros_like(eye)
    n, m, q, p = (x[:, None, :] for x in (n, m, q, p))
    over_beta = _herm(omega, n, m, eye, zero) * _herm(omega, zero, eye, q, p)
    over_alpha = _herm(omega, n, m, zero, eye) * _herm(omega, eye, zero, q, p)
    # interleaved beta_j, alpha_j terms, summed in the reference's order
    terms = np.stack((over_beta, over_alpha), axis=-1).reshape(len(over_beta), -1)
    return np.sum(terms, axis=-1)


def _duality_second(omega, n, m, tensors):
    """Batched second vector of ``pairings.duality_coeffs``."""
    d2 = (
        (m - n @ omega.real_part.T) @ tensors.E
        + (1j * m + n @ omega.imag_part.T) @ tensors.F.astype(complex)
        + 1j * (n @ tensors.G)
    )
    return d2.astype(complex)


def run_identity_suite(
    omega: PeriodMatrix,
    trials: int = 200,
    seed: int = 0,
    charge_bound: int = 5,
    tol: float = 1e-9,
) -> list:
    """Worst residual of every structural identity over random integer data.

    Charges and cycles are drawn uniformly from [-bound, bound]; the
    per-matrix identities (the eta-basis ones) are folded in once.  The two
    area identities need a nonzero charge and are reported only when one was
    drawn.  A NaN residual propagates to the worst case and fails.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if charge_bound < 0:
        raise ValueError("charge bound must be nonnegative, got %d" % charge_bound)
    n, m, q, p = draw_trials(np.random.default_rng(seed), trials, omega.genus, charge_bound)
    pi = np.pi
    basis = differentials.eta_bases(omega)
    tensors = pairings.canonical_duality_tensors(omega)

    defect = np.sum(p * n, axis=1) + np.sum(q * m, axis=1)
    twist = np.sum(p * n, axis=1) - np.sum(q * m, axis=1)
    herm = _herm(omega, n, m, q, p)
    reflected = _herm(omega, n, m, -q, p)
    real = _real(omega, n, m, q, p)
    c_nm = _coeffs(omega, n, m)
    c_qp = _coeffs(omega, q, p)
    wedge = _wedge(omega, c_nm, c_qp)
    o2 = omega.imag_part

    residuals = {
        "herm-vs-period": np.abs(herm - _period(omega, c_nm, q, p)),
        "herm-imag-integrality": np.abs(herm.imag - pi * defect),
        "herm-conjugation-shift": np.maximum(
            np.abs(np.conj(herm) - (herm - 2j * pi * defect)),
            np.abs(np.conj(herm) - _herm(omega, -q, p, -n, m)),
        ),
        "herm-basis-factorization": np.abs(
            herm - _factorized_herm(omega, n, m, q, p) / (2j * pi)
        ),
        "real-product-symmetry": np.abs(real - _real(omega, q, p, n, m)),
        "herm-vs-real-product": np.abs(real - (reflected - 1j * pi * twist)),
        "self-pairing-real": np.abs(_real(omega, n, m, n, m) - _herm(omega, n, m, -n, m)),
        "real-product-coefficient-form": np.abs(
            real - (_quad(c_nm.real, o2, c_qp.real) + _quad(c_qp.imag, o2, c_nm.imag)) / pi
        ),
        "wedge-vs-herm": np.abs(0.5j * wedge - pi * reflected),
        "wedge-order-defect": np.abs(
            wedge - (_wedge(omega, c_qp, c_nm) + 4 * pi * pi * twist)
        ),
        "wedge-imag-antisymmetry": np.abs(
            np.imag(0.5j * wedge)
            + np.imag(0.5j * _wedge(omega, _coeffs(omega, m, n), _coeffs(omega, p, q)))
        ),
        "coeffs-eta-decomposition": np.max(
            np.abs(c_nm - (m @ basis.eta1 + n @ basis.eta2)), axis=1
        ),
        "duality-fixes-coefficients": np.max(
            np.abs(_duality_second(omega, n, m, tensors) - c_nm), axis=1
        ),
    }
    nonzero = np.any(n != 0, axis=1) | np.any(m != 0, axis=1)
    if nonzero.any():
        n, m = n[nonzero], m[nonzero]
        area = _area(omega, n, m)
        exponent = _herm(omega, n, m, n, -m)
        target = -2.0 / pi * area
        residuals["winding-area-exponent"] = np.maximum(
            np.abs(exponent.real - target), np.abs(exponent.imag)
        )
        residuals["area-vs-real-product"] = np.abs(area - pi / 2 * _real(omega, n, m, n, m))
    residuals["eta-period-normalization"] = differentials.eta_period_residual(omega)
    residuals["eta-row-identity"] = differentials.eta_row_identity_residual(omega)

    return [
        IdentityResult(name, float(np.max(values)), tol) for name, values in residuals.items()
    ]


def positivity_sweep(omega: PeriodMatrix, bound: int):
    """Self real product over the full charge box.

    Returns (minimum over nonzero charges, value at zero).  Streamed one
    block of the box at a time, so memory does not grow with the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    h = omega.genus
    o1, o2 = omega.real_part, omega.imag_part
    prefixes, tail = box_blocks(2 * h, bound)
    minimum = np.inf
    for prefix in prefixes:
        rows, zero = box_block(prefix, tail)
        n_part = rows[:, :h].astype(float)
        m_part = rows[:, h:].astype(float)
        left = m_part - n_part @ o1
        values = np.pi * (
            np.einsum("ij,jk,ik->i", left, omega.imag_inverse, left)
            + np.einsum("ij,jk,ik->i", n_part, o2, n_part)
        )
        if zero is not None:
            at_zero = float(values[zero])
            values = np.delete(values, zero)
        minimum = np.minimum(minimum, values.min())
    return float(minimum), at_zero
