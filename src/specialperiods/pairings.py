"""Scalar products, areas, surface integrals and duality vectors of charges.

The Hermitian product of a charge with a cycle is the period of the
corresponding primitive differential over that cycle; its imaginary part is
always pi times the integer pairing p.n + q.m.  The real product is the
symmetric positive form underneath.  ``report`` evaluates its identities
with these functions; their per-charge reference residuals live with the
tests, in ``tests/oracles.py``.

Each formula is written once, over arrays of integer vectors (or coefficient
rows) whose last axis has length h and whose leading axes broadcast, giving
one value or row per broadcast index; ``herm_product`` and ``area`` call one
per charge, so a batch and a lone charge share one formula.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCharge
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
    """Symmetric real form of charges (n, m) and cycles (q, p), over arrays;
    positive definite on nonzero integer data."""
    o1 = omega.real_part
    left = p - q @ o1.T
    right = m - n @ o1.T
    return np.pi * (bilinear(left, omega.imag_inverse, right) + bilinear(q, omega.imag_part, n))


def wedge_integrals(omega: PeriodMatrix, ca, cb):
    """Surface integral of the differential with coefficients ``ca`` against the
    conjugate of the one with ``cb``, over arrays of coefficient rows.

    Evaluated through the bilinear relations: only alpha and beta periods of
    the two differentials enter.
    """
    beta_a = ca @ omega.entries.T
    beta_b = cb @ omega.entries.T
    return np.sum(ca * np.conj(beta_b) - np.conj(cb) * beta_a, axis=-1)


def areas(omega: PeriodMatrix, n, m):
    """``area`` over arrays of nonzero charges (n, m)."""
    # stacked matrix products round each charge as a lone one: n @ Omega.T or a sum over the last axis do not
    v = m - (omega.entries @ n[..., None])[..., 0]
    form = (v[..., None, :] @ omega.imag_inverse @ np.conj(v)[..., None])[..., 0, 0]
    return np.pi * np.pi / 2 * np.real(form)


def area(omega: PeriodMatrix, nm: LatticeCharge) -> float:
    """Total area of the flat metric defined by the charge's differential."""
    if nm.is_zero:
        raise DegenerateCharge("the zero charge has no metric")
    return float(areas(omega, nm.n_vec, nm.m_vec))


def duality_vectors(omega: PeriodMatrix, n, m):
    """Coefficient rows (d1, d2) of the two real one-forms solving the duality
    conditions, one row per charge (n, m) of the arrays.

    The tensors are the canonical E = pi (Im Omega)^{-1}, F = 0, G = pi I, with
    which d2 reproduces the primitive coefficients, pinning them through
    duality instead of monodromy.
    """
    o1n = n @ omega.real_part.T
    e = np.pi * omega.imag_inverse
    gn = 1j * (np.pi * n)
    return (m + o1n) @ e + gn, (m - o1n) @ e + gn
