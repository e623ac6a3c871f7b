"""Detection of special period matrices by integer box search.

A probe charge (n', m') solves the proportionality problem for a base
charge (n, m) when their complex images m - Omega n agree up to one scale
factor.  Nonreal scale factors are the interesting case: they exhibit the
surface as a branched cover of a torus and give the Jacobian complex
multiplication.  The box search enumerates all probes up to a bound,
records the scale factor, eigenvalues, covering degree, and a
classification, scanning the box in order in one thread, so a run's records
are reproducible.

Every record takes one path, whether it comes from the box search or from a
single probe (``solution_record``, ``solve_c``): the acceptance kernel
``_scan_rows``, the sign and classification rule ``_normalize``, and the
record builder ``_record``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .differentials import d_matrix, lattice_image
from .errors import (
    ConvergenceDomain,
    DegenerateBase,
    DomainError,
    LatticeDefect,
    NotASolution,
    NotIntegralDegree,
)
from .pairings import area, integer_defect
from .siegel import CyclePair, LatticeCharge, PeriodMatrix, box_block, box_blocks

COLLINEAR_RATIONAL = "collinear-rational"
SPECIAL_COMPLEX = "special-complex"
DEGENERATE = "degenerate"

_BASE_EPS = 1e-14
_DEGREE_TOL = 1e-8
_MONODROMY_TOL = 1e-9


@dataclass(frozen=True)
class SolutionRecord:
    """One accepted probe with its scale factor and spectral data.

    ``sign`` is +1 or -1 and records the sign flip applied to the probe so
    that the stored scale factor has positive imaginary conjugate; the
    proportionality relation holds for (sign * probe, c).  Collinear records
    have a real rational scale factor and no covering degree.
    """

    probe: LatticeCharge
    c: complex
    sign: int
    lambda_c: float
    lambda_c_dual: float
    degree: int | None
    classification: str

    @property
    def c_conj(self) -> complex:
        return np.conj(self.c)

    @property
    def effective_probe(self) -> LatticeCharge:
        return self.probe if self.sign == 1 else -self.probe


def base_image(omega: PeriodMatrix, base: LatticeCharge) -> np.ndarray:
    """Complex image of the base charge; rejects nearly vanishing components."""
    v = lattice_image(omega, base)
    if np.min(np.abs(v)) < _BASE_EPS:
        raise DegenerateBase("a base image component vanishes; ratios are undefined")
    return v


def consistency_ratios(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge) -> np.ndarray:
    """Componentwise ratios of probe image to base image.

    The probe solves the proportionality problem precisely when all ratios
    agree; their common value is the conjugate of the scale factor.
    """
    v = base_image(omega, base)
    return lattice_image(omega, probe) / v


def _scan_rows(omega, v, rows: np.ndarray):
    """The acceptance kernel: conjugate scale factor and residual of each probe.

    The residual max_j |v'_j - cbar v_j| is normalized by max_j |v_j| so the
    tolerance is scale free.  The ``n @ Omega`` product may round differently
    for one row than for a block of rows, so a probe checked alone and the same
    probe in a search can differ in rounding noise; see
    ``tests/test_record_path.py::test_block_and_single_row_kernels_agree_to_rounding``.
    """
    h = omega.genus
    n_part = rows[:, :h].astype(float)
    m_part = rows[:, h:].astype(float)
    images = m_part - n_part @ omega.entries
    anchor = int(np.argmax(np.abs(v)))
    scale = np.max(np.abs(v))
    cbars = images[:, anchor] / v[anchor]
    residuals = np.max(np.abs(images - cbars[:, None] * v[None, :]), axis=1) / scale
    return cbars, residuals


def _accepted(omega, v, rows: np.ndarray, tol: float) -> list:
    """(flat probe, cbar) of every row the kernel accepts."""
    cbars, residuals = _scan_rows(omega, v, rows)
    keep = np.nonzero(residuals <= tol)[0]
    return [(tuple(int(x) for x in rows[i]), complex(cbars[i])) for i in keep]


def _accept_probe(omega, base: LatticeCharge, probe: LatticeCharge, tol: float) -> complex:
    """Conjugate scale factor of one probe, which the kernel must accept."""
    if probe.is_zero:
        raise NotASolution("the zero probe is degenerate")
    v = base_image(omega, base)
    cbars, residuals = _scan_rows(omega, v, np.array([probe.n + probe.m]))
    if not residuals[0] <= tol:
        raise NotASolution(
            "probe image is not proportional to the base image (residual %.3e)" % residuals[0]
        )
    return complex(cbars[0])


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
    if abs(c) <= tol:
        return sign, c, DEGENERATE
    if abs(c.imag) <= tol:
        return sign, c, COLLINEAR_RATIONAL
    return sign, c, SPECIAL_COMPLEX


def _record(omega, base, probe, cbar, tol) -> SolutionRecord:
    sign, c, classification = _normalize(cbar, tol)
    base_area = area(omega, base)
    lambda_c = 2.0 * base_area * abs(c) ** 2
    probe_area = area(omega, probe)
    # lambda_c is 0 only when c is (a degenerate record); 4 A A' / lambda_c -> inf
    lambda_dual = 4.0 * base_area * probe_area / lambda_c if lambda_c else np.inf
    if not (
        cmath.isfinite(c)
        and math.isfinite(lambda_c)
        and (math.isfinite(lambda_dual) or classification == DEGENERATE)
    ):
        raise DomainError(
            "the record of probe %s;%s is not finite (c %r, lambda_c %r, lambda_dual %r)"
            % (",".join(map(str, probe.n)), ",".join(map(str, probe.m)), c, lambda_c, lambda_dual)
        )
    record = SolutionRecord(
        probe=probe,
        c=c,
        sign=sign,
        lambda_c=float(lambda_c),
        lambda_c_dual=float(lambda_dual),
        degree=None,
        classification=classification,
    )
    if classification == SPECIAL_COMPLEX:
        record = replace(record, degree=cover_degree(omega, base, record))
    return record


def solve_c(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge, tol: float) -> complex:
    """Scale factor of an accepted probe, sign-normalized.

    The returned value c satisfies (for the probe up to an overall sign flip)
    image(probe) = conj(c) * image(base), with Im conj(c) >= -tol.
    """
    return _normalize(_accept_probe(omega, base, probe, tol), tol)[1]


def solution_record(
    omega: PeriodMatrix,
    base: LatticeCharge,
    probe: LatticeCharge,
    tol: float,
) -> SolutionRecord:
    """Build the full record for one accepted probe, as the box search would."""
    return _record(omega, base, probe, _accept_probe(omega, base, probe, tol), tol)


def _block_screen(omega, v, bound: int, tol: float, tail: np.ndarray):
    """Predicate on box prefixes that is False only for blocks the kernel rejects whole.

    The kernel accepts a row x when every component of its defect
    D(x) = image(x) - (image_a(x) / v_a) v, with a = argmax |v|, is at most
    tol max|v|.  D is real-linear in x, so with ``lin`` the defects of the 2h
    unit charges, D(prefix + t) = prefix @ lin[:split] + t @ lin[split:].  The
    tail rows are sorted once by the real part of that second term in one
    non-anchor column j0; for each prefix a binary search gives the tail rows
    whose |Re D_j0| can be within ``limit``, and the block may hold a record
    only if one of them has every |D_j| within ``limit``.  Returns None when
    nothing may be skipped: at genus one, where j0 does not exist, and when a
    magnitude in the bound below is not finite.
    """
    h = omega.genus
    if h == 1:
        return None
    anchor = int(np.argmax(np.abs(v)))
    j0 = (anchor + 1) % h
    # images of the unit charges: the rows of -Omega for n, of the identity for m
    units = np.concatenate([-omega.entries, np.eye(h)])
    lin = units - (units[:, anchor] / v[anchor])[:, None] * v[None, :]
    # Rounding.  With mag = sum_i max_j |image_j(e_i)| and |x_i| <= bound, every
    # image, cbar v_j and defect the kernel or this screen computes is at most
    # 2 bound mag in modulus (|v_j / v_a| <= 1), and each is a sum of at most
    # 2h + 2 rounded terms.  So, to first order in eps and counting the complex
    # products and the division (Higham, Accuracy and Stability of Numerical
    # Algorithms, 3.1 and 3.6), the kernel's max_j |image_j - cbar v_j| is
    # within (1.5h + 10) eps bound mag of max_j |D_j| and the screen's defect
    # x @ lin within (3h + 8) eps bound mag; 64h eps bound mag bounds their sum
    # for every h >= 1 with room for the second-order terms.  Underflow adds at
    # most eps tiny per operation; the factor 1 + 4 eps covers rounding in the
    # comparisons and in tol max|v| (the kernel tests fl(max / scale) <= tol).
    # Every magnitude stays below 4 bound mag, so nothing overflows if that is
    # finite.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    mag = float(np.abs(units).max(axis=1).sum())
    limit = (tol * np.max(np.abs(v)) + 64 * h * eps * (bound * mag + tiny)) * (1 + 4 * eps)
    if not (np.isfinite(lin).all() and np.isfinite([limit, 4 * bound * mag]).all()):
        return None
    split = 2 * h - tail.shape[1]
    head, body = lin[:split], lin[split:]
    head_j0 = head[:, j0].real.tolist()
    keys = tail @ body[:, j0].real
    order = np.argsort(keys)
    keys = keys[order]
    zero = len(tail) // 2

    def may_hold(prefix) -> bool:
        centre = -sum(p * c for p, c in zip(prefix, head_j0))
        lo, hi = keys.searchsorted(centre - limit, "left"), keys.searchsorted(centre + limit, "right")
        rows = order[lo:hi]
        if not any(prefix):
            rows = rows[rows != zero]  # the zero probe is not scanned
        if not len(rows):
            return False
        defects = np.asarray(prefix, dtype=float) @ head + tail[rows] @ body
        return bool((np.abs(defects) <= limit).all(axis=1).any())

    return may_hold


def search_solutions(omega: PeriodMatrix, base: LatticeCharge, bound: int, tol: float) -> list:
    """Enumerate every probe in the box [-bound, bound]^{2h} except zero.

    The box is scanned one block of at most ``siegel.BLOCK_ROWS`` rows at a
    time, so memory does not grow with the bound.  Blocks that
    ``_block_screen`` proves to hold no accepted row are skipped; every other
    block goes whole through the kernel, so the records do not depend on the
    screen.  Records are returned sorted lexicographically by (n', m'), the
    order of the blocks and of the rows within each.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    v = base_image(omega, base)
    h = omega.genus
    prefixes, tail = box_blocks(2 * h, bound)
    may_hold = _block_screen(omega, v, bound, tol, tail)
    if may_hold is not None:
        prefixes = filter(may_hold, prefixes)
    records = []
    for prefix in prefixes:
        rows, zero = box_block(prefix, tail)
        if zero is not None:
            rows = np.delete(rows, zero, axis=0)
        for flat, cbar in _accepted(omega, v, rows, tol):
            probe = LatticeCharge(flat[:h], flat[h:])
            records.append(_record(omega, base, probe, cbar, tol))
    return records


def _cover_vector(base: LatticeCharge, record: SolutionRecord) -> np.ndarray:
    """Coefficients of the differential realizing the torus map."""
    effective = record.effective_probe
    return record.c_conj * base.n_vec - effective.n_vec


def cover_monodromy(
    omega: PeriodMatrix,
    base: LatticeCharge,
    record: SolutionRecord,
    cycle: CyclePair,
):
    """Period of the covering differential over a cycle, with its lattice
    coordinates in Z + conj(c) Z.

    Raises when the computed period misses the predicted lattice point, which
    flags a false positive from the search tolerance.
    """
    u = _cover_vector(base, record)
    value = complex(u @ (cycle.p_vec + omega.entries @ cycle.q_vec))
    const = -integer_defect(record.effective_probe, cycle)
    slope = integer_defect(base, cycle)
    expected = const + record.c_conj * slope
    if abs(value - expected) > _MONODROMY_TOL:
        raise LatticeDefect(
            "cover period %.6e away from the lattice" % abs(value - expected)
        )
    return value, (const, slope)


def _raw_degree(omega: PeriodMatrix, u: np.ndarray, record: SolutionRecord) -> float:
    """Area ratio of the two flat metrics; an integer for a genuine cover."""
    return float(np.real(u @ omega.imag_part @ np.conj(u)) / record.c_conj.imag)


def cover_degree(omega: PeriodMatrix, base: LatticeCharge, record: SolutionRecord) -> int:
    """Number of sheets of the torus cover: area ratio of the two flat metrics."""
    if record.c_conj.imag <= 0:
        raise NotIntegralDegree("no torus cover for a real scale factor")
    raw = _raw_degree(omega, _cover_vector(base, record), record)
    rounded = int(round(raw))
    if abs(raw - rounded) > _DEGREE_TOL or rounded < 1:
        raise NotIntegralDegree("degree %.12f is not a positive integer" % raw)
    return rounded


@dataclass(frozen=True, eq=False)
class CoverData:
    """Covering differential, raw degree, and its basis-cycle periods."""

    u: np.ndarray
    degree_raw: float
    monodromy_table: tuple

    def __post_init__(self):
        self.u.setflags(write=False)


def cover_data(omega: PeriodMatrix, base: LatticeCharge, record: SolutionRecord) -> CoverData:
    """Assemble the covering map data over all 2h basis cycles."""
    u = _cover_vector(base, record)
    raw = _raw_degree(omega, u, record)
    h = omega.genus
    eye = np.eye(h, dtype=int)
    table = []
    for k in range(h):
        alpha = CyclePair(q=(0,) * h, p=tuple(eye[k]))
        beta = CyclePair(q=tuple(eye[k]), p=(0,) * h)
        for cycle in (alpha, beta):
            value, coords = cover_monodromy(omega, base, record, cycle)
            table.append((cycle, value, coords))
    return CoverData(u=u, degree_raw=raw, monodromy_table=tuple(table))


def cm_wedge_residual(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge) -> float:
    """Antisymmetrized product of the two charge images.

    Vanishes exactly when the probe is proportional to the base, making it an
    acceptance oracle independent of the ratio test.
    """
    v = lattice_image(omega, base)
    vp = lattice_image(omega, probe)
    outer = v[:, None] * vp[None, :]
    return float(np.max(np.abs(outer - outer.T)))


def cm_relation_check(omega: PeriodMatrix, tau: complex, m_vec, n_vec, m_prime, n_prime) -> float:
    """Residual of the complex-multiplication witness
    max_k |M'_k + tau M_k - sum_j (N'_j + tau N_j) Omega_{jk}|."""
    m_vec = np.asarray(m_vec, dtype=float)
    n_vec = np.asarray(n_vec, dtype=float)
    m_prime = np.asarray(m_prime, dtype=float)
    n_prime = np.asarray(n_prime, dtype=float)
    tau = complex(tau)
    residual = m_prime + tau * m_vec - (n_prime + tau * n_vec) @ omega.entries
    return float(np.max(np.abs(residual)))


def cm_witness_from_record(base: LatticeCharge, record: SolutionRecord):
    """Integer vectors (M, N, M', N') realizing the cover's lattice relation."""
    effective = record.effective_probe
    return (
        base.m,
        base.n,
        tuple(-m for m in effective.m),
        tuple(-n for n in effective.n),
    )


def psf_coefficient(omega: PeriodMatrix, charge: LatticeCharge) -> np.ndarray:
    """Column sums of the conjugated role-swapped charge matrix.

    The roles of n and m are swapped deliberately before conjugating, which
    collapses to n - Omega m.
    """
    swapped = LatticeCharge(charge.m, charge.n)
    return np.conj(d_matrix(omega, swapped).entries).sum(axis=0)


def _theta_sum(x: complex, trunc: int) -> complex:
    ks = np.arange(-trunc, trunc + 1)
    return complex(np.sum(np.exp(-(ks.astype(float) ** 2) * np.pi * x)))


def psf_check(
    omega: PeriodMatrix,
    base: LatticeCharge,
    probe: LatticeCharge,
    j: int,
    trunc: int = 30,
):
    """Both sides of the lattice-sum reciprocity for component j.

    Returns (lhs, rhs, |lhs - rhs|) where lhs sums exp(-k^2 pi D'_j / D_j)
    and rhs is sqrt(D_j / D'_j) times the reciprocal sum.  The ratio must
    have positive real part for either sum to converge.
    """
    d_base = psf_coefficient(omega, base)
    d_probe = psf_coefficient(omega, probe)
    if not 0 <= j < omega.genus:
        raise ValueError("component index out of range")
    dj, dpj = complex(d_base[j]), complex(d_probe[j])
    if abs(dj) < _BASE_EPS or abs(dpj) < _BASE_EPS:
        raise ConvergenceDomain("a lattice-sum coefficient vanishes")
    ratio = dpj / dj
    if ratio.real <= 0:
        raise ConvergenceDomain(
            "ratio has nonpositive real part (%.6e)" % ratio.real
        )
    lhs = _theta_sum(ratio, trunc)
    rhs = complex(np.sqrt(dj / dpj)) * _theta_sum(1.0 / ratio, trunc)
    return lhs, rhs, abs(lhs - rhs)
