"""Detection of special period matrices by integer box search.

A probe charge (n', m') solves the proportionality problem for a base
charge (n, m) when their complex images m - Omega n agree up to one scale
factor.  Nonreal scale factors are the interesting case: they exhibit the
surface as a branched cover of a torus and give the Jacobian complex
multiplication.  The box search finds all such probes up to a bound and
records the scale factor, eigenvalues, covering degree, and a
classification, scanning only the integer points near the plane of solutions,
in one thread, so a run's records are reproducible.

Every record takes one path, whether it comes from the box search or from a
single probe (``solution_record``, the one-row case): the acceptance kernel
``_scan_rows``, then the record builder ``_records``, which applies the sign
and classification rule and computes c, the eigenvalues and the degree of
every accepted probe in one array pass.  The search feeds it the base area
once and every probe's area from one batched pass that rounds as
``pairings.area`` does, and returns the records as columns
(``SolutionRecords``), each ``SolutionRecord`` built only when it is read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .differentials import lattice_image, period_of
from .errors import (
    DegenerateBase,
    DomainError,
    LatticeDefect,
    NotASolution,
    NotIntegralDegree,
)
from .pairings import _unit_cycles, area, areas, integer_defect
from .siegel import CyclePair, LatticeCharge, PeriodMatrix

COLLINEAR_RATIONAL = "collinear-rational"
SPECIAL_COMPLEX = "special-complex"
DEGENERATE = "degenerate"

_BASE_EPS = 1e-14
_MONODROMY_TOL = 1e-9
# Free pairs per chunk of the plane search: its memory is bounded by this, whatever the bound.
_CHUNK_ROWS = 1 << 14


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


def _exponent(x) -> int:
    """The binary exponent of max |x|, or 0 below 1: x * 2.0**-_exponent(x) is under 1 in modulus."""
    return max(int(np.frexp(np.max(np.abs(x)))[1]), 0)


@np.errstate(over="ignore", invalid="ignore")  # a probe whose image or residual overflows is rejected
def _scan_rows(omega, v, rows: np.ndarray):
    """The acceptance kernel: conjugate scale factor and residual of each probe.

    The residual max_j |v'_j - cbar v_j| is normalized by max_j |v_j| so the
    tolerance is scale free.
    """
    h = omega.genus
    n_part = rows[:, :h].astype(float)
    m_part = rows[:, h:].astype(float)
    images = m_part - n_part @ omega.entries
    anchor = int(np.argmax(np.abs(v)))
    scale = np.max(np.abs(v))
    # both operands at one power-of-two scale, which rounds exactly, so that numpy's
    # complex division cannot overflow within on finite operands near the float range
    unit = 2.0 ** -_exponent(v)
    cbars = (images[:, anchor] * unit) / (v[anchor] * unit)
    residuals = np.max(np.abs(images - cbars[:, None] * v[None, :]), axis=1) / scale
    return cbars, residuals


def _accept_probe(omega, base: LatticeCharge, probe: LatticeCharge, tol: float) -> complex:
    """Conjugate scale factor of one probe, which the kernel must accept."""
    if probe.is_zero:
        raise NotASolution("the zero probe is degenerate")
    v = base_image(omega, base)
    # with its negation: numpy's product of one row rounds unlike a search's block
    cbars, residuals = _scan_rows(omega, v, np.array([probe.n + probe.m, (-probe).n + (-probe).m]))
    if not residuals[0] <= tol:
        raise NotASolution(
            "probe image is not proportional to the base image (residual %.3e)" % residuals[0]
        )
    return complex(cbars[0])


@dataclass(frozen=True, eq=False)
class SolutionRecords(Sequence):
    """The records of one search, held as read-only columns, one entry per probe.

    It is a sequence: each item is a ``SolutionRecord`` built on demand.  ``rows``
    holds the probes (n', m') one per row, ``classification`` the names and
    ``degree`` an int for a special record and None otherwise.
    """

    rows: np.ndarray
    c: np.ndarray
    sign: np.ndarray
    lambda_c: np.ndarray
    lambda_c_dual: np.ndarray
    degree: np.ndarray
    classification: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        probe, h = tuple(self.rows[i].tolist()), self.rows.shape[1] // 2
        return SolutionRecord(
            probe=LatticeCharge(probe[:h], probe[h:]),
            c=self.c[i].item(),
            sign=self.sign[i].item(),
            lambda_c=self.lambda_c[i].item(),
            lambda_c_dual=self.lambda_c_dual[i].item(),
            degree=self.degree[i],
            classification=self.classification[i],
        )


_CLASSES = np.array([SPECIAL_COMPLEX, COLLINEAR_RATIONAL, DEGENERATE], dtype=object)


def _square(x: float) -> float:
    """x ** 2 rounded as Python rounds it (C pow, not x * x), or inf where that overflows."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _degrees(base: LatticeCharge, rows: np.ndarray, sign) -> np.ndarray:
    """``cover_degree`` of each effective probe sign * (n', m'), a row of ``rows``, over Python ints."""
    exact, h = rows.astype(object), len(base.n)
    return sign * (exact[:, h:] @ np.array(base.n, dtype=object) - exact[:, :h] @ np.array(base.m, dtype=object))


def _checked_degree(degree: int) -> int:
    if degree < 1:
        raise NotIntegralDegree("degree %d is not a positive integer" % degree)
    return degree


@np.errstate(all="ignore")  # a record that is not finite raises DomainError below
def _records(base, rows: np.ndarray, cbars: np.ndarray, tol: float, base_area: float, probe_areas) -> SolutionRecords:
    """The records of accepted probes, the rows (n', m') of ``rows``, from their conjugate
    scale factors and the areas, in one pass over all of them.

    The probe is flipped exactly when Im cbar < -tol, so a special record has
    Im conj(c) > 0.  Negation keeps the sign of a zero imaginary part, which the
    tables print.  The first row, in order, whose record is not finite or whose
    degree is not positive raises DomainError or NotIntegralDegree respectively.
    """
    flip = cbars.imag < -tol
    sign = np.where(flip, -1, 1)
    c = np.conj(np.where(flip, -cbars, cbars))
    modulus = np.hypot(c.real, c.imag)  # as abs(complex) rounds it, but inf where that raises
    kind = np.where(modulus <= tol, 2, np.where(np.abs(c.imag) <= tol, 1, 0))  # indexes _CLASSES
    squares = np.array([_square(x) for x in modulus.tolist()])
    over = np.isinf(squares) & np.isfinite(modulus)  # |c| past about 1.3e154: one factor |c| at a time
    lambda_c = np.where(over, 2.0 * base_area * modulus * modulus, 2.0 * base_area * squares)
    # 4 A A' / lambda_c without forming A A', which overflows long before the quotient;
    # |c|^2 is 0 for a degenerate record, or once |c| < ~1e-162 underflows: inf there
    twice = 2.0 * probe_areas
    lambda_dual = np.where(over, twice / modulus / modulus, np.where(squares == 0, np.inf, twice / squares))
    finite = np.isfinite(c) & np.isfinite(lambda_c) & (np.isfinite(lambda_dual) | (kind == 2))
    special = kind == 0
    degree = np.full(len(rows), None, dtype=object)
    degree[special] = _degrees(base, rows[special], sign[special])
    failing = ~finite
    failing[special] |= degree[special] < 1
    if failing.any():
        i, h = int(np.argmax(failing)), len(base.n)
        if finite[i]:
            _checked_degree(degree[i])  # raises NotIntegralDegree
        probe = ",".join(map(str, rows[i, :h].tolist())), ",".join(map(str, rows[i, h:].tolist()))
        raise DomainError(
            "the record of probe %s;%s is not finite (c %r, lambda_c %r, lambda_dual %r)"
            % (*probe, c[i].item(), lambda_c[i].item(), lambda_dual[i].item())
        )
    return SolutionRecords(rows, c, sign, lambda_c, lambda_dual, degree, _CLASSES[kind])


def solution_record(
    omega: PeriodMatrix,
    base: LatticeCharge,
    probe: LatticeCharge,
    tol: float,
) -> SolutionRecord:
    """Build the full record for one accepted probe, as the box search would."""
    cbar = _accept_probe(omega, base, probe, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # _records raises DomainError on a record that is not finite
        base_area, probe_area = area(omega, base), area(omega, probe)
    rows = np.array([probe.n + probe.m], dtype=object)
    return _records(base, rows, np.array([cbar]), tol, base_area, np.array([probe_area]))[0]


def _free_pairs(bound: int):
    """The box [-bound, bound]^2 in lexicographic order, in chunks of at most _CHUNK_ROWS rows.

    Row i of the box is divmod(i, 2 bound + 1) - bound.
    """
    width = 2 * bound + 1
    for start in range(0, width * width, _CHUNK_ROWS):
        high, low = np.divmod(np.arange(start, min(start + _CHUNK_ROWS, width * width)), width)
        yield np.column_stack([high, low]) - bound


@np.errstate(over="ignore")  # every overflow is caught by a finiteness test below
def _plane_rows(omega, v, bound: int, tol: float) -> np.ndarray:
    """Sorted rows of the box that include every row the kernel accepts.

    The kernel accepts a row x when every component of its defect
    D(x) = image(x) - (image_a(x) / v_a) v, with a = argmax |v|, is at most tol max|v|.
    The real and imaginary parts of the other h - 1 components are K x, with K of rank
    2h - 2, so exact solutions form a real 2-plane.  The 2 free coordinates are those whose
    complement K_d (columns scaled alike) has the largest smallest singular value; each
    free pair leaves every dependent coordinate of an accepted row in a short interval.
    At genus one K is empty, so the free pair is the whole charge and every row is listed.
    Raises DomainError if a magnitude in the bound below is not finite, which needs
    entries near the float range and never happens at genus one.
    """
    h = omega.genus
    anchor = int(np.argmax(np.abs(v)))
    # images of the unit charges: the rows of -Omega for n, of the identity for m
    units = np.concatenate([-omega.entries, np.eye(h)])
    lin = np.delete(units - (units[:, anchor] / v[anchor])[:, None] * v[None, :], anchor, axis=1)
    if not np.isfinite(lin).all():
        raise DomainError("the plane of solutions overflows: an entry of Omega is too large")
    # Rounding.  With mag = sum_i max_j |image_j(e_i)| and |x_i| <= bound, every image,
    # cbar v_j and defect is at most 2 bound mag in modulus and a sum of at most 2h + 2
    # rounded terms, so (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and
    # 3.6) the kernel's max_j |image_j - cbar v_j| is within (1.5h + 10) eps bound mag of
    # max_j |D_j|, and x @ lin, exact on the computed lin, within (3h + 8) eps bound mag;
    # 64h eps bound mag bounds their sum with room for second-order terms.  Underflow adds
    # at most eps tiny per operation, or eps tiny max|v| <= 4 eps mag in the kernel's division,
    # which runs at the scale of v, and 1 + 4 eps covers the comparisons and tol max|v|.
    # So every accepted x has |K x| <= limit, and nothing overflows if 4 bound mag is finite.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    mag = float(np.abs(units).max(axis=1).sum())
    limit = (tol * np.max(np.abs(v)) + 64 * h * eps * (bound * mag + tiny)) * (1 + 4 * eps)
    k = np.concatenate([lin.real.T, lin.imag.T])  # 0 x 2 at genus one, hence the initial= below
    scaled = k / np.maximum(np.abs(k).max(axis=0, initial=0), tiny)  # n and m columns differ in scale by |Omega|
    pairs = list(itertools.combinations(range(2 * h), 2))
    deps = np.array([np.delete(np.arange(2 * h), f) for f in pairs])
    smallest = np.linalg.svd(scaled[:, deps].transpose(1, 0, 2), compute_uv=False).min(axis=1, initial=np.inf)
    best = int(np.argmax(smallest))
    free, dep = list(pairs[best]), list(deps[best])
    # For any Z, x_d = Z (K x - K_f x_f) + (I - Z K_d) x_d.  With W = fl(Z K_f) and
    # P = fl(Z K_d), dot products of 2h - 2 terms, x_d lies within |Z| 1 limit +
    # bound (|I - P| 1 + h eps |Z| |K| 1) of -W x_f, which two products and a sum give
    # within 2 eps bound |W| 1 + tiny; this needs no conditioning estimate.  Each
    # magnitude sums at most 4h nonnegative rounded terms, so 1 + 8h eps lifts the radius
    # above the exact one; |W x_f| <= 2 reach, and the ends are rounded outward.
    z = np.linalg.inv(k[:, dep])
    w = z @ k[:, free]
    reach = bound * np.abs(w).sum(axis=1)
    slack = np.abs(np.eye(2 * h - 2) - z @ k[:, dep]).sum(axis=1) + h * eps * (np.abs(z) @ np.abs(k).sum(axis=1))
    radius = (np.abs(z).sum(axis=1) * limit + bound * (slack + tiny) + 2 * eps * reach) * (1 + 8 * h * eps)
    # empty at genus one, where no margin is used
    if not np.isfinite(np.maximum(radius + 2 * reach, 4 * bound * mag)).all():
        raise DomainError("Omega's entries are too large to bound the search's rounding at bound %d" % bound)
    found = []
    for rows in _free_pairs(bound):
        centre = -(rows[:, :1] * w[:, 0] + rows[:, 1:] * w[:, 1])
        # clipped to +-(bound + 1), exact floats, so that ends far outside the box fit int64
        lo = np.ceil(np.clip(np.nextafter(centre - radius, -np.inf), -bound, bound + 1)).astype(np.int64)
        hi = np.floor(np.clip(np.nextafter(centre + radius, np.inf), -bound - 1, bound)).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        for j in range(2 * h - 2):  # append every integer of dep[j]'s interval to each row
            n = counts[:, j]
            offsets = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            rows = np.column_stack([np.repeat(rows, n, axis=0), np.repeat(lo[:, j], n) + offsets])
            lo, counts = np.repeat(lo, n, axis=0), np.repeat(counts, n, axis=0)
        found.append(rows[:, np.argsort(free + dep)])
    rows = np.concatenate(found)
    return rows[np.lexsort(rows.T[::-1])]


def search_solutions(omega: PeriodMatrix, base: LatticeCharge, bound: int, tol: float) -> SolutionRecords:
    """Enumerate every probe in the box [-bound, bound]^{2h} except zero.

    The kernel scans the rows of ``_plane_rows`` in one call, at every genus, and
    decides every record; memory follows the candidates, not the box.  The records
    come back as the columns of a ``SolutionRecords``, sorted lexicographically by
    (n', m').  Where the plane cannot bound its rounding, on entries near the float
    range, it raises DomainError.  A bound past 2^52 raises ValueError: the plane's
    interval ends are floats, which hold every integer only up to 2^53.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > 2**52:
        raise ValueError("bound must be at most 2**52, got %d" % bound)
    v = base_image(omega, base)
    h = omega.genus
    rows = _plane_rows(omega, v, bound, tol)
    rows = rows[rows.any(axis=1)]
    cbars, residuals = _scan_rows(omega, v, rows)
    rows, cbars = rows[residuals <= tol], cbars[residuals <= tol]
    with np.errstate(over="ignore", invalid="ignore"):  # _records raises DomainError on a record that is not finite
        base_area, probe_areas = area(omega, base), areas(omega, rows[:, :h], rows[:, h:])
    return _records(base, rows, cbars, tol, base_area, probe_areas)


def _cover_probe(record: SolutionRecord) -> LatticeCharge:
    """Effective probe of a record with a torus cover.

    Only a special-complex record has a torus cover; any other raises.
    """
    if record.classification != SPECIAL_COMPLEX:
        raise NotIntegralDegree("no torus cover for a %s record" % record.classification)
    return record.effective_probe


def _cover_vector(base: LatticeCharge, record: SolutionRecord) -> np.ndarray:
    """Coefficients of the differential realizing the torus map."""
    return record.c_conj * base.n_vec - _cover_probe(record).n_vec


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
    value = period_of(omega, u, cycle)
    const = -integer_defect(record.effective_probe, cycle)
    slope = integer_defect(base, cycle)
    expected = const + record.c_conj * slope
    if abs(value - expected) > _MONODROMY_TOL:
        raise LatticeDefect(
            "cover period %.6e away from the lattice" % abs(value - expected)
        )
    return value, (const, slope)


def cover_degree(omega: PeriodMatrix, base: LatticeCharge, record: SolutionRecord) -> int:
    """Number of sheets of the torus cover: the symplectic pairing n.m' - n'.m
    of the base (n, m) and the effective probe (n', m').

    With u = conj(c) n - n', proportionality Omega u = conj(c) m - m' gives
    u* Im(Omega) u = Im(conj c) (n.m' - n'.m), so the pairing is the area ratio
    ``cover_data(...).degree_raw``, read exactly from the integers.
    """
    effective = _cover_probe(record)  # raises unless the record has a torus cover
    return _checked_degree(_degrees(base, np.array([effective.n + effective.m], dtype=object), 1)[0])


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
    # the area ratio of the two flat metrics, which certifies cover_degree's pairing
    raw = float(np.real(u @ omega.imag_part @ np.conj(u)) / record.c_conj.imag)
    table = []
    for beta, alpha in _unit_cycles(omega.genus):
        for cycle in (alpha, beta):
            value, coords = cover_monodromy(omega, base, record, cycle)
            table.append((cycle, value, coords))
    return CoverData(u=u, degree_raw=raw, monodromy_table=tuple(table))


def cm_wedge_residual(omega: PeriodMatrix, base: LatticeCharge, probe: LatticeCharge) -> float:
    """Antisymmetrized product of the two charge images.

    Vanishes exactly when the probe is proportional to the base, making it an
    acceptance oracle independent of the ratio test.
    """
    v, vp = lattice_image(omega, base), lattice_image(omega, probe)
    # scaled below 1 by powers of two, which round exactly, so the outer product cannot overflow
    ev, evp = _exponent(v), _exponent(vp)
    outer = (v * 2.0**-ev)[:, None] * (vp * 2.0**-evp)[None, :]
    return float(np.ldexp(np.max(np.abs(outer - outer.T)), ev + evp))


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
