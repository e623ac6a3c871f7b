"""Period matrices, integer charge vectors, and the integer points of boxes.

A point of the moduli space is a symmetric complex h x h matrix whose
imaginary part is positive definite.  Integer data comes in two flavours:
charges (n, m) labelling differentials, and cycle pairs (q, p) labelling
homology classes p.alpha + q.beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, DomainError, NotPositiveDefinite

_SYMMETRY_TOL = 1e-10
_INVERSE_TOL = 1e-12


def _int_tuple(values) -> tuple:
    if type(values) is tuple and all(type(x) is int for x in values):
        return values
    arr = np.asarray(values)
    out = tuple(int(x) for x in arr.ravel())
    if np.any(np.asarray(out, dtype=float) != np.asarray(arr, dtype=float).ravel()):
        raise ValueError("entries must be exact integers, got %r" % (values,))
    return out


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Validated symmetric matrix with positive definite imaginary part.

    Instances are immutable; the entry arrays are marked read-only.  Use
    :func:`validate_period_matrix` (or :meth:`from_tau`) to construct one.
    """

    entries: np.ndarray
    imag_inverse: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.imag_inverse.setflags(write=False)

    @property
    def genus(self) -> int:
        return self.entries.shape[0]

    @property
    def real_part(self) -> np.ndarray:
        return self.entries.real

    @property
    def imag_part(self) -> np.ndarray:
        return self.entries.imag

    @property
    def tau(self) -> complex:
        """The single modulus, for genus one only."""
        if self.genus != 1:
            raise DomainError("tau is only defined at genus one")
        return complex(self.entries[0, 0])

    @classmethod
    def from_tau(cls, tau: complex) -> "PeriodMatrix":
        return validate_period_matrix(np.array([[tau]], dtype=complex))

    def __repr__(self):
        return "PeriodMatrix(genus=%d)" % self.genus


def validate_period_matrix(raw) -> PeriodMatrix:
    """Symmetrize and validate a raw complex matrix.

    The stored matrix is the exact symmetrization (raw + raw.T) / 2, so that
    downstream identities can rely on exact symmetry.  Every entry must be
    finite, before and after symmetrization.  Positive definiteness of the imaginary part is tested through
    its symmetric eigenvalues.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] < 1:
        raise ValueError("expected a square matrix, got shape %r" % (raw.shape,))
    if not np.all(np.isfinite(raw)):
        raise DomainError("matrix has a non-finite (NaN or infinite) entry")
    asym = np.max(np.abs(raw - raw.T))
    if asym > _SYMMETRY_TOL:
        raise AsymmetryError(
            "matrix is asymmetric: max |A - A^T| = %.3e > %.3e" % (asym, _SYMMETRY_TOL)
        )
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (raw + raw.T) / 2
    if not np.all(np.isfinite(sym)):
        raise DomainError("matrix overflows when symmetrized")
    imag = sym.imag.copy()
    eigs = np.linalg.eigvalsh(imag)
    if not eigs[0] > 0:
        raise NotPositiveDefinite(
            "imaginary part is not positive definite (min eigenvalue %.3e)" % eigs[0]
        )
    inverse = np.linalg.inv(imag)
    defect = np.max(np.abs(imag @ inverse - np.eye(imag.shape[0])))
    if not defect <= _INVERSE_TOL:
        raise NotPositiveDefinite(
            "imaginary part is too ill-conditioned to invert (defect %.3e)" % defect
        )
    return PeriodMatrix(entries=sym, imag_inverse=inverse)


def charge_box(dim: int, bound: int) -> np.ndarray:
    """All integer points of [-bound, bound]^dim in lexicographic order.

    ``dim`` 0 gives the one empty row.  The zero row is the middle row.
    """
    width = 2 * bound + 1
    return np.indices((width,) * dim, dtype=np.int64).reshape(dim, width**dim).T - bound


def ellipsoid_points(gram, centres, radii, bound: int):
    """Integer points near ellipsoids, clipped to the box [-bound, bound]^d.

    A bound past 2^52 is taken as 2^52: floats hold every integer only up to
    2^53, and the points reach every form as floats.  For each centre c (a row of ``centres``) and radius r, lists every integer x
    of the box whose form (x - c) gram (x - c), exact or computed in floating
    point from x - c rounded once per entry, is at most r.  The list may hold a
    few more points.  Returns (owner, points): the index of each point's centre
    and the points as int64 rows.
    Fincke and Pohst (Math. Comp. 44, 1985) over the Cholesky factor, last
    coordinate first; the cost follows the number of points, not the bound.
    Raises DomainError when ``gram`` is too ill-conditioned to bound the rounding.
    """
    gram = (gram + gram.T) / 2
    d = len(gram)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    # Rounding.  Let D = diag(gram)^(1/2) and lam a lower bound on the smallest eigenvalue
    # of H = D^-1 gram D^-1 (eigvalsh is backward stable and H rounds entrywise, so 2 d^2
    # eps covers both).  For every y, |y|^T |gram| |y| <= d |Dy|^2 <= (d / lam) y gram y;
    # this is the conditioning factor of every bound below, and none depends on the bound.
    # A form computed from y rounded once per entry is within (d + 3) eps/2 |y| |gram| |y|
    # of the exact one (Higham, Accuracy and Stability of Numerical Algorithms, 3.5).  The
    # factor R is exact for gram + dG, |dG| <= (d + 1) eps/2 |R^T| |R| (Higham, Theorem
    # 10.3), and succeeds when lam >= 10 d^2.5 eps (Theorem 10.7).  Each step forms
    # t_i = R_ii y_i + sum_{j>i} R_ij y_j and the interval of x_i from rounded sums and one
    # division each; as |R_ij| <= D_j (1 + d eps), every computed t_i is within (d + 5) eps
    # sqrt(d r / lam) of the exact one, and the vector of errors within d times that.  So
    # 8 (d + 2)^2 eps / lam, with room for second-order terms, lifts every point's running
    # sum under the radius, and nextafter rounds the interval ends outward.  Underflow adds
    # at most eps tiny per operation, which d tiny covers.  The guard below implies Theorem
    # 10.7's condition.
    scale = np.sqrt(np.abs(np.diag(gram)))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = gram / scale[:, None] / scale[None, :]
    lam = np.linalg.eigvalsh(scaled)[0] - 2 * d * d * eps if np.isfinite(scaled).all() else 0.0
    if not lam >= 16 * (d + 2) ** 3 * eps:
        raise DomainError("quadratic form too ill-conditioned to enumerate its points")
    factor = np.linalg.cholesky(gram).T
    # the clipped interval ends +-(bound + 1) stay exact floats
    bound = float(min(bound, int(1 / eps)))
    rest = np.asarray(radii, dtype=float) * (1 + 8 * (d + 2) ** 2 * eps / lam) + d * tiny
    owner = np.arange(len(centres))
    points = np.empty((len(centres), 0), dtype=np.int64)
    for i in reversed(range(d)):
        c = centres[owner]
        partial = (points - c[:, i + 1 :]) @ factor[i, i + 1 :]
        width = np.sqrt(np.maximum(rest, 0))
        low = np.nextafter(c[:, i] + np.nextafter((-partial - width) / factor[i, i], -np.inf), -np.inf)
        high = np.nextafter(c[:, i] + np.nextafter((-partial + width) / factor[i, i], np.inf), np.inf)
        lo = np.clip(np.ceil(low), -bound, bound + 1)
        counts = (np.maximum(np.clip(np.floor(high), -bound - 1, bound) - lo + 1, 0)).astype(np.int64)
        # repeat each partial point once per integer of its interval, then offset
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        x = np.repeat(lo.astype(np.int64), counts) + offsets
        owner, partial, rest = (np.repeat(a, counts, axis=0) for a in (owner, partial, rest))
        points = np.column_stack([x, np.repeat(points, counts, axis=0)])
        rest = rest - (factor[i, i] * (x - centres[owner, i]) + partial) ** 2
    return owner, points


def random_siegel_point(h: int, seed: int) -> PeriodMatrix:
    """Deterministic pseudo-random point with comfortably positive imaginary part.

    The imaginary part is A^T A + h * I for a standard normal A, so its
    eigenvalues are at least h and validation can never fail.
    """
    if h < 1:
        raise ValueError("genus must be at least 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((h, h))
    imag = a.T @ a + h * np.eye(h)
    s = rng.standard_normal((h, h))
    real = (s + s.T) / 2
    return validate_period_matrix(real + 1j * imag)


@dataclass(frozen=True)
class LatticeCharge:
    """Integer vector pair (n, m) labelling a primitive differential."""

    n: tuple
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _int_tuple(self.n))
        object.__setattr__(self, "m", _int_tuple(self.m))
        if len(self.n) != len(self.m):
            raise ValueError("n and m must have the same length")

    @property
    def genus(self) -> int:
        return len(self.n)

    @property
    def is_zero(self) -> bool:
        """The zero charge labels the zero differential and is degenerate."""
        return not any(self.n) and not any(self.m)

    @property
    def n_vec(self) -> np.ndarray:
        return np.asarray(self.n, dtype=float)

    @property
    def m_vec(self) -> np.ndarray:
        return np.asarray(self.m, dtype=float)

    def __neg__(self) -> "LatticeCharge":
        return LatticeCharge(tuple(-x for x in self.n), tuple(-x for x in self.m))


@dataclass(frozen=True)
class CyclePair:
    """Integer vector pair (q, p) labelling the homology class p.alpha + q.beta."""

    q: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", _int_tuple(self.q))
        object.__setattr__(self, "p", _int_tuple(self.p))
        if len(self.q) != len(self.p):
            raise ValueError("q and p must have the same length")

    @property
    def genus(self) -> int:
        return len(self.q)

    @property
    def q_vec(self) -> np.ndarray:
        return np.asarray(self.q, dtype=float)

    @property
    def p_vec(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)


def checked_modulus(tau: complex) -> complex:
    """``tau`` as a complex number; DomainError unless finite with Im tau > 0."""
    tau = complex(tau)
    if not (np.isfinite(tau) and tau.imag > 0):
        raise DomainError("modulus must be finite with positive imaginary part, got %r" % tau)
    return tau
