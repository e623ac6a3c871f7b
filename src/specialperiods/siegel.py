"""Period matrices, integer charge vectors, and the genus-one modular action.

A point of the moduli space is a symmetric complex h x h matrix whose
imaginary part is positive definite.  Integer data comes in two flavours:
charges (n, m) labelling differentials, and cycle pairs (q, p) labelling
homology classes p.alpha + q.beta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, DomainError, NotPositiveDefinite

DEFAULT_SYMMETRY_TOL = 1e-10
_INVERSE_TOL = 1e-12
# Rows per block of the streamed charge box: scan memory is bounded by this,
# whatever the bound.
BLOCK_ROWS = 1 << 14


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


def validate_period_matrix(raw, tol: float = DEFAULT_SYMMETRY_TOL) -> PeriodMatrix:
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
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    asym = np.max(np.abs(raw - raw.T))
    if asym > tol:
        raise AsymmetryError(
            "matrix is asymmetric: max |A - A^T| = %.3e > %.3e" % (asym, tol)
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


def box_blocks(dim: int, bound: int):
    """The box [-bound, bound]^dim as blocks of at most BLOCK_ROWS rows.

    Yields the blocks in lexicographic order.  Each block fixes the leading
    ``dim - k`` coordinates and runs over ``charge_box(k, bound)`` in the
    rest, with k the largest value such that ``(2 bound + 1)^k <=
    BLOCK_ROWS``, and at least 1; the blocks concatenate to
    ``charge_box(dim, bound)``, so the zero row is the middle row of the
    middle block.  Callers drop it with the mask ``rows.any(axis=1)``.
    """
    width = 2 * bound + 1
    k = 1
    while k < dim and width ** (k + 1) <= BLOCK_ROWS:
        k += 1
    tail = charge_box(k, bound)
    for prefix in itertools.product(range(-bound, bound + 1), repeat=dim - k):
        rows = np.empty((len(tail), dim), dtype=np.int64)
        rows[:, : dim - k] = prefix
        rows[:, dim - k :] = tail
        yield rows


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


def checked_modulus(tau: complex) -> complex:
    """``tau`` as a complex number; DomainError unless finite with Im tau > 0."""
    tau = complex(tau)
    if not (np.isfinite(tau) and tau.imag > 0):
        raise DomainError("modulus must be finite with positive imaginary part, got %r" % tau)
    return tau


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
