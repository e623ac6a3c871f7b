"""Higher-genus ratio matrices and exact verification of structured ansatz tensors.

For a base charge with image v the ratio matrix N_ij = v_i / v_j is rank one,
multiplicative along index chains, and shared by every proportional probe.
The structured ansatz replaces matrix entries of the period matrix by rational
combinations of one row; its consistency conditions are exact rational tensor
identities and are verified in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .siegel import LatticeCharge, PeriodMatrix
from .special import base_image


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """Componentwise ratio matrix of one charge image."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def genus(self) -> int:
        return self.entries.shape[0]

    def cocycle_residual(self) -> float:
        """Worst violation of N_ij N_jk = N_ik over all index triples."""
        n = self.entries
        products = n[:, :, None] * n[None, :, :]
        return float(np.max(np.abs(products - n[:, None, :])))

    def reciprocal_residual(self) -> float:
        """Worst violation of N_ij N_ji = 1."""
        return float(np.max(np.abs(self.entries * self.entries.T - 1.0)))

    def smallest_singular_value(self) -> float:
        return float(np.linalg.svd(self.entries, compute_uv=False)[-1])


def ratio_matrix(omega: PeriodMatrix, base: LatticeCharge) -> RatioMatrix:
    v = base_image(omega, base)
    return RatioMatrix(entries=v[:, None] / v[None, :])


def _nested_tuple(data, depth):
    if depth == 0:
        return Fraction(data)
    return tuple(_nested_tuple(item, depth - 1) for item in data)


@dataclass(frozen=True)
class AnsatzTensors:
    """Rational tensors (N4, M2) of shapes h^4 and h^2."""

    N4: tuple
    M2: tuple

    def __post_init__(self):
        object.__setattr__(self, "N4", _nested_tuple(self.N4, 4))
        object.__setattr__(self, "M2", _nested_tuple(self.M2, 2))
        h = len(self.M2)
        ok = len(self.N4) == h and all(
            len(a) == h and all(len(b) == h and all(len(c) == h for c in b) for b in a)
            for a in self.N4
        )
        ok = ok and all(len(row) == h for row in self.M2)
        if not ok:
            raise ValueError("tensor shapes must be h^4 and h^2 for one common h")

    @property
    def genus(self) -> int:
        return len(self.M2)


def identity_ansatz(h: int) -> AnsatzTensors:
    """The delta-pattern solution: N[i][k][j][l] = delta_kl, M = 0."""
    n4 = [
        [[[Fraction(int(k == l)) for l in range(h)] for j in range(h)] for k in range(h)]
        for i in range(h)
    ]
    m2 = [[Fraction(0)] * h for _ in range(h)]
    return AnsatzTensors(N4=n4, M2=m2)


def verify_ansatz_tensors(tensors: AnsatzTensors):
    """Exact residuals of the two substitution-consistency identities.

    Returns (cocycle residual, annihilation residual) as Fractions: the worst
    violation of sum_l N[i][k][j][l] N[j][l][n][m] = N[i][k][n][m], and of
    sum_l N[i][k][j][l] M[j][l] = 0.
    """
    n4, m2 = tensors.N4, tensors.M2
    h = tensors.genus
    idx = range(h)
    worst_cocycle = Fraction(0)
    for i in idx:
        for k in idx:
            for j in idx:
                for n in idx:
                    for m in idx:
                        total = sum((n4[i][k][j][l] * n4[j][l][n][m] for l in idx), Fraction(0))
                        worst_cocycle = max(worst_cocycle, abs(total - n4[i][k][n][m]))
    worst_m = Fraction(0)
    for i in idx:
        for k in idx:
            for j in idx:
                total = sum((n4[i][k][j][l] * m2[j][l] for l in idx), Fraction(0))
                worst_m = max(worst_m, abs(total))
    return worst_cocycle, worst_m


def parse_tensor_file(text: str) -> AnsatzTensors:
    """Read tensors from the line format 'h <int>', then 'i k j l value' rows
    for N4 and 'i k value' rows for M2 (indices 1-based, rationals as p/q)."""
    h = None
    n4 = None
    m2 = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "h":
                if h is not None:
                    raise ValueError("repeated 'h' header")
                if len(tokens) != 2:
                    raise ValueError("header must be 'h <int>'")
                h = int(tokens[1])
                if h < 1:
                    raise ValueError("h must be positive")
                n4 = [
                    [[[Fraction(0)] * h for _ in range(h)] for _ in range(h)]
                    for _ in range(h)
                ]
                m2 = [[Fraction(0)] * h for _ in range(h)]
            elif len(tokens) in (5, 3):
                if h is None:
                    raise ValueError("missing 'h' header")
                *idx, value = tokens
                idx = [int(t) - 1 for t in idx]
                if not all(0 <= i < h for i in idx):
                    raise ValueError("indices must be between 1 and %d" % h)
                target = n4 if len(idx) == 4 else m2
                for i in idx[:-1]:
                    target = target[i]
                target[idx[-1]] = Fraction(value)
            else:
                raise ValueError("expected 5 fields (N4) or 3 fields (M2)")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("line %d: %s" % (lineno, exc)) from exc
    if h is None:
        raise ParseError("no 'h' header found")
    return AnsatzTensors(N4=n4, M2=m2)
