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


def ratio_matrix(omega: PeriodMatrix, base: LatticeCharge) -> np.ndarray:
    """The h x h array N_ij = v_i / v_j of the base charge's image v."""
    v = base_image(omega, base)
    return v[:, None] / v[None, :]


def cocycle_residual(ratios: np.ndarray) -> float:
    """Worst violation of N_ij N_jk = N_ik over all index triples."""
    products = ratios[:, :, None] * ratios[None, :, :]
    return float(np.max(np.abs(products - ratios[:, None, :])))


def reciprocal_residual(ratios: np.ndarray) -> float:
    """Worst violation of N_ij N_ji = 1."""
    return float(np.max(np.abs(ratios * ratios.T - 1.0)))


@dataclass(frozen=True, eq=False)
class AnsatzTensors:
    """Rational tensors (N4, M2) of shapes h^4 and h^2.

    Any nested sequences of rationals are accepted; both are held as
    read-only object arrays of Fractions.
    """

    N4: np.ndarray
    M2: np.ndarray

    def __post_init__(self):
        n4 = np.array(self.N4, dtype=object)
        m2 = np.array(self.M2, dtype=object)
        # checked before the conversion, so a ragged or wrong-depth input is a
        # ValueError rather than Fraction's TypeError on a nested list
        if n4.ndim != 4 or m2.ndim != 2 or len(set(n4.shape + m2.shape)) != 1:
            raise ValueError("tensor shapes must be h^4 and h^2 for one common h")
        for name, data in (("N4", n4), ("M2", m2)):
            data = np.frompyfunc(Fraction, 1, 1)(data)
            data.setflags(write=False)
            object.__setattr__(self, name, data)

    @property
    def genus(self) -> int:
        return self.M2.shape[0]


def identity_ansatz(h: int) -> AnsatzTensors:
    """The delta-pattern solution: N[i][k][j][l] = delta_kl, M = 0."""
    delta_kl = np.eye(h, dtype=int)[None, :, None, :]
    return AnsatzTensors(N4=np.broadcast_to(delta_kl, (h,) * 4), M2=np.zeros((h, h), dtype=int))


def verify_ansatz_tensors(tensors: AnsatzTensors):
    """Exact residuals of the two substitution-consistency identities.

    Returns (cocycle residual, annihilation residual) as Fractions: the worst
    violation of sum_l N[i][k][j][l] N[j][l][n][m] = N[i][k][n][m], and of
    sum_l N[i][k][j][l] M[j][l] = 0.
    """
    n4, m2 = tensors.N4, tensors.M2
    # j stays free in both contractions: only l is summed
    chained = np.einsum("ikjl,jlnm->ikjnm", n4, n4)
    annihilated = np.einsum("ikjl,jl->ikj", n4, m2)
    return np.max(np.abs(chained - n4[:, :, None, :, :])), np.max(np.abs(annihilated))


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
                n4 = np.zeros((h,) * 4, dtype=object)
                m2 = np.zeros((h, h), dtype=object)
            elif len(tokens) in (5, 3):
                if h is None:
                    raise ValueError("missing 'h' header")
                *fields, value = tokens
                index = tuple(int(t) - 1 for t in fields)
                if not all(0 <= i < h for i in index):
                    raise ValueError("indices must be between 1 and %d" % h)
                (n4 if len(index) == 4 else m2)[index] = Fraction(value)
            else:
                raise ValueError("expected 5 fields (N4) or 3 fields (M2)")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("line %d: %s" % (lineno, exc)) from exc
    if h is None:
        raise ParseError("no 'h' header found")
    return AnsatzTensors(N4=n4, M2=m2)
