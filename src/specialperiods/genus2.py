"""Constructor for special genus-2 period matrices and their charge families.

The bottom-right entry is tied to the other two by rational coefficients,
Omega_22 = N1 Omega_11 + N2 Omega_12 + N3.  Proportional charge pairs then
exist in two families indexed by the roots of N^2 - N2 N - N1, and the
natural parameters are (M, N2, N3) with N1 = M N2 + M^2, which makes the
roots N2 + M and -M rational by construction.  All membership arithmetic is
exact rational; only the final matrix entries are floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadRationality, NotInGamma
from .siegel import LatticeCharge, PeriodMatrix, charge_box, validate_period_matrix

BRANCH_PLUS = "+"
BRANCH_MINUS = "-"


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise BadRationality("pass rationals as Fraction, int, or string, not float")
    return Fraction(value)


@dataclass(frozen=True)
class Genus2Params:
    """Rational data (M, N2, N3, hat N4) plus the two free matrix entries."""

    omega11: complex
    omega12: complex
    M: Fraction
    N2: Fraction
    N3: Fraction
    N4hat: int

    def __post_init__(self):
        object.__setattr__(self, "omega11", complex(self.omega11))
        object.__setattr__(self, "omega12", complex(self.omega12))
        object.__setattr__(self, "M", _as_fraction(self.M))
        object.__setattr__(self, "N2", _as_fraction(self.N2))
        object.__setattr__(self, "N3", _as_fraction(self.N3))
        object.__setattr__(self, "N4hat", int(self.N4hat))
        if self.N4hat == 0:
            raise BadRationality("hat N4 must be a nonzero integer")
        if self.M == 0 or self.M == -self.N2:
            raise BadRationality(
                "M = 0 or M = -N2 degenerates one of the two charge families"
            )
        for name in ("N1", "N2", "N3"):
            value = getattr(self, name)
            if (value * self.N4hat).denominator != 1:
                raise BadRationality(
                    "%s = %s does not lie in Z / %d" % (name, value, self.N4hat)
                )

    @property
    def N1(self) -> Fraction:
        return self.M * self.N2 + self.M * self.M

    @property
    def N_plus(self) -> Fraction:
        return self.N2 + self.M

    @property
    def N_minus(self) -> Fraction:
        return -self.M

    @property
    def omega22(self) -> complex:
        return (
            complex(self.N1) * self.omega11
            + complex(self.N2) * self.omega12
            + complex(self.N3)
        )


def build_special_genus2(params: Genus2Params) -> PeriodMatrix:
    """Assemble and validate the tied genus-2 matrix."""
    raw = np.array(
        [[params.omega11, params.omega12], [params.omega12, params.omega22]],
        dtype=complex,
    )
    return validate_period_matrix(raw)


def gamma_complete(params: Genus2Params, branch: str, n1: int, m1: int) -> LatticeCharge:
    """Complete a genus-one seed (n1, m1) to the full genus-2 charge.

    Raises NotInGamma when the completion is not integral, i.e. the seed is
    not a member of the requested family.
    """
    n1, m1 = int(n1), int(m1)
    M, N2, N3 = params.M, params.N2, params.N3
    if branch == BRANCH_PLUS:
        n2 = Fraction(n1) / M
        m2 = (N2 + M) * m1 + N3 * Fraction(n1) / M
    elif branch == BRANCH_MINUS:
        n2 = -Fraction(n1) / (N2 + M)
        m2 = -M * m1 - N3 * Fraction(n1) / (N2 + M)
    else:
        raise ValueError("branch must be '+' or '-'")
    if n2.denominator != 1 or m2.denominator != 1:
        raise NotInGamma(
            "seed (%d, %d) has no integral completion on branch %s" % (n1, m1, branch)
        )
    return LatticeCharge((n1, int(n2)), (m1, int(m2)))


def gamma_members(params: Genus2Params, branch: str, bound: int) -> list:
    """Nonzero family members with |n1|, |m1| <= bound, in lexicographic order."""
    members = []
    for n1, m1 in charge_box(2, bound).tolist():
        if n1 == 0 and m1 == 0:
            continue
        try:
            members.append((n1, m1, gamma_complete(params, branch, n1, m1)))
        except NotInGamma:
            continue
    return members
