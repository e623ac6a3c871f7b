"""Exception types shared across the package."""


class SpecialPeriodsError(Exception):
    """Base class for all errors raised by this package."""


class AsymmetryError(SpecialPeriodsError):
    """Input matrix is not symmetric within the requested tolerance."""


class NotPositiveDefinite(SpecialPeriodsError):
    """Imaginary part of the matrix is not positive definite."""


class DomainError(SpecialPeriodsError):
    """A modulus left the upper half plane, or a similar domain violation."""


class DegenerateCharge(SpecialPeriodsError):
    """The zero charge was used where a nonzero one is required."""


class DegenerateBase(SpecialPeriodsError):
    """Some component of the base charge image vanishes; ratios are undefined."""


class NotASolution(SpecialPeriodsError):
    """The probe charge is not proportional to the base within tolerance."""


class LatticeDefect(SpecialPeriodsError):
    """A cover period failed to land on the expected lattice point."""


class NotIntegralDegree(SpecialPeriodsError):
    """The record has no torus cover, or its covering degree is not positive."""


class NotInGamma(SpecialPeriodsError):
    """A genus-one seed point does not admit an integral completion."""


class BadRationality(SpecialPeriodsError):
    """Constructor rationals violate the required divisibility constraints."""


class ParseError(SpecialPeriodsError):
    """Malformed input file or literal; carries a line number when available."""
