"""Domain errors shared across the package.

Every error carries a machine-readable ``code`` (the class name) and a
human-readable ``detail``; the CLI serializes them as
``{"error": code, "detail": detail}`` and exits with status 1.
"""

from __future__ import annotations

__all__ = [
    "LimitAlgebraError",
    "EmptyIndexSet",
    "EmptyList",
    "DimensionMismatch",
    "TooLarge",
    "ZeroVector",
    "DegeneratePair",
    "InvalidCombination",
    "OrthantViolation",
    "InvalidCoefficients",
    "NotAMember",
    "NegativeRadius",
    "NotOrthogonal",
    "NotRightAngled",
    "NotOnUnitSquare",
    "ZeroArgument",
    "DegenerateConfiguration",
    "NotParallel",
]

# Every p is capped: a finite-p evaluation takes an exact power x^(2p+1) and
# a root at 64 + 16(2p+1) bits (one deformed operation on 3-vectors or a 3×3
# matrix whose entries have a few bits takes 0.04-0.08 s at p = 2048 and
# about 0.5 s at p = 8192 on a 2-core Xeon, Python 3.11).  The cost grows
# with the width of the entries, which the cap does not bound: p_sum of three
# values with 1 000-bit numerators and denominators took 7.2 s at p = 2048
# (ROADMAP item 20).
MAX_P = 2048

# An SVG figure of a hull or line evaluates 512 deformed samples, so its p is
# capped lower (0.7-1.1 s at p = 256, 35-37 s at p = 2048 on the same Xeon).
MAX_FIGURE_P = 256


class LimitAlgebraError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "LimitAlgebraError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class EmptyIndexSet(LimitAlgebraError):
    """n-ary evaluation requested over an empty index set."""


class EmptyList(LimitAlgebraError):
    """An operation that needs at least one value got an empty list."""


class DimensionMismatch(LimitAlgebraError):
    """Vector/matrix dimensions do not agree."""


class TooLarge(LimitAlgebraError):
    """Input exceeds the supported size: determinants stop at n = 8, every p
    at MAX_P, the p of a hull or line figure at MAX_FIGURE_P, and a decimal
    literal's exponent at Python's int/str digit limit.  The CLI also caps
    hull samples and refuses to print a result with more digits than that
    limit."""


class ZeroVector(LimitAlgebraError):
    """A nonzero vector is required (angle denominators vanish)."""


class DegeneratePair(LimitAlgebraError):
    """Two distinct points are required (x = y)."""


class InvalidCombination(LimitAlgebraError):
    """Hull coefficients must lie in [0,1] with maximum exactly 1."""


class OrthantViolation(LimitAlgebraError):
    """Points do not share a single closed orthant."""


class InvalidCoefficients(LimitAlgebraError):
    """Coefficients fail their required exact constraint."""


class NotAMember(LimitAlgebraError):
    """The point is not (certifiably) in the required set."""


class NegativeRadius(LimitAlgebraError):
    """Ball radii must be nonnegative."""


class NotOrthogonal(LimitAlgebraError):
    """The limit inner product of the pair is nonzero."""


class NotRightAngled(LimitAlgebraError):
    """The three-point form of the triple is nonzero."""


class NotOnUnitSquare(LimitAlgebraError):
    """Angle parametrization requires max(|x1|,|x2|) = 1 exactly."""


class ZeroArgument(LimitAlgebraError):
    """The argument of zero is undefined (polar form of 0)."""


class DegenerateConfiguration(LimitAlgebraError):
    """The configuration has vanishing limit determinant."""


class NotParallel(LimitAlgebraError):
    """The two lines are not parallel (directions not collinear)."""
