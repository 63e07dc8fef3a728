"""Two-point limit hulls, same-orthant hulls, membership, and distance decomposition.

A two-point hull point is a coordinatewise n-ary limit sum of
(t·x, r·x, s·y, w·y) with coefficients in [0,1] and maximum exactly 1.
Membership is decided by enumerating a finite candidate set of coefficient
breakpoints: every coordinate of a member is either 0, a scaled coordinate
of x, or a scaled coordinate of y, so the scaling factors are pinned to
ratio breakpoints (plus magnitude-tie solutions, which is where cancellation
can occur).  Completeness of that candidate set is conjectural, so a False
answer is advisory; it is cross-validated against dense grid sampling in
the test suite.

The enumeration and its pruning live in ``_certify``; only combinations
that provably fail are skipped.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from ._certify import SEARCH_STAGES, Certifier, by_value, ratio
from ._record import Record, setfield
from .errors import (
    EmptyList,
    InvalidCoefficients,
    InvalidCombination,
    NotAMember,
    OrthantViolation,
)
from .linalg import Vec, _common_rows, _vecs, nary_vec_boxplus, scale
from .metric import dist_boxplus
from .scalars import ScalarLike, _carrier, _nary

__all__ = [
    "HullCombination",
    "co_point",
    "co_contains",
    "co_orthant",
    "dist_decomposition_check",
]


class HullCombination(Record):
    """Hull coefficients (t, r, s, w) ∈ [0,1]⁴ with max = 1."""

    __slots__ = ("t", "r", "s", "w")

    def __init__(self, t: ScalarLike, r: ScalarLike, s: ScalarLike, w: ScalarLike):
        cs = (_carrier(t), _carrier(r), _carrier(s), _carrier(w))
        if any(c < 0 or c > 1 for c in cs):
            raise InvalidCombination("coefficients must lie in [0, 1]")
        if max(cs) != 1:
            raise InvalidCombination("maximum coefficient must be exactly 1")
        for name, c in zip(self.__slots__, cs):
            setfield(self, name, c)

    def as_tuple(self) -> tuple:
        return (self.t, self.r, self.s, self.w)


def co_point(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], c: HullCombination
) -> Vec:
    """The hull point with coefficients c: coordinatewise Ϝ of (t·x_i, r·x_i, s·y_i, w·y_i)."""
    xv, yv = _vecs(x, y)
    if not isinstance(c, HullCombination):
        c = HullCombination(*c)
    t, r, s, w = c.as_tuple()
    return tuple(
        _nary((t * a, r * a, s * b, w * b)) for a, b in zip(xv, yv)
    )


def _coord_feasible(zi: int, xi: int, yi: int) -> bool:
    # a hull coordinate is 0, or a [0,1]-multiple of x_i, or of y_i
    if zi == 0:
        return True
    if xi != 0 and (zi > 0) == (xi > 0) and abs(zi) <= abs(xi):
        return True
    if yi != 0 and (zi > 0) == (yi > 0) and abs(zi) <= abs(yi):
        return True
    return False


def _hull_candidates(xs: list[int], ys: list[int], zs: list[int],
                     ratio=ratio, mul=mul) -> list:
    """Coefficient breakpoints of the integer rows, as ascending canonical
    pairs: {0,1}, the |z|/|x| and |z|/|y| ratios, one round of magnitude-tie
    solutions t|x_i| = s|y_i| anchored in the base set; each at most 1.
    ``ratio`` and ``mul`` are the quotient and product of row values."""
    xs, ys, zs = ([abs(v) for v in row] for row in (xs, ys, zs))
    cand = {(0, 1), ratio(1, 1)}
    for z, a in zip(zs + zs, xs + ys):
        if a and z <= a:
            cand.add(ratio(z, a))
    # |x_i|/|y_i| as an unreduced pair, for each coordinate with both nonzero
    ties = [(a, b) for a, b in zip(xs, ys) if a and b]
    for cn, cd in list(cand):
        if cn:
            for a, b in ties:
                for n, d in ((mul(cn, a), cd * b), (mul(cn, b), cd * a)):
                    if n <= d:
                        cand.add(ratio(n, d))
    return sorted(cand, key=by_value)


def co_contains(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], z: Sequence[ScalarLike]
) -> bool:
    """Decide hull membership of z by exact candidate enumeration.

    Every quadruple over the breakpoint candidates with max = 1 is tried,
    up to the symmetries t ≥ r and s ≥ w, and verified coordinatewise in
    exact arithmetic; only quadruples that provably fail are skipped (see
    ``_certify``).
    """
    rows, _ = _common_rows(x, y, z)
    return _hull_search(rows, ratio, mul)


def _hull_search(rows: list[list[int]], ratio, mul) -> bool:
    """Hull membership of the row z against the rows x, y; ``ratio`` and
    ``mul`` are the quotient (a canonical pair) and the product of row
    values, which is all the search needs beyond their order and signs."""
    if not all(_coord_feasible(zi, xi, yi) for xi, yi, zi in zip(*rows)):
        SEARCH_STAGES["hull:infeasible"] += 1
        return False

    core = Certifier(*rows, _hull_candidates(*rows, ratio, mul), ratio=ratio, mul=mul)
    # the candidates ascend and end with 1, so max = 1 means t or s at last
    last = core.one
    if core.first_bounded((last,), range(last + 1)) is not None:
        SEARCH_STAGES["hull:t1"] += 1
        return True
    if core.first_bounded(range(last), (last,)) is not None:
        SEARCH_STAGES["hull:s1"] += 1
        return True
    SEARCH_STAGES["hull:notfound"] += 1
    return False


def co_orthant(
    points: Sequence[Sequence[ScalarLike]], coeffs: Sequence[ScalarLike]
) -> Vec:
    """Hull point of finitely many same-orthant points.

    Coefficients must lie in [0,1] with maximum exactly 1; all points must
    share one closed orthant (per coordinate, no mixed strict signs).  The
    result is the coordinatewise n-ary limit sum of the scaled points —
    which here collapses to the signed coordinatewise extremum.
    """
    pts = _vecs(*points)
    if not pts:
        raise EmptyList("no points")
    n = len(pts[0])
    ts = [_carrier(t) for t in coeffs]
    if len(ts) != len(pts):
        raise InvalidCoefficients(f"{len(ts)} coefficients for {len(pts)} points")
    if any(t < 0 or t > 1 for t in ts):
        raise InvalidCoefficients("coefficients must lie in [0, 1]")
    if max(ts) != 1:
        raise InvalidCoefficients("maximum coefficient must be exactly 1")
    for i in range(n):
        col = [p[i] for p in pts]
        if any(v > 0 for v in col) and any(v < 0 for v in col):
            raise OrthantViolation(f"coordinate {i + 1} has mixed signs")
    return nary_vec_boxplus([scale(t, p) for t, p in zip(ts, pts)])


def dist_decomposition_check(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], z: Sequence[ScalarLike]
) -> bool:
    """For a hull member z: does d(x,y) = max(d(x,z), d(z,y)) hold exactly?

    Raises NotAMember when the membership search cannot certify z.
    """
    if not co_contains(x, y, z):
        raise NotAMember("z is not a certified member of the hull of x, y")
    return dist_boxplus(x, y) == max(dist_boxplus(x, z), dist_boxplus(z, y))
