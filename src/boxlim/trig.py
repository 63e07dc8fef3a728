"""Limit orthogonality and the trigonometry of the unit square.

The three-point inner form decides right angles in the limit algebra; for
orthogonal pairs it comes with an explicit cancellation pairing and an exact
Pythagorean identity.  Angles live on the boundary of the sup-norm unit
square, parameterized by a period-8 piecewise-linear coordinate with its own
cosine and sine.  The angle maps run on canonical ``(numerator,
denominator)`` pairs: θ is reduced once, one segment table gives both
cosine and sine, and a carrier is built only for a returned value.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record, setfield
from .errors import (
    DimensionMismatch,
    NotOnUnitSquare,
    NotOrthogonal,
    NotRightAngled,
    ZeroVector,
)
from .linalg import Vec, _common_rows, _pair_rows, _vecs, det_infty, inner_infty, norm_infty
from .metric import dist_boxplus
from .scalars import ScalarLike, ScalarQ, _Q, _from_pair, _nary, _pair

_new = object.__new__

__all__ = [
    "AngleParam",
    "OrthogonalPartition",
    "inner3_limit",
    "is_f_right_angled",
    "orthogonal_pairing",
    "pythagoras_check",
    "cos_infty",
    "sin_infty",
    "alpha",
    "alpha_inv",
    "pcos",
    "psin",
]


def inner3_limit(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], z: Sequence[ScalarLike]
) -> ScalarQ:
    """Three-point inner form: the limit sum of the 4n-term multiset
    {x_i y_i} ∪ {−x_i z_i} ∪ {−y_i z_i} ∪ {z_i²}."""
    xv, yv, zv = _vecs(x, y, z)
    terms = []
    for a, b, c in zip(xv, yv, zv):
        terms.append(a * b)
        terms.append(-a * c)
        terms.append(-b * c)
        terms.append(c * c)
    return _nary(terms)


def is_f_right_angled(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], z: Sequence[ScalarLike]
) -> bool:
    """True iff the triangle [x, y, z] has a limit right angle at z."""
    return inner3_limit(x, y, z) == 0


class OrthogonalPartition(Record):
    """Index pairs (1-based) whose products cancel exactly, plus at most one
    leftover index whose product is 0."""

    __slots__ = ("pairs", "leftover")
    _defaults = (None,)


def orthogonal_pairing(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike]
) -> OrthogonalPartition:
    """Explicit cancellation witness for ⟨x, y⟩∞ = 0.

    Zero limit sum forces the signed products to cancel pairwise within
    each magnitude level, so a perfect matching of opposite-sign products
    exists (zero products pair among themselves, at most one left over).
    Deterministic: indices are matched in increasing order per level.
    """
    xv, yv = _vecs(x, y)
    if inner_infty(xv, yv) != 0:
        raise NotOrthogonal("inner product is nonzero")
    products = [a * b for a, b in zip(xv, yv)]
    levels: dict = {}
    zeros = []
    for i, p in enumerate(products, start=1):
        if p == 0:
            zeros.append(i)
        else:
            levels.setdefault(abs(p), ([], []))[0 if p > 0 else 1].append(i)
    pairs = []
    for mag in sorted(levels, reverse=True):
        pos, neg = levels[mag]
        if len(pos) != len(neg):
            # unreachable when the limit sum is 0: the top unbalanced level
            # would survive cancellation
            raise NotOrthogonal(f"unbalanced level {mag}")
        pairs.extend(zip(pos, neg))
    while len(zeros) >= 2:
        pairs.append((zeros.pop(0), zeros.pop(0)))
    leftover = zeros[0] if zeros else None
    return OrthogonalPartition(tuple(tuple(p) for p in pairs), leftover)


def pythagoras_check(
    x: Sequence[ScalarLike],
    y: Sequence[ScalarLike],
    z: Sequence[ScalarLike],
    p_grid: Sequence[int] | None = None,
) -> bool:
    """Pythagorean identity for a limit right angle at z.

    Exact part: d(x, y) = max(d(x, z), d(y, z)) in the limit ultrametric.
    Deformed part: at each p, with k = 2p+1, S_xy = S_xz + S_yz for the
    squared deformed distances S_uv = Σ (u_i^k − v_i^k)², compared exactly
    on integer rows.  It holds at every p: S_xy − S_xz − S_yz = −2 Σ m^k
    over the multiset m of ``inner3_limit``, whose Ϝ = 0 cancels every
    magnitude level, so each odd power sum of it is 0.  No root is taken,
    so there is no tolerance.  The grid (default DEFAULT_P_GRID) passes
    deform's gate, which before any work raises ValueError for an empty grid
    or a p that is not an int ≥ 0, and TooLarge if a p exceeds MAX_P.
    """
    # not at module level: deform imports this module for its limits
    from .deform import _settings

    p_grid, _ = _settings(p_grid, None)
    xv, yv, zv = _vecs(x, y, z)
    if not is_f_right_angled(xv, yv, zv):
        raise NotRightAngled("no limit right angle at z")
    lhs = dist_boxplus(xv, yv)
    rhs = max(dist_boxplus(xv, zv), dist_boxplus(yv, zv))
    if lhs != rhs:
        return False
    # one common scale f, which cancels: each S_uv is an integer over f^(2k)
    (a, b, c), _ = _common_rows(xv, yv, zv)
    for p in p_grid:
        k = 2 * p + 1
        ak, bk, ck = [v**k for v in a], [v**k for v in b], [v**k for v in c]
        s_xy = sum((s - t) ** 2 for s, t in zip(ak, bk))
        s_xz = sum((s - t) ** 2 for s, t in zip(ak, ck))
        s_yz = sum((s - t) ** 2 for s, t in zip(bk, ck))
        if s_xy != s_xz + s_yz:
            return False
    return True


def cos_infty(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> ScalarQ:
    """Limit cosine: ⟨x, y⟩∞ / (‖x‖∞ ‖y‖∞), an exact rational in [−1, 1]."""
    xv, yv = _vecs(x, y)
    nx, ny = norm_infty(xv), norm_infty(yv)
    if nx == 0 or ny == 0:
        raise ZeroVector("cosine needs nonzero vectors")
    return inner_infty(xv, yv) / (nx * ny)


def sin_infty(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> ScalarQ:
    """Limit sine in dimension 2: |x, y|∞ / (‖x‖∞ ‖y‖∞) with x, y as columns."""
    xv, yv = _vecs(x, y)
    if len(xv) != 2:
        raise DimensionMismatch("limit sine lives in dimension 2")
    nx, ny = norm_infty(xv), norm_infty(yv)
    if nx == 0 or ny == 0:
        raise ZeroVector("sine needs nonzero vectors")
    d = det_infty(((xv[0], yv[0]), (xv[1], yv[1])))
    return d / (nx * ny)


# ---------------------------------------------------------------------------
# the unit-square angle coordinate


class AngleParam(Record):
    """Angle coordinate on the unit-square boundary, reduced into [0, 8)."""

    __slots__ = ("theta",)

    def __init__(self, theta: ScalarLike):
        setfield(self, "theta", _reduce8(theta))


def _angle(theta: ScalarQ) -> AngleParam:
    """An AngleParam from a carrier already in [0, 8), stored as it is."""
    a = _new(AngleParam)
    setfield(a, "theta", theta)
    return a


def _reduced(theta: ScalarLike) -> tuple[int, int]:
    """θ − 8·⌊θ/8⌋ over the integers: for θ = n/d, n mod 8d over d, which
    needs no gcd because gcd(n mod 8d, d) = gcd(n, d) = 1."""
    n, d = _pair(theta)
    return n % (8 * d), d


def _reduce8(theta: ScalarLike) -> ScalarQ:
    """θ − 8·⌊θ/8⌋ as the carrier; θ itself when it is a carrier in [0, 8)."""
    n, d = _reduced(theta)
    return theta if type(theta) is _Q and n == theta.numerator else _from_pair(n, d)


def _segment(n: int, d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The canonical (cos, sin) pairs of the square at t = n/d, a canonical
    pair with 0 ≤ n < 8d.  Each side of the square is one segment of length
    2 in t; every value is ±1 or k ± t, and gcd(kd ± n, d) = gcd(n, d) = 1."""
    if n < d:
        return (1, 1), (n, d)
    if n < 3 * d:
        return (2 * d - n, d), (1, 1)
    if n < 5 * d:
        return (-1, 1), (4 * d - n, d)
    if n < 7 * d:
        return (n - 6 * d, d), (-1, 1)
    return (1, 1), (n - 8 * d, d)


def _segment_of(theta) -> tuple[tuple[int, int], tuple[int, int]]:
    """``_segment`` at an AngleParam's angle or at a scalar θ, reduced once."""
    return _segment(*_reduced(theta.theta if isinstance(theta, AngleParam) else theta))


def pcos(theta: ScalarLike) -> ScalarQ:
    """Period-8 piecewise-linear cosine of the square."""
    return _from_pair(*_segment(*_reduced(theta))[0])


def psin(theta: ScalarLike) -> ScalarQ:
    """Period-8 piecewise-linear sine of the square."""
    return _from_pair(*_segment(*_reduced(theta))[1])


def _boundary_angle(un: int, ud: int, vn: int, vd: int) -> ScalarQ:
    """The angle in [0, 8) of a point (u, v) of the unit-square boundary,
    from canonical pairs; each side's formula is already in [0, 8) and
    canonical, as in ``_segment``."""
    if un == ud == 1 and vn >= 0:
        return _from_pair(vn, vd)  # v
    if vn == vd == 1:
        return _from_pair(2 * ud - un, ud)  # 2 − u
    if un == -1 and ud == 1:
        return _from_pair(4 * vd - vn, vd)  # 4 − v
    if vn == -1 and vd == 1:
        return _from_pair(6 * ud + un, ud)  # 6 + u
    # remaining: u = 1 with -1 < v < 0
    return _from_pair(8 * vd + vn, vd)  # 8 + v


def alpha(z: Sequence[ScalarLike]) -> AngleParam:
    """Angle of a point on the unit-square boundary (max(|z₁|, |z₂|) = 1)."""
    (zp,) = _pair_rows((z,), False)
    if len(zp) != 2:
        raise DimensionMismatch("angles live in dimension 2")
    (un, ud), (vn, vd) = zp
    # max(|u|, |v|) = 1: one coordinate is ±1 and the other is at most 1
    if not ((ud == 1 and (un == 1 or un == -1) and -vd <= vn <= vd)
            or (vd == 1 and (vn == 1 or vn == -1) and -ud <= un <= ud)):
        raise NotOnUnitSquare("point is not on the unit-square boundary")
    return _angle(_boundary_angle(un, ud, vn, vd))


def alpha_inv(theta) -> Vec:
    """Inverse angle map: the boundary point (pcos θ, psin θ), θ reduced once."""
    c, s = _segment_of(theta)
    return (_from_pair(*c), _from_pair(*s))
