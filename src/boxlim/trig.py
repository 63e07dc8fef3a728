"""Limit orthogonality and the trigonometry of the unit square.

The three-point inner form decides right angles in the limit algebra; for
orthogonal pairs it comes with an explicit cancellation pairing and an exact
Pythagorean identity.  Angles live on the boundary of the sup-norm unit
square, parameterized by a period-8 piecewise-linear coordinate with its own
cosine and sine.
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
from .linalg import Vec, _common_rows, _vecs, det_infty, inner_infty, norm_infty, vec
from .metric import dist_boxplus
from .scalars import ONE, ScalarLike, ScalarQ, _Q, _from_pair, _nary, _pair

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


def _reduce8(theta: ScalarLike) -> ScalarQ:
    """θ − 8·⌊θ/8⌋ over the integers: for θ = n/d, n mod 8d over d, which
    needs no gcd because gcd(n mod 8d, d) = gcd(n, d) = 1."""
    n, d = _pair(theta)
    r = n % (8 * d)
    return theta if r == n and type(theta) is _Q else _from_pair(r, d)


def pcos(theta: ScalarLike) -> ScalarQ:
    """Period-8 piecewise-linear cosine of the square."""
    return _cos8(_reduce8(theta))


def psin(theta: ScalarLike) -> ScalarQ:
    """Period-8 piecewise-linear sine of the square."""
    return _sin8(_reduce8(theta))


def _cos8(t: ScalarQ) -> ScalarQ:
    """``pcos`` of a t already reduced into [0, 8)."""
    if t < 1:
        return ONE
    if t < 3:
        return 2 - t
    if t < 5:
        return -ONE
    if t < 7:
        return t - 6
    return ONE


def _sin8(t: ScalarQ) -> ScalarQ:
    """``psin`` of a t already reduced into [0, 8)."""
    if t < 1:
        return t
    if t < 3:
        return ONE
    if t < 5:
        return 4 - t
    if t < 7:
        return -ONE
    return t - 8


def alpha(z: Sequence[ScalarLike]) -> AngleParam:
    """Angle of a point on the unit-square boundary (max(|z₁|, |z₂|) = 1)."""
    zv = vec(z)
    if len(zv) != 2:
        raise DimensionMismatch("angles live in dimension 2")
    z1, z2 = zv
    if max(abs(z1), abs(z2)) != 1:
        raise NotOnUnitSquare("point is not on the unit-square boundary")
    if z1 == 1 and 0 <= z2 <= 1:
        return AngleParam(z2)
    if z2 == 1:
        return AngleParam(2 - z1)
    if z1 == -1:
        return AngleParam(4 - z2)
    if z2 == -1:
        return AngleParam(6 + z1)
    # remaining: z1 == 1 with -1 < z2 < 0
    return AngleParam(8 + z2)


def alpha_inv(theta) -> Vec:
    """Inverse angle map: the boundary point (pcos θ, psin θ), θ reduced once."""
    t = theta.theta if isinstance(theta, AngleParam) else _reduce8(theta)
    return (_cos8(t), _sin8(t))
