"""The limit distance d⊞, its ultrametric laws, ball geometry, and Ϝ-convergence.

d⊞(x,y) = max_i |x_i ⊟ y_i| has the closed form: 0 when x = y, otherwise the
largest of max(|x_i|, |y_i|) over the coordinates where x and y disagree.
Closed balls decompose coordinatewise: a coordinate with |center_k| > radius
is pinned exactly to the center value, every other coordinate is free within
[−radius, radius].
"""

from __future__ import annotations

from typing import Sequence, Union

from ._record import Record
from .errors import DimensionMismatch, NegativeRadius
from .scalars import ScalarLike, ScalarQ, ZERO, _Q, _as_exact, _carrier, _from_pair, _pair
from .linalg import _vecs, vec

__all__ = [
    "Fixed",
    "Free",
    "BallDescriptor",
    "dist_boxplus",
    "ball_describe",
    "ball_contains",
    "f_limit_check",
]


def dist_boxplus(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> ScalarQ:
    """Limit distance: the dominant disagreeing magnitude (an ultrametric).

    Every entry is read in place as its canonical pair; the result is the
    one carrier built, unless it is a nonnegative carrier entry itself.
    """
    xs, ys = _entries(x), _entries(y)
    if len(xs) != len(ys):
        raise DimensionMismatch(f"dim {len(xs)} vs {len(ys)}")
    best, best_m, best_d = None, 0, 1
    for a, b in zip(xs, ys):
        na, da = _pair(a)
        nb, db = _pair(b)
        if na != nb or da != db:
            # max(|a|, |b|) = |a ⊟ b| whenever a ≠ b
            if na < 0:
                na = -na
            if nb < 0:
                nb = -nb
            if nb * da > na * db:
                a, na, da = b, nb, db
            if na * best_d > best_m * da:
                best, best_m, best_d = a, na, da
    if best is None:
        return ZERO
    if type(best) is _Q and best.numerator == best_m:
        return best
    return _from_pair(best_m, best_d)


def _entries(x: str | Sequence[ScalarLike]) -> Sequence[ScalarLike]:
    """The entries of a vector input, unconverted; a literal like "3,-1/2"
    goes through ``vec``."""
    return vec(x) if isinstance(x, str) else tuple(x)


class Fixed(Record):
    """Ball coordinate pinned exactly to the center value."""

    __slots__ = ("value",)


class Free(Record):
    """Ball coordinate free within [−bound, bound]; bound equals the radius."""

    __slots__ = ("bound",)


class BallDescriptor(Record):
    """Exact coordinatewise description of a closed ball of d⊞; ``coords``
    holds one ``Fixed`` or ``Free`` per coordinate."""

    __slots__ = ("center", "radius", "coords")


def ball_describe(x: Sequence[ScalarLike], alpha: ScalarLike) -> BallDescriptor:
    """Describe the closed ball around x of radius alpha, coordinate by coordinate.

    |x_k| > alpha pins coordinate k to x_k; |x_k| ≤ alpha frees it within
    [−alpha, alpha].  The degenerate regimes (single point, Chebyshev ball
    around the origin) fall out of the same rule.
    """
    center = vec(x)
    a = _carrier(alpha)
    if a < 0:
        raise NegativeRadius(f"radius {a} < 0")
    coords = tuple(Fixed(v) if abs(v) > a else Free(a) for v in center)
    return BallDescriptor(center=center, radius=a, coords=coords)


def ball_contains(b: BallDescriptor, z: Sequence[ScalarLike]) -> bool:
    """Exact membership of z per the descriptor; z is read in place."""
    # every entry is read first, so that a bad one raises even after a miss
    zs = [_pair(v) for v in _entries(z)]
    if len(zs) != len(b.coords):
        raise DimensionMismatch(f"dim {len(zs)} vs {len(b.coords)}")
    for tag, (n, d) in zip(b.coords, zs):
        if isinstance(tag, Fixed):
            v = tag.value
            if n != v.numerator or d != v.denominator:
                return False
        elif (n if n >= 0 else -n) * tag.bound.denominator > tag.bound.numerator * d:
            return False
    return True


def f_limit_check(
    sequence: Sequence[Sequence[ScalarLike]],
    x: Sequence[ScalarLike],
    eps: Union[ScalarLike, float] = 1e-6,
) -> bool:
    """Does the sequence converge to x in d⊞'s own topology?

    d⊞(z, x) ≥ |x_i| whenever z_i ≠ x_i ≠ 0, so z tends to x in d⊞ exactly
    when every nonzero coordinate of x becomes exact and every zero
    coordinate tends to 0.  On a finite sequence: each nonzero x_i must be
    attained exactly at some index and stay exact afterwards, and each zero
    coordinate must satisfy |z_k| ≤ eps over the last quarter of the
    sequence.  Its consumer is to be the ultrametric suite's ball-algebra
    checks ("The ultrametric ball algebra" in ROADMAP.md).
    """
    xv, *seq = _vecs(x, *sequence)
    if not seq:
        return False
    bound = _as_exact(eps)
    n = len(seq)
    tail_start = n - max(1, n // 4)
    for i, xi in enumerate(xv):
        if xi != 0:
            attained = None
            for k, zk in enumerate(seq):
                if zk[i] == xi:
                    attained = k
                    break
            if attained is None:
                return False
            if any(zk[i] != xi for zk in seq[attained:]):
                return False
        else:
            if any(abs(zk[i]) > bound for zk in seq[tail_start:]):
                return False
    return True
