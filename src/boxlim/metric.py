"""The limit distance d⊞, its ultrametric laws, ball geometry, and Ϝ-convergence.

d⊞(x,y) = max_i |x_i ⊟ y_i| has the closed form: 0 when x = y, otherwise the
largest of max(|x_i|, |y_i|) over the coordinates where x and y disagree.
Closed balls decompose coordinatewise: a coordinate with |center_k| > radius
is pinned exactly to the center value, every other coordinate is free within
[−radius, radius].
"""

from __future__ import annotations

from typing import Sequence, Union

from ._record import Record, setfield
from .errors import DimensionMismatch, NegativeRadius
from .scalars import ScalarLike, ScalarQ, ZERO, _as_exact, _carrier
from .linalg import Vec, _vecs, vec

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
    """Limit distance: the dominant disagreeing magnitude (an ultrametric)."""
    xv, yv = _vecs(x, y)
    best = ZERO
    for a, b in zip(xv, yv):
        if a != b:
            m = max(abs(a), abs(b))  # = |a ⊟ b| whenever a ≠ b
            if m > best:
                best = m
    return best


class Fixed(Record):
    """Ball coordinate pinned exactly to the center value."""

    __slots__ = ("value",)

    def __init__(self, value: ScalarQ):
        setfield(self, "value", value)


class Free(Record):
    """Ball coordinate free within [−bound, bound]; bound equals the radius."""

    __slots__ = ("bound",)

    def __init__(self, bound: ScalarQ):
        setfield(self, "bound", bound)


class BallDescriptor(Record):
    """Exact coordinatewise description of a closed ball of d⊞."""

    __slots__ = ("center", "radius", "coords")

    def __init__(
        self,
        center: Vec,
        radius: ScalarQ,
        coords: tuple,  # per-coordinate Fixed(value) | Free(bound)
    ):
        setfield(self, "center", center)
        setfield(self, "radius", radius)
        setfield(self, "coords", coords)


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
    """Exact membership of z per the descriptor."""
    zv = vec(z)
    if len(zv) != len(b.coords):
        raise DimensionMismatch(f"dim {len(zv)} vs {len(b.coords)}")
    for tag, v in zip(b.coords, zv):
        if isinstance(tag, Fixed):
            if v != tag.value:
                return False
        else:
            if abs(v) > tag.bound:
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
