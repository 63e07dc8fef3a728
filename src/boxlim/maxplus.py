"""Symmetrized Max-Plus carrier: signed log-magnitudes with transported limit ops.

Elements are 0 (the image of −∞) or a sign with an exact rational
log-magnitude; Signed(−, a) stands for a + iπ.  Transported addition keeps
the larger log-magnitude and cancels exact symmetric ties; multiplication
adds log-magnitudes and multiplies signs.  All algebraic laws hold exactly
in this encoding; the exponential bridge to floats appears only in the
dequantization helpers, since e^a is irrational.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import Record, setfield
from .axioms import PseudoFieldOps, SymmetricSpaceOps
from .errors import DimensionMismatch, EmptyList, InvalidCombination
from .scalars import ZERO, ScalarLike, _as_exact, _carrier, _levels, q

__all__ = [
    "MSym",
    "MZERO",
    "MONE",
    "msym",
    "mp_parse",
    "mp_format",
    "mp_boxplus",
    "mp_boxminus",
    "mp_neg",
    "mp_otimes",
    "mp_inv",
    "mp_nary",
    "mp_abs",
    "mp_abs_le",
    "mp_dist",
    "mp_dist_std",
    "psi_exp",
    "psi_ln",
    "mp_hull_point",
    "mp_hull_contains",
    "MAXPLUS_PSEUDO_FIELD",
    "maxplus_vector_space",
]


class MSym(Record):
    """Zero (sign 0) or Signed(±, logmag) with exact rational logmag."""

    __slots__ = ("sign", "logmag")

    def __init__(self, sign: int, logmag: ScalarLike = ZERO):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {sign}")
        setfield(self, "sign", sign)
        setfield(self, "logmag", ZERO if sign == 0 else _carrier(logmag))

    def __bool__(self) -> bool:
        return self.sign != 0

    def __str__(self) -> str:
        return mp_format(self)


MZERO = MSym(0)
MONE = MSym(1, ZERO)


def msym(sign: int, logmag: ScalarLike = 0) -> MSym:
    return MSym(sign, _carrier(logmag))


def mp_parse(text: str) -> MSym:
    """Element literals: "-inf", "3/2", "3/2+ipi"."""
    t = text.strip().replace(" ", "")
    if t in ("-inf", "-Inf", "-INF"):
        return MZERO
    if t.endswith("+ipi"):
        return MSym(-1, _carrier(t[: -len("+ipi")]))
    return MSym(1, _carrier(t))


def mp_format(z: MSym) -> str:
    if z.sign == 0:
        return "-inf"
    if z.sign < 0:
        return f"{z.logmag}+ipi"
    return f"{z.logmag}"


def mp_boxplus(z: MSym, w: MSym) -> MSym:
    """Transported limit sum: larger logmag wins, symmetric ties cancel."""
    if z.sign == 0:
        return w
    if w.sign == 0:
        return z
    if z.logmag > w.logmag:
        return z
    if w.logmag > z.logmag:
        return w
    return z if z.sign == w.sign else MZERO


def mp_neg(z: MSym) -> MSym:
    return MSym(-z.sign, z.logmag) if z.sign else MZERO


def mp_boxminus(z: MSym, w: MSym) -> MSym:
    return mp_boxplus(z, mp_neg(w))


def mp_otimes(z: MSym, w: MSym) -> MSym:
    """Transported product: logmags add, signs multiply, zero absorbs."""
    if z.sign == 0 or w.sign == 0:
        return MZERO
    return MSym(z.sign * w.sign, z.logmag + w.logmag)


def mp_inv(z: MSym) -> MSym:
    if z.sign == 0:
        raise ZeroDivisionError("zero element has no inverse")
    return MSym(z.sign, -z.logmag)


def mp_nary(zs: Sequence[MSym]) -> MSym:
    """Transported n-ary limit sum: net sign per logmag level, top survivor."""
    zs = tuple(zs)
    if not zs:
        raise EmptyList("n-ary sum needs at least one element")
    net = _levels([(z.logmag, z.sign) for z in zs if z.sign])
    top = max(net, default=None)
    return MZERO if top is None else MSym(1 if net[top] > 0 else -1, top)


def mp_abs(z: MSym) -> MSym:
    return MSym(1, z.logmag) if z.sign else MZERO


def mp_abs_le(z: MSym, w: MSym) -> bool:
    """|z| ≤ |w| in the transported order (zero below everything)."""
    if z.sign == 0:
        return True
    if w.sign == 0:
        return False
    return z.logmag <= w.logmag


def mp_dist(zs: Sequence[MSym], ws: Sequence[MSym]) -> MSym:
    """Transported ultrametric: n-ary sum of |z_i ⊟ w_i|; zero iff equal."""
    zs, ws = tuple(zs), tuple(ws)
    if len(zs) != len(ws):
        raise DimensionMismatch(f"dim {len(zs)} vs {len(ws)}")
    if not zs:
        raise EmptyList("distance needs at least one coordinate")
    return mp_nary([mp_abs(mp_boxminus(a, b)) for a, b in zip(zs, ws)])


def psi_exp(z: MSym) -> float:
    """Exponential dequantization bridge (float-valued)."""
    if z.sign == 0:
        return 0.0
    return z.sign * math.exp(float(z.logmag))


def psi_ln(v: ScalarLike) -> MSym:
    """Logarithmic quantization bridge (float-accurate logmag)."""
    fv = float(v) if isinstance(v, float) else float(q(v))
    if fv == 0.0:
        return MZERO
    return MSym(1 if fv > 0 else -1, _as_exact(math.log(abs(fv))))


def mp_dist_std(zs: Sequence[MSym], ws: Sequence[MSym]) -> float:
    """Standard-valued ultrametric: exponential image of the transported one."""
    return psi_exp(mp_dist(zs, ws))


# ---------------------------------------------------------------------------
# convexity mirror


def _on_levels(values: Sequence[MSym]) -> tuple:
    """The signed int levels of values, with their quotient and product.

    MSym(s, l) ↦ s·(N + l·D) and 0 ↦ 0, with D the lcm of the denominators
    and N = 5R + 1 for R the largest |l·D|.  A level's magnitude orders like
    the value's, so Ϝ and every comparison read levels as they are; the
    quotient subtracts magnitudes and the product adds them, each around N,
    and returns a canonical pair (level, 1).  The hull search forms nothing
    smaller than a tie candidate (down to N − 4R) times a coordinate (N − R),
    so every level it meets stays positive.
    """
    d = math.lcm(*[int(z.logmag.denominator) for z in values if z.sign])
    # zero has log-magnitude 0, so its exponent is 0 as well
    exps = [int(z.logmag.numerator) * (d // int(z.logmag.denominator)) for z in values]
    big = 5 * max(map(abs, exps), default=0) + 1

    def ratio(a: int, b: int) -> tuple:
        if not a:
            return (0, 1)
        m = abs(a) - abs(b) + big
        return (m if (a < 0) == (b < 0) else -m, 1)

    def mul(a: int, b: int) -> int:
        if not (a and b):
            return 0
        m = abs(a) + abs(b) - big
        return m if (a < 0) == (b < 0) else -m

    return [z.sign * (big + e) for z, e in zip(values, exps)], ratio, mul


def mp_hull_point(
    x: Sequence[MSym], y: Sequence[MSym], coeffs: Sequence[MSym]
) -> tuple:
    """Two-point hull combination with transported coefficients.

    Coefficients must be zero or have positive sign with logmag ≤ 0, and at
    least one must be the unit — the transported picture of [0, 1] weights
    with maximum exactly 1.
    """
    xs, ys = tuple(x), tuple(y)
    if len(xs) != len(ys):
        raise DimensionMismatch(f"dim {len(xs)} vs {len(ys)}")
    cs = tuple(coeffs)
    if len(cs) != 4:
        raise InvalidCombination("need exactly four coefficients")
    for c in cs:
        if c.sign < 0 or (c.sign and c.logmag > 0):
            raise InvalidCombination("coefficients must be zero or (+, logmag ≤ 0)")
    if MONE not in cs:
        raise InvalidCombination("some coefficient must be the unit")
    t, r, s, w = cs
    return tuple(
        mp_nary(
            (mp_otimes(t, a), mp_otimes(r, a), mp_otimes(s, b), mp_otimes(w, b))
        )
        for a, b in zip(xs, ys)
    )


def mp_hull_contains(
    x: Sequence[MSym], y: Sequence[MSym], z: Sequence[MSym]
) -> bool:
    """Membership in the transported two-point hull.

    Decided by the hull search of ``co_contains`` on int levels
    (``_on_levels``): the search reads instance values only through their
    signs, the order of their magnitudes, quotients and products, and the
    levels carry all four exactly.  Its cost does not grow with the size of
    the log-magnitudes.
    """
    from .hull import _hull_search

    xs, ys, zs = tuple(x), tuple(y), tuple(z)
    if not (len(xs) == len(ys) == len(zs)):
        raise DimensionMismatch("equal dimensions required")
    levels, ratio, mul = _on_levels(xs + ys + zs)
    n = len(xs)
    return _hull_search([levels[:n], levels[n : 2 * n], levels[2 * n :]], ratio, mul)


# ---------------------------------------------------------------------------
# axiom bundles


MAXPLUS_PSEUDO_FIELD = PseudoFieldOps(
    name="maxplus-symmetrized",
    add=mp_boxplus,
    mul=mp_otimes,
    neg=mp_neg,
    inv=mp_inv,
    zero=MZERO,
    one=MONE,
)


def maxplus_vector_space(dim: int) -> SymmetricSpaceOps:
    """Coordinatewise transported operations on MSym tuples of length dim."""

    def vadd(u, v):
        return tuple(mp_boxplus(a, b) for a, b in zip(u, v))

    def vneg(u):
        return tuple(mp_neg(a) for a in u)

    def act(lam, u):
        return tuple(mp_otimes(lam, a) for a in u)

    return SymmetricSpaceOps(
        name=f"maxplus-symmetrized^{dim}",
        field=MAXPLUS_PSEUDO_FIELD,
        vadd=vadd,
        vneg=vneg,
        act=act,
        vzero=(MZERO,) * dim,
    )
