"""Complex limit arithmetic: coordinatewise ⊞ and the modulus-multiplicative ⊠.

The product keeps the sup-norm modulus multiplicative: real part ac ⊟ bd,
imaginary part ad ⊞ bc.  Conjugation, the unit-square boundary, and the
angle coordinate give an exact polar decomposition.

The product, the modulus, the polar form and its inverse run on the
canonical ``(numerator, denominator)`` pairs of the parts: magnitudes are
compared cross-multiplied over integers, and a carrier is built only for a
value that is returned.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import ZeroArgument
from .scalars import ZERO, ScalarLike, ScalarQ, _carrier, _from_pair, _pair, _times, boxplus
from .trig import AngleParam, _angle, _boundary_angle, _segment_of

__all__ = [
    "BoxComplex",
    "cplx",
    "cplus",
    "ctimes",
    "cconj",
    "cmod_infty",
    "cinv",
    "on_unit_square",
    "polar",
    "from_polar",
]

_new = object.__new__


class BoxComplex(Record):
    """Complex number re + i·im with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: ScalarLike, im: ScalarLike):
        setfield(self, "re", _carrier(re))
        setfield(self, "im", _carrier(im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def _box(re: ScalarQ, im: ScalarQ) -> BoxComplex:
    """A BoxComplex from two carriers, stored as they are."""
    z = _new(BoxComplex)
    setfield(z, "re", re)
    setfield(z, "im", im)
    return z


def _parts(z: BoxComplex) -> tuple[int, int, int, int]:
    """The canonical pairs of z's parts, which are carriers, flattened."""
    re, im = z.re, z.im
    return re.numerator, re.denominator, im.numerator, im.denominator


def cplx(re: ScalarLike, im: ScalarLike = 0) -> BoxComplex:
    return BoxComplex(re, im)


def cplus(z: BoxComplex, w: BoxComplex) -> BoxComplex:
    """Coordinatewise limit sum."""
    return _box(boxplus(z.re, w.re), boxplus(z.im, w.im))


def _sum_of_products(an: int, ad: int, bn: int, bd: int,
                     cn: int, cd: int, dn: int, dd: int) -> ScalarQ:
    """ab ⊞ cd for canonical pairs, decided on the unreduced products
    (an·bn)/(ad·bd) and (cn·dn)/(cd·dd); only the survivor is built."""
    x = an * bn
    y = cn * dn
    mx = (x if x >= 0 else -x) * (cd * dd)
    my = (y if y >= 0 else -y) * (ad * bd)
    if my > mx:
        return _from_pair(*_times(cn, cd, dn, dd))
    # ab survives a larger magnitude or a tie with ab = cd; a tie with
    # ab = −cd (or both zero) is 0
    if mx > my or (x and (x > 0) == (y > 0)):
        return _from_pair(*_times(an, ad, bn, bd))
    return ZERO


def ctimes(z: BoxComplex, w: BoxComplex) -> BoxComplex:
    """Limit product: (ac ⊟ bd) + i(ad ⊞ bc); modulus-multiplicative."""
    an, ad, bn, bd = _parts(z)
    cn, cd, dn, dd = _parts(w)
    # ac ⊟ bd = ac ⊞ (−b)d
    return _box(_sum_of_products(an, ad, cn, cd, -bn, bd, dn, dd),
                _sum_of_products(an, ad, dn, dd, bn, bd, cn, cd))


def cconj(z: BoxComplex) -> BoxComplex:
    return _box(z.re, -z.im)


def _modulus(rn: int, rd: int, jn: int, jd: int) -> tuple[int, int]:
    """The canonical pair of max(|re|, |im|) from the parts' pairs."""
    rn = rn if rn >= 0 else -rn
    jn = jn if jn >= 0 else -jn
    return (jn, jd) if jn * rd > rn * jd else (rn, rd)


def cmod_infty(z: BoxComplex) -> ScalarQ:
    """Limit modulus: max(|re|, |im|)."""
    return _from_pair(*_modulus(*_parts(z)))


def cinv(z: BoxComplex) -> BoxComplex:
    """The ⊠-inverse conj(z) / |z|∞²: satisfies z ⊠ cinv(z) = 1 exactly."""
    m = cmod_infty(z)
    if m == 0:
        raise ZeroArgument("zero has no inverse")
    m2 = m * m
    return _box(z.re / m2, -z.im / m2)


def on_unit_square(z: BoxComplex) -> bool:
    """True iff z lies on the boundary of the sup-norm unit square."""
    return _modulus(*_parts(z)) == (1, 1)


def polar(z: BoxComplex) -> tuple[ScalarQ, AngleParam]:
    """Exact polar decomposition z = |z|∞ · (pcos θ + i psin θ)."""
    rn, rd, jn, jd = _parts(z)
    mn, md = _modulus(rn, rd, jn, jd)
    if not mn:
        raise ZeroArgument("zero has no angle")
    # z / |z|∞ on the pairs: times md/mn, canonical as mn > 0
    theta = _boundary_angle(*_times(rn, rd, md, mn), *_times(jn, jd, md, mn))
    return _from_pair(mn, md), _angle(theta)


def from_polar(modulus: ScalarLike, theta) -> BoxComplex:
    """Rebuild a complex number from its modulus and square angle."""
    mn, md = _pair(modulus)
    (cn, cd), (sn, sd) = _segment_of(theta)
    return _box(_from_pair(*_times(mn, md, cn, cd)), _from_pair(*_times(mn, md, sn, sd)))
