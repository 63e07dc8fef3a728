"""Complex limit arithmetic: coordinatewise ⊞ and the modulus-multiplicative ⊠.

The product keeps the sup-norm modulus multiplicative: real part ac ⊟ bd,
imaginary part ad ⊞ bc.  Conjugation, the unit-square boundary, and the
angle coordinate give an exact polar decomposition.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import ZeroArgument
from .scalars import ScalarLike, ScalarQ, _carrier, boxminus, boxplus
from .trig import AngleParam, alpha, pcos, psin

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


def cplx(re: ScalarLike, im: ScalarLike = 0) -> BoxComplex:
    return BoxComplex(re, im)


def cplus(z: BoxComplex, w: BoxComplex) -> BoxComplex:
    """Coordinatewise limit sum."""
    return BoxComplex(boxplus(z.re, w.re), boxplus(z.im, w.im))


def ctimes(z: BoxComplex, w: BoxComplex) -> BoxComplex:
    """Limit product: (ac ⊟ bd) + i(ad ⊞ bc); modulus-multiplicative."""
    a, b = z.re, z.im
    c, d = w.re, w.im
    return BoxComplex(boxminus(a * c, b * d), boxplus(a * d, b * c))


def cconj(z: BoxComplex) -> BoxComplex:
    return BoxComplex(z.re, -z.im)


def cmod_infty(z: BoxComplex) -> ScalarQ:
    """Limit modulus: max(|re|, |im|)."""
    return max(abs(z.re), abs(z.im))


def cinv(z: BoxComplex) -> BoxComplex:
    """The ⊠-inverse conj(z) / |z|∞²: satisfies z ⊠ cinv(z) = 1 exactly."""
    m = cmod_infty(z)
    if m == 0:
        raise ZeroArgument("zero has no inverse")
    m2 = m * m
    return BoxComplex(z.re / m2, -z.im / m2)


def on_unit_square(z: BoxComplex) -> bool:
    """True iff z lies on the boundary of the sup-norm unit square."""
    return cmod_infty(z) == 1


def polar(z: BoxComplex) -> tuple[ScalarQ, AngleParam]:
    """Exact polar decomposition z = |z|∞ · (pcos θ + i psin θ)."""
    m = cmod_infty(z)
    if m == 0:
        raise ZeroArgument("zero has no angle")
    theta = alpha((z.re / m, z.im / m))
    return (m, theta)


def from_polar(modulus: ScalarLike, theta) -> BoxComplex:
    """Rebuild a complex number from its modulus and square angle."""
    m = _carrier(modulus)
    t = theta.theta if isinstance(theta, AngleParam) else _carrier(theta)
    return BoxComplex(m * pcos(t), m * psin(t))
