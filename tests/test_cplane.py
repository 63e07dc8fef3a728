"""Limit complex arithmetic: the product ⊠, modulus, polar decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import strategies
from test_trig import _cos_definition, _sin_definition
from boxlim import (
    AngleParam,
    alpha,
    alpha_inv,
    boxminus,
    boxplus,
    cconj,
    cinv,
    cmod_infty,
    cplus,
    cplx,
    ctimes,
    from_polar,
    on_unit_square,
    polar,
    q,
)
from boxlim.errors import ZeroArgument
from boxlim.scalars import ScalarQ

rationals = strategies.rationals(-6, 6, 6).map(q)
complexes = st.tuples(rationals, rationals).map(lambda p: cplx(*p))
nonzero_complexes = complexes.filter(lambda z: cmod_infty(z) != 0)
angles = strategies.rationals(-10, 10, 8).map(q)


def test_ctimes_frozen_value():
    z = ctimes(cplx(3, 1), cplx(1, -2))
    assert (z.re, z.im) == (q(3), q(-6))


def test_cplx_normalizes_components():
    z = cplx("3/2", -2)
    assert (z.re, z.im) == (q(3, 2), q(-2))


@given(complexes, complexes)
def test_ctimes_commutative(z, w):
    assert ctimes(z, w) == ctimes(w, z)


@given(complexes, complexes)
def test_modulus_is_multiplicative(z, w):
    assert cmod_infty(ctimes(z, w)) == cmod_infty(z) * cmod_infty(w)


@given(complexes)
def test_conjugate_product_is_squared_modulus(z):
    assert ctimes(z, cconj(z)) == cplx(cmod_infty(z) ** 2, 0)


@given(nonzero_complexes)
def test_inverse_multiplies_to_one(z):
    assert ctimes(z, cinv(z)) == cplx(1, 0)


def test_inverse_and_polar_reject_zero():
    with pytest.raises(ZeroArgument):
        cinv(cplx(0, 0))
    with pytest.raises(ZeroArgument):
        polar(cplx(0, 0))


@given(complexes, complexes)
def test_cplus_is_componentwise(z, w):
    out = cplus(z, w)
    assert out.re == boxplus(z.re, w.re)
    assert out.im == boxplus(z.im, w.im)


@given(nonzero_complexes)
def test_polar_roundtrip(z):
    m, theta = polar(z)
    assert m == cmod_infty(z)
    assert from_polar(m, theta) == z


def test_polar_frozen_value():
    m, theta = polar(cplx(-2, 1))
    assert m == 2
    assert theta == AngleParam(q(7, 2))


@given(angles)
def test_unit_square_closure_under_the_product(theta):
    z = from_polar(1, theta)
    assert on_unit_square(z)
    w = from_polar(1, theta + q(5, 4))
    assert on_unit_square(ctimes(z, w))


@given(angles)
def test_from_polar_matches_the_boundary_map(theta):
    z = from_polar(1, theta)
    assert (z.re, z.im) == alpha_inv(theta)


# ---------------------------------------------------------------------------
# the pair-level functions against their carrier-arithmetic definitions


@st.composite
def tied_pairs(draw):
    """Two complex numbers a+ib, c+id, as the carrier or as Fraction, whose
    products tie in magnitude: |ac| = |bd|, or |ad| = |bc|, or both."""
    a, b, c, d = (draw(rationals) for _ in range(4))
    tie = draw(st.sampled_from(("real", "imag", "both")))
    sign = draw(st.sampled_from((1, -1)))
    if tie == "both":  # |a| = |b| and |c| = |d|
        b, d = sign * a, draw(st.sampled_from((1, -1))) * c
    elif b and tie == "real":
        d = sign * a * c / b
    elif a and tie == "imag":
        d = sign * b * c / a
    conv = draw(st.sampled_from((q, Fraction)))
    return cplx(conv(a), conv(b)), cplx(conv(c), conv(d))


def _ctimes_definition(z, w):
    a, b, c, d = z.re, z.im, w.re, w.im
    return cplx(boxminus(a * c, b * d), boxplus(a * d, b * c))


def _parts_are_carriers(z):
    return type(z.re) is ScalarQ and type(z.im) is ScalarQ


@given(st.one_of(tied_pairs(), st.tuples(complexes, complexes)))
def test_ctimes_equals_its_definition_on_ties(zw):
    z, w = zw
    for u, v in ((z, w), (w, z), (z, cconj(z)), (z, z)):
        got = ctimes(u, v)
        assert got == _ctimes_definition(u, v)
        assert _parts_are_carriers(got)


@given(st.one_of(tied_pairs().map(lambda zw: zw[0]), complexes))
def test_modulus_conjugate_and_polar_equal_their_definitions(z):
    m = cmod_infty(z)
    assert m == max(abs(z.re), abs(z.im)) and type(m) is ScalarQ
    assert on_unit_square(z) is (m == 1)
    conj = cconj(z)
    assert conj == cplx(z.re, -z.im) and _parts_are_carriers(conj)
    if m:
        modulus, theta = polar(z)
        assert (modulus, theta) == (m, alpha((z.re / m, z.im / m)))
        assert type(modulus) is ScalarQ and type(theta.theta) is ScalarQ


@given(rationals, angles, st.sampled_from((q, Fraction, AngleParam)))
def test_from_polar_equals_its_definition(m, theta, conv):
    z = from_polar(m, conv(theta))
    assert z == cplx(m * _cos_definition(theta), m * _sin_definition(theta))
    assert _parts_are_carriers(z)
