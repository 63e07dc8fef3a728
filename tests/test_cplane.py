"""Limit complex arithmetic: the product ⊠, modulus, polar decomposition."""

import pytest
from hypothesis import given, strategies as st

import strategies
from boxlim import (
    AngleParam,
    alpha_inv,
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
