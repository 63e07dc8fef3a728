"""Symmetrized max-plus arithmetic and its exponential bridge."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from boxlim import (
    MAXPLUS_PSEUDO_FIELD,
    MZERO,
    boxplus,
    check_pseudo_field_axioms,
    check_symmetric_space_axioms,
    maxplus_vector_space,
    mp_boxplus,
    mp_dist,
    mp_dist_std,
    mp_format,
    mp_nary,
    mp_otimes,
    mp_parse,
    msym,
    nary_boxplus,
    psi_exp,
    psi_ln,
    q,
)
from boxlim.errors import MAX_EMBED_BITS, DimensionMismatch, TooLarge
from boxlim.maxplus import (
    MONE,
    mp_abs,
    mp_abs_le,
    mp_boxminus,
    mp_hull_contains,
    mp_hull_point,
    mp_inv,
    mp_neg,
)

logmags = strategies.rationals(-6, 6, 4).map(q)
elements = st.one_of(
    st.just(MZERO),
    st.tuples(st.sampled_from((1, -1)), logmags).map(lambda p: msym(*p)),
)
nonzero_elements = elements.filter(lambda z: z.sign != 0)


def test_parse_format_roundtrip():
    for text in ("-inf", "0", "-2", "3/2", "3/2+ipi", "-5/4+ipi"):
        assert mp_format(mp_parse(text)) == text


def test_parse_normalizes_whitespace():
    assert mp_parse(" 3/2 + ipi ") == msym(-1, q(3, 2))


@given(elements)
def test_zero_is_neutral(z):
    assert mp_boxplus(z, MZERO) == z
    assert mp_otimes(z, MZERO) == MZERO


@given(elements)
def test_boxplus_idempotent_and_cancelling(z):
    assert mp_boxplus(z, z) == z
    assert mp_boxplus(z, mp_neg(z)) == MZERO


@given(elements, elements)
def test_boxplus_commutative(z, w):
    assert mp_boxplus(z, w) == mp_boxplus(w, z)


def test_boxplus_dominant_magnitude():
    assert mp_boxplus(msym(1, 2), msym(-1, 1)) == msym(1, 2)
    assert mp_boxplus(msym(-1, q(5, 2)), msym(1, 2)) == msym(-1, q(5, 2))


def test_nary_net_sign_per_level():
    zs = [msym(1, 3), msym(1, 3), msym(-1, 3), msym(1, 1)]
    assert mp_nary(zs) == msym(1, 3)
    cancel = [msym(1, 2), msym(-1, 2), msym(1, 1)]
    assert mp_nary(cancel) == msym(1, 1)


@given(st.lists(st.tuples(st.sampled_from((1, 0, -1)), st.integers(-4, 4)),
                min_size=1, max_size=8))
def test_mp_nary_is_the_limit_sum_of_the_images(pairs):
    # MSym(s, l) with integer l maps to the rational s·2^l, which keeps the
    # order of magnitudes and the signs, so Ϝ commutes with the map
    def image(z):
        return z.sign * q(2) ** int(z.logmag)

    zs = [msym(s, l) if s else MZERO for s, l in pairs]
    assert image(mp_nary(zs)) == nary_boxplus([image(z) for z in zs])


@given(nonzero_elements, nonzero_elements)
def test_otimes_adds_logmags(z, w):
    out = mp_otimes(z, w)
    assert out.logmag == z.logmag + w.logmag
    assert out.sign == z.sign * w.sign


@given(nonzero_elements)
def test_inverse_and_division(z):
    assert mp_otimes(z, mp_inv(z)) == MONE


@given(elements, elements)
def test_boxminus_is_sum_with_negation(z, w):
    assert mp_boxminus(z, w) == mp_boxplus(z, mp_neg(w))


@given(elements, elements)
def test_abs_le_totality(z, w):
    assert mp_abs_le(z, w) or mp_abs_le(w, z)
    assert mp_abs_le(MZERO, z)


def test_dist_frozen_value():
    zs = [mp_parse("0"), mp_parse("1")]
    ws = [mp_parse("0"), MZERO]
    assert mp_dist(zs, ws) == msym(1, 1)
    assert mp_dist(zs, zs) == MZERO


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mp_dist([MZERO], [MZERO, MZERO])


@given(st.lists(elements, min_size=1, max_size=3),
       st.lists(elements, min_size=1, max_size=3),
       st.lists(elements, min_size=1, max_size=3))
def test_dist_strong_triangle(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    xs, ys, zs = xs[:n], ys[:n], zs[:n]
    dxz = mp_abs(mp_dist(xs, zs))
    dxy = mp_abs(mp_dist(xs, ys))
    dyz = mp_abs(mp_dist(ys, zs))
    dominant = dyz if mp_abs_le(dxy, dyz) else dxy
    assert mp_abs_le(dxz, dominant)


# ---------------------------------------------------------------------------
# the exponential bridge


def _exact(v: float):
    from fractions import Fraction

    return q(Fraction(v))


def test_psi_exp_values_and_psi_ln_inverse():
    assert psi_exp(MZERO) == 0.0
    assert psi_exp(msym(-1, q(3, 2))) == -math.exp(1.5)
    back = psi_ln(q(-3, 2))
    assert back.sign == -1
    assert abs(float(back.logmag) - math.log(1.5)) < 1e-12
    assert psi_ln(0) == MZERO


def test_bridge_transports_the_operations():
    rng = random.Random(1312)

    def draw():
        if rng.random() < 0.1:
            return MZERO
        return msym(rng.choice((1, -1)), q(rng.randint(-24, 24), 4))

    for _ in range(300):
        z, w = draw(), draw()
        lhs = psi_exp(mp_boxplus(z, w))
        rhs = float(boxplus(_exact(psi_exp(z)), _exact(psi_exp(w))))
        assert abs(lhs - rhs) <= 1e-9
        lhs_m = psi_exp(mp_otimes(z, w))
        rhs_m = psi_exp(z) * psi_exp(w)
        assert abs(lhs_m - rhs_m) <= 1e-9


def test_standard_valued_distance_matches_the_bridge():
    zs = [msym(1, 0), msym(1, 1)]
    ws = [msym(1, 0), MZERO]
    assert abs(mp_dist_std(zs, ws) - math.exp(1.0)) < 1e-12


# ---------------------------------------------------------------------------
# axiom suites and the convexity mirror


def test_maxplus_pseudo_field_axioms_hold():
    rng = random.Random(77)

    def draw():
        if rng.random() < 0.1:
            return MZERO
        return msym(rng.choice((1, -1)), q(rng.randint(-24, 24), 4))

    sample = [(draw(), draw(), draw()) for _ in range(300)]
    report = check_pseudo_field_axioms(sample, MAXPLUS_PSEUDO_FIELD)
    assert report.passed, report.failed_axiom


def test_maxplus_symmetric_space_axioms_hold():
    rng = random.Random(78)

    def draw():
        if rng.random() < 0.1:
            return MZERO
        return msym(rng.choice((1, -1)), q(rng.randint(-24, 24), 4))

    space = maxplus_vector_space(3)
    sample = [
        (draw(), draw(), tuple(draw() for _ in range(3)), tuple(draw() for _ in range(3)))
        for _ in range(300)
    ]
    report = check_symmetric_space_axioms(space, sample)
    assert report.passed, report.failed_axiom


def test_transported_hull_membership():
    x = (msym(1, 2), msym(-1, 0))
    y = (msym(1, 0), msym(-1, 1))
    assert mp_hull_point(x, y, (MONE, MZERO, MZERO, MZERO)) == x
    assert mp_hull_point(x, y, (MZERO, MZERO, MONE, MZERO)) == y
    assert mp_hull_contains(x, y, x)
    assert mp_hull_contains(x, y, y)
    z = mp_hull_point(x, y, (msym(1, -1), MZERO, MONE, MZERO))
    assert mp_hull_contains(x, y, z)


_thirds = st.builds(q, st.integers(-8, 8), st.sampled_from((1, 2, 3)))
_coords = st.one_of(st.just(MZERO), st.builds(msym, st.sampled_from((1, -1)), _thirds))
_weights = st.one_of(st.just(MZERO), st.builds(msym, st.just(1), _thirds.filter(lambda l: l <= 0)))


@st.composite
def _hull_instances(draw):
    """x, y in dimension n ≤ 3 and hull coefficients with the unit among them."""
    n = draw(st.integers(1, 3))
    x, y = (tuple(draw(_coords) for _ in range(n)) for _ in range(2))
    coeffs = [draw(_weights) for _ in range(4)]
    coeffs[draw(st.integers(0, 3))] = MONE
    return x, y, tuple(coeffs)


@settings(deadline=None)
@given(_hull_instances())
def test_transported_hull_points_are_members(instance):
    x, y, coeffs = instance
    assert mp_hull_contains(x, y, mp_hull_point(x, y, coeffs))


def test_transported_hull_membership_with_huge_log_magnitudes():
    # the embedding maps log-magnitude 100000/3 to 2^200000; the search must
    # still decide both a member and a non-member
    big = q(100000, 3)
    x = (msym(1, big), msym(1, q(1, 2)), msym(-1, 0))
    y = (msym(-1, 2), msym(1, big), msym(1, -1))
    assert mp_hull_contains(x, y, x)
    assert not mp_hull_contains(x, y, (msym(1, 1), msym(1, q(1, 3)), msym(-1, -1)))


def test_transported_hull_embedding_is_capped():
    y = (msym(-1, 2), msym(1, -1))
    at_cap = (msym(1, MAX_EMBED_BITS), msym(1, 1))
    assert mp_hull_contains(at_cap, y, at_cap)
    over_cap = (msym(1, MAX_EMBED_BITS + 1), msym(1, 1))
    with pytest.raises(TooLarge):
        mp_hull_contains(over_cap, y, over_cap)
    # denominators 997 and 991 make D = 988027, past the cap for every l ≥ 1;
    # the search is refused before any power of 2 is built
    far = (msym(1, q(7, 997 * 991)), msym(1, q(5, 2)))
    with pytest.raises(TooLarge):
        mp_hull_contains(far, (msym(-1, q(3, 991)), msym(1, q(1, 3))),
                         (msym(1, q(1, 5)), msym(-1, q(2, 7))))
