"""Symmetrized max-plus arithmetic and its exponential bridge."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from boxlim import (
    MAXPLUS_PSEUDO_FIELD,
    MZERO,
    boxplus,
    check_pseudo_field_axioms,
    check_symmetric_space_axioms,
    co_contains,
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
from boxlim.errors import DimensionMismatch
from boxlim.hull import _hull_candidates
from boxlim.maxplus import (
    MONE,
    _on_levels,
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


def _timed(*args) -> bool:
    """mp_hull_contains of args; fails if it takes 0.1 s or more."""
    start = time.perf_counter()
    found = mp_hull_contains(*args)
    assert time.perf_counter() - start < 0.1
    return found


def test_transported_hull_membership_with_huge_log_magnitudes():
    # log-magnitude 100000/3: the search must still decide a member and a
    # non-member, and in milliseconds
    big = q(100000, 3)
    x = (msym(1, big), msym(1, q(1, 2)), msym(-1, 0))
    y = (msym(-1, 2), msym(1, big), msym(1, -1))
    assert _timed(x, y, x)
    assert not _timed(x, y, (msym(1, 1), msym(1, q(1, 3)), msym(-1, -1)))


def _log_map(v, scale, shift):
    """v with every log-magnitude l replaced by scale·l + shift."""
    return tuple(msym(z.sign, scale * z.logmag + shift) if z.sign else MZERO for z in v)


def test_transported_hull_is_invariant_under_log_magnitude_maps():
    # l -> scale·l + shift with scale > 0 multiplies every point by e^shift and
    # applies a semiring automorphism, so it maps the hull onto the hull of
    # the images; large log-magnitudes and denominators must not cost more
    x = (msym(1, 3), msym(1, 1), msym(-1, 1))
    y = (msym(-1, 2), msym(1, -1), msym(1, 1))
    zs = [
        x, y,
        mp_hull_point(x, y, (msym(1, -1), MZERO, MONE, MZERO)),
        mp_hull_point(x, y, (MONE, MZERO, msym(1, -1), msym(1, -1))),
        mp_hull_point(x, y, (MONE, MZERO, MONE, MZERO)),
        (msym(1, 4), MZERO, MZERO),
        (msym(-1, 2), msym(1, 1), MZERO),
        (msym(1, 2), msym(1, -1), msym(1, 1)),
    ]
    answers = [mp_hull_contains(x, y, z) for z in zs]
    assert set(answers) == {True, False}
    maps = (
        (q(1), q(199_998)),           # l = 200 001
        (q(1, 991), q(1000, 997)),    # denominators 997·991
        (q(10**9, 3), q(0)),          # l = 10^9
    )
    for scale, shift in maps:
        xs, ys = _log_map(x, scale, shift), _log_map(y, scale, shift)
        for z, found in zip(zs, answers):
            assert _timed(xs, ys, _log_map(z, scale, shift)) == found, (scale, shift, z)


_halves = st.builds(q, st.integers(-8, 8), st.sampled_from((1, 2)))
# one coordinate in seven is zero (sign 0)
_half_coords = st.builds(msym, st.sampled_from((0, 1, 1, 1, -1, -1, -1)), _halves)


def _image(v) -> tuple:
    """MSym(s, l) as the rational s·2^(2l): exact on half-integer l, and it
    keeps signs, the order of magnitudes, products and quotients."""
    return tuple(z.sign * Fraction(2) ** int(2 * z.logmag) for z in v)


@st.composite
def _mirror_triples(draw):
    """x, y in dimension n ≤ 4 with half of the coordinates ties (y_i = −x_i)
    and z a hull point, a perturbed hull point or a random point."""
    n = draw(st.integers(1, 4))
    x = tuple(draw(_half_coords) for _ in range(n))
    y = tuple(
        mp_neg(a) if a.sign and draw(st.booleans()) else draw(_half_coords) for a in x
    )
    kind = draw(st.sampled_from(("member", "member", "perturbed", "random")))
    if kind == "random":
        return x, y, tuple(draw(_half_coords) for _ in range(n))
    weights = st.one_of(
        st.just(MZERO), st.builds(msym, st.just(1), _halves.filter(lambda l: l <= 0))
    )
    coeffs = [draw(weights) for _ in range(4)]
    coeffs[draw(st.integers(0, 3))] = MONE
    z = list(mp_hull_point(x, y, coeffs))
    if kind == "perturbed":
        z[draw(st.integers(0, n - 1))] = draw(_half_coords)
    return x, y, tuple(z)


def _least_product_level(x, y, z) -> int:
    """The least level of a hull candidate times a coordinate of x or y (1
    when x and y are zero)."""
    levels, ratio, mul = _on_levels(x + y + z)
    n = len(x)
    rows = [levels[:n], levels[n : 2 * n], levels[2 * n :]]
    cand = [v for v, _ in _hull_candidates(*rows, ratio, mul) if v]
    assert min(cand) > 0
    return min((mul(v, abs(a)) for v in cand for a in rows[0] + rows[1] if a), default=1)


@settings(deadline=None, max_examples=200)
@given(_mirror_triples())
def test_transported_hull_equals_the_hull_of_the_exact_image(triple):
    x, y, z = triple
    assert mp_hull_contains(x, y, z) == co_contains(*map(_image, triple))
    assert _least_product_level(x, y, z) > 0


def test_the_level_offset_is_tight():
    # R = 1: the ratio z/y is e^-2 (level N − 2R); its tie with x/y gives
    # e^-4 (N − 4R), and that times x = e^-1 is level N − 5R = 1
    x, y = (msym(1, -1),), (msym(1, 1),)
    assert _least_product_level(x, y, x) == 1
