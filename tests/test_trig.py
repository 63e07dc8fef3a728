"""Square trigonometry: pcos/psin, angle parameters, limit angles, Pythagoras."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

import strategies
from boxlim import (
    DEFAULT_P_GRID,
    AngleParam,
    alpha,
    alpha_inv,
    cos_infty,
    inner3_limit,
    is_f_right_angled,
    orthogonal_pairing,
    p_cos,
    p_sin,
    pcos,
    psin,
    pythagoras_check,
    q,
    sin_infty,
    vec,
)
from boxlim.deform import _min_precision
from boxlim.errors import (
    MAX_P,
    DimensionMismatch,
    NotOnUnitSquare,
    NotOrthogonal,
    NotRightAngled,
    TooLarge,
    ZeroVector,
)
from boxlim.sampling import Sampler
from boxlim.scalars import ScalarQ
from boxlim.trig import _reduce8

angles = strategies.rationals(-20, 20, 8).map(q)


@given(st.one_of(
    strategies.rationals(-100, 100, 12),
    st.integers(-12, 12).map(lambda k: q(8 * k)),
    st.just(q(0)),
))
def test_integer_angle_reduction_equals_the_rational_floor(t):
    got = _reduce8(t)
    assert type(got) is ScalarQ
    assert got == t - 8 * math.floor(t / 8)
    assert 0 <= got < 8


def test_pcos_psin_integer_table():
    expect = {
        0: (1, 0), 1: (1, 1), 2: (0, 1), 3: (-1, 1),
        4: (-1, 0), 5: (-1, -1), 6: (0, -1), 7: (1, -1),
    }
    for k, (c, s) in expect.items():
        assert pcos(k) == c, k
        assert psin(k) == s, k


def test_pcos_psin_fractional_values():
    assert pcos(q(1, 2)) == 1
    assert psin(q(1, 2)) == q(1, 2)
    assert pcos(q(3, 2)) == q(1, 2)
    assert pcos(q(13, 4)) == -1
    assert psin(q(13, 4)) == q(3, 4)


@given(angles)
def test_unit_square_identity(theta):
    assert max(abs(pcos(theta)), abs(psin(theta))) == 1


@given(angles, st.integers(-3, 3))
def test_period_eight(theta, k):
    assert pcos(theta + 8 * k) == pcos(theta)
    assert psin(theta + 8 * k) == psin(theta)


@given(angles)
def test_angle_roundtrip_from_theta(theta):
    assert alpha(alpha_inv(theta)) == AngleParam(theta)


@given(strategies.rationals(-1, 1, 8).map(q),
       st.integers(0, 3))
def test_angle_roundtrip_from_boundary_points(u, side):
    z = ((q(1), u), (u, q(1)), (q(-1), u), (u, q(-1)))[side]
    assert alpha_inv(alpha(z)) == z


def test_angle_param_reduces_mod_eight():
    assert AngleParam(q(17, 2)) == AngleParam(q(1, 2))
    assert AngleParam(-1).theta == 7


def test_alpha_rejects_off_boundary_points():
    with pytest.raises(NotOnUnitSquare):
        alpha((q(1, 2), q(1, 2)))
    with pytest.raises(DimensionMismatch):
        alpha((1, 0, 0))


def test_alpha_reads_every_entry_before_it_checks_the_dimension():
    # the float 1/2 is rejected as it is read, before the length is seen
    with pytest.raises(TypeError, match="no exact rational from float"):
        alpha((1, 1 / 2, 1.5))


# the square trigonometry written with carrier comparisons, as the
# definitions that the pair-level segment table must reproduce


def _reduced_definition(theta):
    return q(theta) - 8 * math.floor(q(theta) / 8)


def _cos_definition(theta):
    t = _reduced_definition(theta)
    return 1 if t < 1 else 2 - t if t < 3 else -1 if t < 5 else t - 6 if t < 7 else 1


def _sin_definition(theta):
    t = _reduced_definition(theta)
    return t if t < 1 else 1 if t < 3 else 4 - t if t < 5 else -1 if t < 7 else t - 8


def _alpha_definition(z):
    z1, z2 = vec(z)
    if z1 == 1 and 0 <= z2 <= 1:
        return AngleParam(z2)
    if z2 == 1:
        return AngleParam(2 - z1)
    if z1 == -1:
        return AngleParam(4 - z2)
    if z2 == -1:
        return AngleParam(6 + z1)
    return AngleParam(8 + z2)


@given(st.one_of(angles, st.integers(-16, 16).map(q), st.just(q(0))),
       st.sampled_from((q, Fraction, str)))
def test_the_segment_table_equals_the_piecewise_definition(theta, conv):
    c, s = pcos(conv(theta)), psin(conv(theta))
    assert (c, s) == (_cos_definition(theta), _sin_definition(theta))
    assert alpha_inv(conv(theta)) == alpha_inv(AngleParam(theta)) == (c, s)
    assert all(type(v) is ScalarQ for v in (c, s, *alpha_inv(theta)))


@given(strategies.rationals(-1, 1, 8), st.integers(0, 3),
       st.sampled_from((q, Fraction, str)))
def test_alpha_equals_the_piecewise_definition(u, side, conv):
    z = tuple(map(conv, ((1, u), (u, 1), (-1, u), (u, -1))[side]))
    got = alpha(z)
    assert got == _alpha_definition(z)
    assert type(got.theta) is ScalarQ and 0 <= got.theta < 8


@given(strategies.rationals(-2, 2, 4), strategies.rationals(-2, 2, 4))
def test_alpha_rejects_exactly_the_points_off_the_boundary(u, v):
    if max(abs(u), abs(v)) == 1:
        assert alpha((u, v)) == _alpha_definition((u, v))
    else:
        with pytest.raises(NotOnUnitSquare):
            alpha((u, v))


# ---------------------------------------------------------------------------
# limit angles between vectors


def test_cos_sin_frozen_pair():
    assert cos_infty(vec("3,1"), vec("1,-2")) == q(1, 2)
    assert sin_infty(vec("3,1"), vec("1,-2")) == -1


def test_cos_sin_self_alignment():
    x = vec("3,1")
    assert cos_infty(x, x) == 1
    assert sin_infty(x, x) == 0


def test_cos_rejects_zero_vectors():
    with pytest.raises(ZeroVector):
        cos_infty((0, 0), (1, 1))


def test_deformed_circle_identity():
    s = Sampler(seed=41)
    for _ in range(5):
        x, y = s.gap_trig_pair()
        for p in (1, 2, 4, 8):
            k = 2 * p + 1
            with mp.workprec(_min_precision(p)):
                c = p_cos(x, y, p)
                sn = p_sin(x, y, p)
                r = (c ** (2 * k) + sn ** (2 * k)) ** (mpf(1) / k)
            assert abs(r - 1) < 1e-9


# ---------------------------------------------------------------------------
# right angles


def test_inner3_frozen_values():
    assert inner3_limit(vec("3,-2,1"), vec("1,-1,1"), (0, 0, 0)) == 3
    assert inner3_limit((2, 0, 1), (1, 1, 0), (1, -1, 3)) == 9


def test_right_angle_detection():
    assert is_f_right_angled((2, 0), (0, -3), (0, 0))
    assert not is_f_right_angled((2, 0), (1, 1), (0, 0))


def test_orthogonal_pairing_structure():
    part = orthogonal_pairing((2, 1, 0), (1, -2, 5))
    assert part.pairs == ((1, 2),)
    assert part.leftover == 3


def test_orthogonal_pairing_rejects_nonzero_inner():
    with pytest.raises(NotOrthogonal):
        orthogonal_pairing((3, 1), (1, 1))


def test_pythagoras_on_a_right_triple():
    assert pythagoras_check((2, 0), (0, -3), (0, 0), p_grid=(1, 2, 4, 8))
    # every p is an int
    with pytest.raises(ValueError):
        pythagoras_check((2, 0), (0, -3), (0, 0), p_grid=(1.5, 2))
    # no grid means the oracle's default grid
    assert pythagoras_check((2, 0), (0, -3), (0, 0)) == pythagoras_check(
        (2, 0), (0, -3), (0, 0), p_grid=DEFAULT_P_GRID
    )
    # the identity is exact, so there is no tolerance to pass
    with pytest.raises(TypeError):
        pythagoras_check((2, 0), (0, -3), (0, 0), tol=1e-6)


def test_pythagoras_with_paired_cancellation():
    # legs built from an exact opposite-sign product pairing
    x = (q(3), q(2), q(0))
    y = (q(2), q(-3), q(5))
    assert inner3_limit(x, y, (0, 0, 0)) == 0
    assert pythagoras_check(x, y, (0, 0, 0), p_grid=(1, 2, 4))


def test_the_deformed_pythagoras_identity_is_exact_on_every_small_right_angle():
    # every triple of points of {0, ±1/2, ±1}²: at a limit right angle at z
    # the integer power sums S_uv = Σ (u_i^k − v_i^k)² of the doubled points
    # add exactly, S_xy = S_xz + S_yz, at every p; and pythagoras_check,
    # which compares them, holds there
    grid = (0, 1, 2, 8)
    points = list(itertools.product(range(-2, 3), repeat=2))
    vertices = set()  # the z of each right angle with x ≠ z ≠ y
    for a, b, c in itertools.product(points, repeat=3):
        x, y, z = ([q(v, 2) for v in u] for u in (a, b, c))
        if not is_f_right_angled(x, y, z):
            continue
        if a != c != b:
            vertices.add(c)
        for p in grid:
            k = 2 * p + 1

            def s(u, v):
                return sum((i**k - j**k) ** 2 for i, j in zip(u, v))

            assert s(a, b) == s(a, c) + s(b, c), (a, b, c, p)
        assert pythagoras_check(x, y, z, p_grid=grid), (a, b, c)
    # a right angle with two proper legs at every z, not only at the origin
    assert vertices == set(points)


def test_pythagoras_rejects_oblique_triples():
    with pytest.raises(NotRightAngled):
        pythagoras_check((2, 0), (1, 1), (0, 0))


@pytest.mark.parametrize(
    "settings, error",
    [
        ({"p_grid": (1, 2.5)}, ValueError),
        ({"p_grid": (True, 2)}, ValueError),
        ({"p_grid": (1, "2")}, ValueError),
        ({"p_grid": (1, 2.0)}, ValueError),
        ({"p_grid": ()}, ValueError),
        ({"p_grid": (1, MAX_P + 1)}, TooLarge),
        ({"p_grid": (1, -1)}, ValueError),
        ({"p_grid": (1, None)}, ValueError),
    ],
)
def test_pythagoras_checks_its_settings_before_any_work(settings, error):
    # the same grid gate as converge's: every p, a non-int p of any kind
    # included, is checked before the first one is used; on an oblique triple
    # it fires before the exact part could raise NotRightAngled
    with pytest.raises(error):
        pythagoras_check((2, 0), (0, -3), (0, 0), **settings)
    with pytest.raises(error):
        pythagoras_check((2, 0), (1, 1), (0, 0), **settings)
