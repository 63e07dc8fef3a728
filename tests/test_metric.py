"""The limit ultrametric, ball descriptors, and sequence convergence."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

import strategies
from boxlim import (
    Fixed,
    Free,
    ball_contains,
    ball_describe,
    dist_boxplus,
    q,
    scale,
    vec,
)
from boxlim.errors import DimensionMismatch, NegativeRadius
from boxlim.metric import f_limit_check

rationals = strategies.rationals(-6, 6, 6).map(q)
vectors = partial(strategies.vectors, elements=rationals)
triples = st.integers(1, 4).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n), vectors(n))
)


def test_dist_frozen_value():
    assert dist_boxplus(vec("3,-2,1"), vec("1,-1,1")) == 3


@given(triples)
def test_dist_symmetry_and_identity(t):
    x, y, _ = t
    assert dist_boxplus(x, y) == dist_boxplus(y, x)
    assert dist_boxplus(x, x) == 0
    assert (dist_boxplus(x, y) == 0) == (x == y)


@given(triples)
def test_dist_strong_triangle(t):
    x, y, z = t
    assert dist_boxplus(x, z) <= max(dist_boxplus(x, y), dist_boxplus(y, z))


@given(triples)
def test_dist_isosceles_two_largest_equal(t):
    x, y, z = t
    sides = sorted(
        (dist_boxplus(x, y), dist_boxplus(y, z), dist_boxplus(x, z)), reverse=True
    )
    assert sides[0] == sides[1]


@given(rationals, triples)
def test_dist_scaling(c, t):
    x, y, _ = t
    assert dist_boxplus(scale(c, x), scale(c, y)) == abs(c) * dist_boxplus(x, y)


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_boxplus((1, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# balls


def test_ball_regimes_at_the_worked_center():
    center = vec("3,2")
    # radius below both coordinates: a single point
    assert ball_describe(center, 1).coords == (Fixed(q(3)), Fixed(q(2)))
    # radius between the coordinate magnitudes: a segment
    assert ball_describe(center, q(5, 2)).coords == (Fixed(q(3)), Free(q(5, 2)))
    # radius reaching the largest magnitude: the full square appears
    assert ball_describe(center, 3).coords == (Free(q(3)), Free(q(3)))
    assert ball_describe(center, 4).coords == (Free(q(4)), Free(q(4)))


def test_ball_membership_probes():
    center = vec("3,2")
    probes = [
        (q(1), vec("3,2"), True),
        (q(1), vec("3,1"), False),
        (q(5, 2), vec("3,-2"), True),
        (q(5, 2), vec("5/2,0"), False),
        (q(3), vec("-3,3"), True),
        (q(4), vec("-4,4"), True),
        (q(4), vec("9/2,0"), False),
    ]
    for radius, z, expect in probes:
        assert ball_contains(ball_describe(center, radius), z) is expect


def test_ball_rejects_negative_radius():
    with pytest.raises(NegativeRadius):
        ball_describe((1, 2), -1)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n)),
), strategies.rationals(0, 6, 4).map(q))
def test_ball_membership_matches_the_distance(pair, radius):
    center, z = pair
    desc = ball_describe(center, radius)
    assert ball_contains(desc, z) == (dist_boxplus(center, z) <= radius)


# ---------------------------------------------------------------------------
# sequence convergence in the limit sense


def test_f_limit_check_accepts_exact_attainment():
    seq = [(q(3), q(1, k)) for k in range(1, 41)]
    assert f_limit_check(seq, (3, 0), eps=q(1, 30))


def test_f_limit_check_requires_exact_nonzero_coordinates():
    seq = [(q(3) - q(1, k), q(0)) for k in range(1, 41)]
    assert not f_limit_check(seq, (3, 0), eps=q(1, 30))


def test_f_limit_check_bounds_zero_coordinates():
    seq = [(q(3), q(1)) for _ in range(40)]
    assert not f_limit_check(seq, (3, 0), eps=q(1, 30))


def test_f_limit_check_rejects_late_departure():
    seq = [(q(3), q(0))] * 39 + [(q(2), q(0))]
    assert not f_limit_check(seq, (3, 0))


def test_f_limit_check_reads_a_float_eps_exactly():
    # 0.1 stores slightly more than 1/10, so a tail at exactly 1/10 passes
    seq = [(q(3), q(1, 10))] * 40
    assert f_limit_check(seq, (3, 0), eps=0.1)
    assert not f_limit_check(seq, (3, 0), eps=q(1, 11))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            f_limit_check(seq, (3, 0), eps=bad)
