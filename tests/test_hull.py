"""Two-point hulls: combinations, membership, distance decomposition."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

import strategies
from strategies import TIES, fine_triples
from boxlim import (
    HullCombination,
    co_contains,
    co_orthant,
    co_point,
    dist_boxplus,
    dist_decomposition_check,
    q,
    vec,
)
from boxlim.errors import (
    DimensionMismatch,
    InvalidCoefficients,
    InvalidCombination,
    NotAMember,
    OrthantViolation,
)
from boxlim._certify import SEARCH_STAGES
from boxlim.hull import _coord_feasible, _hull_candidates
from boxlim.linalg import _common_rows
from boxlim.scalars import nary_boxplus

X, Y = vec("3,1"), vec("1,-2")

unit_coeffs = strategies.rationals(0, 1, 4).map(q)
rationals = strategies.rationals(-5, 5, 4).map(q)
vectors = partial(strategies.vectors, elements=rationals)


@st.composite
def combinations(draw):
    cs = [draw(unit_coeffs) for _ in range(4)]
    cs[draw(st.integers(0, 3))] = q(1)  # max must be exactly 1
    return HullCombination(*cs)


def test_combination_validates_range_and_max():
    with pytest.raises(InvalidCombination):
        HullCombination(1, 2, 0, 0)
    with pytest.raises(InvalidCombination):
        HullCombination(q(1, 2), q(1, 2), 0, 0)
    with pytest.raises(InvalidCombination):
        HullCombination(1, q(-1, 4), 0, 0)
    assert HullCombination(1, 0, q(3, 4), 0).as_tuple() == (q(1), q(0), q(3, 4), q(0))


def test_co_point_hits_the_generators():
    assert co_point(X, Y, (1, 0, 0, 0)) == X
    assert co_point(X, Y, (0, 0, 1, 0)) == Y
    assert co_point(X, Y, (1, 1, 1, 1)) == (q(3), q(-2))  # coordinatewise x ⊞ y


def test_co_point_frozen_interior_sample():
    assert co_point(X, Y, (q(1, 2), 0, 1, 0)) == (q(3, 2), q(-2))


@settings(deadline=None)
@given(combinations())
def test_hull_points_are_members(c):
    z = co_point(X, Y, c)
    assert co_contains(X, Y, z)


@settings(deadline=None, max_examples=30)
@given(st.tuples(vectors(3), vectors(3)), combinations())
def test_hull_points_are_members_3d(pair, c):
    x, y = pair
    z = co_point(x, y, c)
    assert co_contains(x, y, z)


def test_membership_frozen_probes():
    assert co_contains(X, Y, X)
    assert co_contains(X, Y, Y)
    assert co_contains(X, Y, (3, 0))
    assert co_contains(X, Y, (q(3, 2), -2))
    assert not co_contains(X, Y, (4, 0))  # beyond every generator magnitude
    assert not co_contains(X, Y, (0, 0))  # same-sign products cannot cancel
    assert not co_contains(X, Y, (-3, 0))  # sign infeasible coordinate


def _ref_hull_candidates(x, y, z):
    """The breakpoint candidates of co_contains in plain Fraction
    arithmetic: {0, 1}, the ratios |z_i|/|x_i| and |z_i|/|y_i| up to 1, and
    one round of tie solutions c·|x_i|/|y_i| and c·|y_i|/|x_i| up to 1,
    ascending."""
    x, y, z = ([Fraction(v) for v in p] for p in (x, y, z))
    cand = {Fraction(0), Fraction(1)}
    for zi, xi in zip(z, x):
        if xi != 0:
            r = abs(zi) / abs(xi)
            if r <= 1:
                cand.add(r)
    for zi, yi in zip(z, y):
        if yi != 0:
            r = abs(zi) / abs(yi)
            if r <= 1:
                cand.add(r)
    for c in list(cand):
        for xi, yi in zip(x, y):
            if yi != 0 and xi != 0:
                for r in (c * abs(xi) / abs(yi), c * abs(yi) / abs(xi)):
                    if r <= 1:
                        cand.add(r)
    return sorted(cand)


def _ref_co_contains(x, y, z):
    """co_contains without pruning: every candidate quadruple, in its order.

    Returns the ``SEARCH_STAGES`` key of the part that matched first
    (``hull:t1`` or ``hull:s1``), or None for a non-member."""
    if not all(_coord_feasible(c, a, b) for c, a, b in zip(z, x, y)):
        return None

    def matches(t, r, s, w):
        return all(
            nary_boxplus((t * a, r * a, s * b, w * b)) == c
            for a, b, c in zip(x, y, z)
        )

    one = q(1)
    cand = _ref_hull_candidates(x, y, z)
    if any(matches(one, r, s, w) for s in cand for w in cand if w <= s for r in cand):
        return "hull:t1"
    if any(
        matches(t, r, one, w)
        for t in cand if t != 1 for r in cand if r <= t for w in cand
    ):
        return "hull:s1"
    return None


@st.composite
def tie_heavy_triples(draw):
    """x ≠ y and z in dimension n ≤ 3 from {0, ±1/2, ±1, ±2}: z random or a
    hull point; values as Fraction or as the carrier."""
    n = draw(st.integers(1, 3))
    conv = draw(st.sampled_from((q, Fraction)))
    tie = st.sampled_from(TIES)
    x = tuple(draw(tie) for _ in range(n))
    y = tuple(draw(tie) for _ in range(n))
    assume(x != y)
    if draw(st.booleans()):
        z = tuple(draw(tie) for _ in range(n))
    else:
        z = co_point(x, y, draw(combinations()))
    return tuple(tuple(conv(v) for v in p) for p in (x, y, z))


@settings(deadline=None, max_examples=200)
@given(tie_heavy_triples())
def test_membership_equals_the_unpruned_enumeration(triple):
    part = _ref_co_contains(*triple)
    before = SEARCH_STAGES.copy()
    assert co_contains(*triple) == (part is not None)
    if part is not None:
        assert SEARCH_STAGES[part] == before[part] + 1


@settings(deadline=None, max_examples=300)
@given(st.one_of(tie_heavy_triples(), fine_triples()))
def test_hull_candidates_equal_the_fraction_reference(triple):
    rows, _ = _common_rows(*triple)
    assert _hull_candidates(*rows) == [
        (v.numerator, v.denominator) for v in _ref_hull_candidates(*triple)
    ]


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        co_contains(X, Y, (1, 2, 3))


def test_distance_decomposition_on_members():
    assert dist_boxplus(X, Y) == 3
    for z in (X, Y, vec("3/2,-2"), vec("3,0")):
        assert dist_decomposition_check(X, Y, z)


def test_distance_decomposition_rejects_non_members():
    with pytest.raises(NotAMember):
        dist_decomposition_check(X, Y, (4, 0))


@settings(deadline=None, max_examples=50)
@given(combinations())
def test_distance_decomposition_along_the_hull(c):
    z = co_point(X, Y, c)
    assert dist_decomposition_check(X, Y, z)


# ---------------------------------------------------------------------------
# same-orthant hulls and chains


def test_co_orthant_is_the_scaled_extremum():
    pts = [(1, 2), (3, 1), (2, 0)]
    out = co_orthant(pts, (q(1, 2), 1, q(1, 4)))
    assert out == (q(3), q(1))


def test_co_orthant_rejects_mixed_signs():
    with pytest.raises(OrthantViolation):
        co_orthant([(1, 2), (-1, 1)], (1, 1))


def test_co_orthant_validates_coefficients():
    with pytest.raises(InvalidCoefficients):
        co_orthant([(1, 2), (2, 1)], (q(1, 2), q(1, 2)))
    with pytest.raises(InvalidCoefficients):
        co_orthant([(1, 2), (2, 1)], (1,))
