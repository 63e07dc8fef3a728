"""Limit lines: exact forms, membership certificates, half-lines, parallels."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import strategies
from grid_probe import line_grid_probe
from strategies import TIES, fine_triples
from boxlim import (
    half_lines,
    hyperplane_form,
    line2d_form,
    line_contains_2d,
    line_contains_nd,
    line_point,
    lower_form,
    parallel_normal_form,
    parallel_ratio,
    q,
    upper_form,
    vec,
)
from boxlim.errors import (
    DegenerateConfiguration,
    DegeneratePair,
    DimensionMismatch,
    InvalidCoefficients,
    NotParallel,
    TooLarge,
)
from boxlim._certify import SEARCH_STAGES
from boxlim.linalg import _common_rows
from boxlim.lines import _line_candidates
from boxlim.scalars import nary_boxplus

X3, Y3 = vec("3,-2,1"), vec("1,-1,1")
X2, Y2 = vec("3,1"), vec("1,-2")

deltas = st.integers(min_value=-10, max_value=10).filter(lambda d: d not in (-1, 0, 1))


def test_line_point_validates_the_coefficient_sum():
    with pytest.raises(InvalidCoefficients):
        line_point(X2, Y2, 1, -1, 0, 0)  # limit sum 0
    with pytest.raises(InvalidCoefficients):
        line_point(X2, Y2, 2, 0, 0, 0)  # limit sum 2
    assert line_point(X2, Y2, 1, 0, 0, 0) == X2
    assert line_point(X2, Y2, 0, 0, 1, 0) == Y2


@given(deltas)
def test_line_point_generates_the_certified_family(d):
    dq = q(d)
    assert line_point(X3, Y3, 1, dq, -dq, 0) == (3 * dq, -2 * dq, q(1))


def test_line2d_form_frozen_equation():
    f = line2d_form(X2, Y2)
    assert f.coeffs == (q(-2), q(3))
    assert f.constant == -6
    assert "lower_form" in f.orientation and "upper_form" in f.orientation


def test_line2d_form_rejects_equal_points():
    with pytest.raises(DegeneratePair):
        line2d_form((1, 2), (1, 2))


def test_form_membership_for_generators_and_outsiders():
    f = line2d_form(X2, Y2)
    assert line_contains_2d(f, X2)
    assert line_contains_2d(f, Y2)
    assert not line_contains_2d(f, (3, 5))
    assert not line_contains_2d(f, (0, 0))


@given(deltas)
def test_nd_membership_certifies_the_family(d):
    dq = q(d)
    z = (3 * dq, -2 * dq, q(1))
    member = line_contains_nd(X3, Y3, z)
    assert member
    assert line_point(X3, Y3, *member.certificate) == z


def test_nd_membership_of_the_generators():
    for z in (X3, Y3):
        member = line_contains_nd(X3, Y3, z)
        assert member
        assert line_point(X3, Y3, *member.certificate) == z


def test_nd_membership_rejects_off_line_points():
    member = line_contains_nd(X3, Y3, (1, 1, 5))
    assert not member
    assert member.certificate is None


def test_grid_probe_agrees_with_the_search():
    z = (6, -4, 1)
    probe = line_grid_probe(X3, Y3, z, step=1, bound=4)
    assert probe.found
    assert line_point(X3, Y3, *probe.certificate) == vec(z)
    assert not line_grid_probe(X3, Y3, (1, 1, 5), step=q(1, 2), bound=3).found


def test_grid_probe_refuses_an_oversized_grid_before_building_it():
    # 2·10^9 + 1 grid values: building them would take minutes and gigabytes
    with pytest.raises(TooLarge):
        line_grid_probe(X3, Y3, (1, 1, 5), step=q(1, 10**9), bound=1)
    with pytest.raises(TooLarge):
        line_grid_probe(X3, Y3, (1, 1, 5), step=q(1, 32), bound=10**12)
    # the default grid, step 1/32 and bound 8, is the largest admitted
    assert line_grid_probe(X3, Y3, (6, -4, 1)).found
    with pytest.raises(TooLarge):
        line_grid_probe(X3, Y3, (6, -4, 1), bound=q(257, 32))
    with pytest.raises(TooLarge):
        line_grid_probe(X3, Y3, (6, -4, 1), step=q(1, 33), bound=1)


def test_notfound_search_bumps_its_stage_counter():
    before = SEARCH_STAGES["line:notfound"]
    assert not line_contains_nd(X3, Y3, (1, 1, 5))
    assert SEARCH_STAGES["line:notfound"] == before + 1


@pytest.mark.parametrize(
    "x, y, z, certificate",
    [
        # found by the t = 1 part of stage 3
        ("1,-1,1/2", "2,2,2", "1,-1,-1", (1, 1, q(1, 4), q(-1, 2))),
        # found by the s = 1 part of stage 3
        ("-2,-2,-2", "-1,-1/2,1", "-1,1,1", (q(1, 4), q(-1, 2), 1, 1)),
    ],
)
def test_bounded_stage_certificates(x, y, z, certificate):
    before = SEARCH_STAGES["line:bounded"]
    member = line_contains_nd(vec(x), vec(y), vec(z))
    assert member.certificate == tuple(q(v) for v in certificate)
    assert SEARCH_STAGES["line:bounded"] == before + 1


# ---------------------------------------------------------------------------
# the pruned searches against unpruned enumerations in the same stage order


def _ref_matches(x, y, z, quad):
    t, r, s, w = quad
    return all(
        nary_boxplus((t * a, r * a, s * b, w * b)) == c for a, b, c in zip(x, y, z)
    )


def _valid_bounded(quad):
    return sum(v == 1 for v in quad) > sum(v == -1 for v in quad)


def _ref_line_candidates(x, y, z):
    """The breakpoint candidates of line_contains_nd in plain Fraction
    arithmetic: {0, ±1}, the signed ratios ±z_i/x_i and ±z_i/y_i, and one
    round of tie solutions ±c·x_i/y_i and ±c·y_i/x_i, in (|v|, v) order."""
    x, y, z = ([Fraction(v) for v in p] for p in (x, y, z))
    base = {Fraction(0), Fraction(1), Fraction(-1)}
    for zi, xi in zip(z, x):
        if xi != 0:
            base.add(zi / xi)
            base.add(-(zi / xi))
    for zi, yi in zip(z, y):
        if yi != 0:
            base.add(zi / yi)
            base.add(-(zi / yi))
    cand = set(base)
    for c in base:
        for xi, yi in zip(x, y):
            if xi != 0 and yi != 0:
                for r in (c * xi / yi, c * yi / xi):
                    cand.add(r)
                    cand.add(-r)
    return sorted(cand, key=lambda v: (abs(v), v))


def _ref_line_search(x, y, z):
    """Every candidate quadruple of line_contains_nd, in its order."""
    one, zero = q(1), q(0)
    if z == x:
        yield (one, zero, zero, zero)
    if z == y:
        yield (zero, zero, one, zero)
    cand = _ref_line_candidates(x, y, z)
    bounded = [c for c in cand if abs(c) <= 1]
    for c in cand:
        yield (one, c, -c, zero)
        yield (c, zero, one, -c)
    for c in cand:
        for u in bounded:
            if u != -1:
                yield from ((one, u, c, -c), (c, -c, one, u), (one, c, -c, u), (u, c, one, -c))
    for r in bounded:
        for s in bounded:
            for w in bounded:
                if w > s:
                    break
                if _valid_bounded((one, r, s, w)):
                    yield (one, r, s, w)
    for t in bounded:
        if t == 1:
            continue
        for r in bounded:
            if r > t:
                break
            for w in bounded:
                if _valid_bounded((t, r, one, w)):
                    yield (t, r, one, w)


def _ref_grid_search(step, bound):
    """Every quadruple of line_grid_probe, in its order."""
    one = q(1)
    k_unit, k_bound = int(1 / step), int(bound / step)
    unit = [i * step for i in range(-k_unit, k_unit + 1)]
    sides = [(a, b) for i, a in enumerate(unit) for b in unit[: i + 1]]
    for t, r in sides:
        for s, w in sides:
            if _valid_bounded((t, r, s, w)):
                yield (t, r, s, w)
    for c in (i * step for i in range(k_unit + 1, k_bound + 1)):
        for v in unit:
            if v != -1:
                yield from ((c, -c, one, v), (one, v, c, -c), (one, c, -c, v),
                            (one, -c, c, v), (v, c, one, -c), (v, -c, one, c))


def _first_hit(x, y, z, quads):
    return next((quad for quad in quads if _ref_matches(x, y, z, quad)), None)


@st.composite
def tie_heavy_triples(draw):
    """x ≠ y and z in dimension n ≤ 3 from {0, ±1/2, ±1, ±2}: z random, a
    line point or a hull point; values as Fraction or as the carrier."""
    n = draw(st.integers(1, 3))
    conv = draw(st.sampled_from((q, Fraction)))
    tie = st.sampled_from(TIES)
    x = tuple(draw(tie) for _ in range(n))
    y = tuple(draw(tie) for _ in range(n))
    assume(x != y)
    kind = draw(st.sampled_from(("random", "line", "hull")))
    if kind == "random":
        z = tuple(draw(tie) for _ in range(n))
    else:
        pool = TIES if kind == "line" else (Fraction(0), Fraction(1, 2), Fraction(1))
        quad = [draw(st.sampled_from(pool)) for _ in range(4)]
        quad[draw(st.integers(0, 3))] = Fraction(1)
        assume(nary_boxplus(quad) == 1)
        t, r, s, w = quad
        z = tuple(nary_boxplus((t * a, r * a, s * b, w * b)) for a, b in zip(x, y))
    return tuple(tuple(conv(v) for v in p) for p in (x, y, z))


@settings(deadline=None, max_examples=300)
@given(st.one_of(tie_heavy_triples(), fine_triples()))
def test_line_candidates_equal_the_fraction_reference(triple):
    rows, _ = _common_rows(*triple)
    assert _line_candidates(*rows) == [
        (v.numerator, v.denominator) for v in _ref_line_candidates(*triple)
    ]


@settings(deadline=None, max_examples=200)
@given(tie_heavy_triples())
def test_line_search_equals_the_unpruned_enumeration(triple):
    x, y, z = triple
    member = line_contains_nd(x, y, z)
    assert member.certificate == _first_hit(x, y, z, _ref_line_search(x, y, z))
    assert member.found == (member.certificate is not None)


@settings(deadline=None, max_examples=200)
@given(tie_heavy_triples())
def test_grid_probe_equals_the_unpruned_enumeration(triple):
    x, y, z = triple
    step, bound = q(1, 2), q(2)
    probe = line_grid_probe(x, y, z, step=step, bound=bound)
    assert probe.certificate == _first_hit(x, y, z, _ref_grid_search(step, bound))
    assert probe.found == (probe.certificate is not None)


_HALVES = st.integers(-8, 8).map(lambda k: q(k, 2))
_POINTS_2D = st.tuples(_HALVES, _HALVES)


@settings(deadline=None, max_examples=1000)
@given(_POINTS_2D, _POINTS_2D, _POINTS_2D)
def test_nd_search_agrees_with_the_2d_line_equation(x, y, z):
    # in 2D the line equation is exact, so it is an oracle for the search,
    # NotFound answers included
    try:
        form = line2d_form(x, y)
    except (DegeneratePair, DegenerateConfiguration):
        assume(False)
    assert bool(line_contains_nd(x, y, z)) == line_contains_2d(form, z)


def test_notfound_answers_agree_with_the_grid_probe():
    rng = random.Random(4)
    misses = 0
    while misses < 20:
        n = rng.choice((2, 3))
        x, y, z = (tuple(q(rng.choice(TIES)) for _ in range(n)) for _ in range(3))
        if x == y or line_contains_nd(x, y, z):
            continue
        misses += 1
        assert not line_grid_probe(x, y, z, step=q(1, 2), bound=3)


# ---------------------------------------------------------------------------
# half-lines


def test_half_lines_cover_both_senses():
    lo, hi = half_lines(X2, Y2)
    assert lo.sense == 1 and hi.sense == -1
    assert lo.t_min == 1 and hi.t_min == 1


@given(strategies.rationals(1, 4, 4).map(q))
def test_half_line_points_stay_on_the_line(t):
    f = line2d_form(X2, Y2)
    for h in half_lines(X2, Y2):
        z = h.point(t)
        assert line_contains_2d(f, z)
        assert line_point(X2, Y2, *h.certificate(t)) == z


def test_half_line_points_below_t_min_raise():
    for h in half_lines(X2, Y2):
        with pytest.raises(InvalidCoefficients):
            h.point(q(1, 2))
        with pytest.raises(InvalidCoefficients):
            h.certificate(q(1, 2))


def test_half_line_supports_are_disjoint():
    lo, hi = half_lines(X2, Y2)
    pts_lo = {lo.point(q(k, 2)) for k in range(2, 9)}
    pts_hi = {hi.point(q(k, 2)) for k in range(2, 9)}
    assert not pts_lo & pts_hi


# ---------------------------------------------------------------------------
# parallels


def test_parallel_frozen_example():
    a, b = vec("3,1"), vec("1,-2")
    c, d = vec("-2,4"), vec("-6,1")
    assert parallel_ratio(a, b, c, d) == q(1, 2)
    coeffs, low, high = parallel_normal_form(a, b, c, d)
    assert coeffs == (q(-2), q(3))
    assert (low, high) == (q(-6), q(12))


def test_parallel_rejects_independent_directions():
    with pytest.raises(NotParallel):
        parallel_ratio((3, 1), (1, -2), (0, 0), (1, 1))


@given(strategies.rationals(-3, 3, 4).map(q).filter(bool))
def test_parallel_ratio_recovers_the_scale(c):
    a, b = vec("3,1"), vec("1,-2")
    # the limit difference a ⊟ b is (3, 2); anchoring v at the origin makes
    # u ⊟ v = u, so the pair (u, 0) with u = (3/c, 2/c) has ratio exactly c
    u = (q(3) / c, q(2) / c)
    v = (q(0), q(0))
    assert parallel_ratio(a, b, u, v) == c


# ---------------------------------------------------------------------------
# hyperplanes


def test_hyperplane_form_through_three_points():
    pts = [vec("3,-2,1"), vec("1,-1,1"), vec("0,0,2")]
    f = hyperplane_form(pts)
    assert len(f.coeffs) == 3
    for p in pts:
        assert lower_form(f.coeffs, p) <= f.constant <= upper_form(f.coeffs, p)


@pytest.mark.parametrize("points, given, dim", [
    ([(1, 2)], 1, 2),
    ([(1, 2), (3, 4), (5, 6)], 3, 2),
    ([(1, 2), (3, 4, 5)], 2, 3),
])
def test_hyperplane_form_names_the_point_count_and_the_dimension_found(
    points, given, dim
):
    with pytest.raises(DimensionMismatch) as exc:
        hyperplane_form(points)
    assert str(exc.value) == (
        f"got {given} point(s) with one of dimension {dim}; "
        "a hyperplane form needs n points of dimension n"
    )


def test_hyperplane_form_rejects_degenerate_configurations():
    with pytest.raises((DegenerateConfiguration, DegeneratePair)):
        hyperplane_form([(1, 1, 1), (2, 2, 2), (3, 3, 3)])
