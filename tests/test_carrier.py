"""One carrier at every scalar entry point: plain Fractions in, carrier results out.

``q`` returns a ``fractions.Fraction`` as it is; an operation reads it in
place, and only the returned value is a new carrier.  Each entry point below
is run twice, on plain Fractions and on the same values as carriers, and must
give carrier results that are equal.  Every input is still checked, also one
that cannot decide the result, and a carrier input that is the result comes
back as the same object.  The finite-p evaluators and the limit
determinant read vectors and matrices in place, into integer rows: plain
Fractions, carriers and comma literals give the same bits.  The certificate
searches read their points into integer rows too: every input form gives
the same answer, the same carrier certificate and the same search stages.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import strategies
from grid_probe import line_grid_probe
from boxlim import (
    AngleParam,
    alpha,
    alpha_inv,
    ball_contains,
    ball_describe,
    boxminus,
    boxplus,
    co_contains,
    cplx,
    ctimes,
    det_infty,
    dist_boxplus,
    from_polar,
    line_contains_nd,
    line_point,
    lower_form,
    mp_otimes,
    msym,
    nary_boxplus,
    pcos,
    psin,
    smile_minus,
    smile_plus,
    upper_form,
    vec,
)
from boxlim.deform import (
    co_p_sample,
    exact_power_sum_is_zero,
    line_p_sample,
    p_cos,
    p_det,
    p_dist,
    p_inner,
    p_matvec,
    p_norm,
    p_sin,
    p_sum,
)
from boxlim._certify import SEARCH_STAGES
from boxlim.errors import DegeneratePair, DimensionMismatch
from boxlim.maxplus import mp_hull_contains
from boxlim.scalars import ScalarQ

fractions_ = strategies.rationals(-9, 9, 7)
triples = st.tuples(fractions_, fractions_, fractions_)


def _as_carrier(f: Fraction) -> ScalarQ:
    return ScalarQ(f.numerator, f.denominator)


def _boundary(a: Fraction, b: Fraction) -> tuple:
    """A point on the unit-square boundary built from two rationals."""
    m = max(abs(a), abs(b))
    return (Fraction(1), Fraction(0)) if m == 0 else (a / m, b / m)


# each entry point as a function of three rationals, returning scalars
ENTRY_POINTS = {
    "boxplus": lambda a, b, c: [boxplus(a, b)],
    "boxminus": lambda a, b, c: [boxminus(a, b)],
    "nary_boxplus": lambda a, b, c: [nary_boxplus((a, b, c)), nary_boxplus((a, b, c), {1, 3})],
    "nary_boxplus_indexed": lambda a, b, c: [nary_boxplus((a, -a, c), index_set={1, 2, 3})],
    "smile_minus": lambda a, b, c: [smile_minus((a, b, c))],
    "smile_plus": lambda a, b, c: [smile_plus((a, b, c))],
    "lower_form": lambda a, b, c: [lower_form((a, b), (b, c))],
    "upper_form": lambda a, b, c: [upper_form((a, b), (b, c))],
    "vec": lambda a, b, c: list(vec((a, b, c))),
    "cplx": lambda a, b, c: [cplx(a, b).re, cplx(a, b).im, cplx(c).re],
    "ctimes": lambda a, b, c: [ctimes(cplx(a, b), cplx(c, a)).re, ctimes(cplx(a, b), cplx(c, a)).im],
    "msym": lambda a, b, c: [msym(1, a).logmag, msym(-1, b).logmag],
    "mp_otimes": lambda a, b, c: [mp_otimes(msym(1, a), msym(-1, b)).logmag],
    "pcos": lambda a, b, c: [pcos(a), pcos(8 * c)],
    "psin": lambda a, b, c: [psin(a), psin(8 * c)],
    "alpha": lambda a, b, c: [alpha(_boundary(a, b)).theta],
    "alpha_inv": lambda a, b, c: list(alpha_inv(a)),
    "from_polar": lambda a, b, c: [from_polar(b, a).re, from_polar(b, a).im],
    "ball_describe": lambda a, b, c: [ball_describe((a, b), abs(c)).radius],
    "dist_boxplus": lambda a, b, c: [dist_boxplus((a, b), (b, c)), dist_boxplus((a, c), (-a, c))],
    "det_infty": lambda a, b, c: [det_infty(((a, b, c), (c, a, b), (b, -c, a)))],
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(abc=triples)
def test_fraction_inputs_give_carrier_results(name, abc):
    op = ENTRY_POINTS[name]
    from_fractions = op(*abc)
    from_carriers = op(*map(_as_carrier, abc))
    assert all(type(v) is ScalarQ for v in from_fractions)
    assert all(type(v) is ScalarQ for v in from_carriers)
    assert from_fractions == from_carriers


def _literal(values) -> str:
    return ",".join(str(v) for v in values)


# each finite-p entry point as a function of three rationals and of the form
# a vector is passed in (a matrix is passed as a tuple of rows in that form)
FINITE_P = {
    "p_sum": lambda a, b, c, form: p_sum(form((a, b, c)), 2),
    "exact_power_sum_is_zero": lambda a, b, c, form: exact_power_sum_is_zero(form((a, -a, c)), 2),
    "p_inner": lambda a, b, c, form: p_inner(form((a, b)), form((c, a)), 2),
    "p_norm": lambda a, b, c, form: p_norm(form((a, b, c)), 2),
    "p_dist": lambda a, b, c, form: p_dist(form((a, b)), form((b, c)), 2),
    "p_det": lambda a, b, c, form: p_det((form((a, b, c)), form((c, a, b)), form((b, -c, a))), 2),
    "p_matvec": lambda a, b, c, form: p_matvec((form((a, b)), form((c, a))), form((b, c)), 2),
    "p_cos": lambda a, b, c, form: p_cos(form((a, b)), form((c, 1)), 2),
    "p_sin": lambda a, b, c, form: p_sin(form((a, 1)), form((b, c)), 2),
    "co_p_sample": lambda a, b, c, form: co_p_sample(form((a, b)), form((c, 1)), 2, Fraction(1, 3)),
    "line_p_sample": lambda a, b, c, form: line_p_sample(form((a, b)), form((c, 1)), 2, Fraction(-2, 5)),
}


def _outcome(call) -> tuple:
    """The exact bits of a finite-p result (an mpf, a tuple of them or a
    bool), or the type and message of what it raised."""
    try:
        out = call()
    except Exception as exc:  # compared across the input forms
        return ("raised", type(exc), str(exc))
    return tuple(v._mpf_ for v in out) if isinstance(out, tuple) else getattr(out, "_mpf_", out)


@pytest.mark.parametrize("name", sorted(FINITE_P))
@given(abc=triples)
def test_finite_p_results_do_not_depend_on_the_input_form(name, abc):
    op = FINITE_P[name]
    from_fractions = _outcome(lambda: op(*abc, tuple))
    from_carriers = _outcome(lambda: op(*abc, lambda v: tuple(map(_as_carrier, v))))
    from_literals = _outcome(lambda: op(*abc, _literal))
    assert from_fractions == from_carriers == from_literals


def _msyms(signs, logmags) -> tuple:
    """Max-plus points from signs and a vector of log-magnitudes in any form."""
    parts = logmags.split(",") if isinstance(logmags, str) else logmags
    return tuple(msym(s, v) for s, v in zip(signs, parts))


def _hull(a, b, c, form):
    # z is the hull point with coefficients (1/2, 0, 1, 0) when a > 0
    x, y = (a, b, 1), (c, b, 0)
    z = (Fraction(boxplus(a / 2, c)), b, Fraction(1, 2)) if a > 0 else (c, a, Fraction(1, 2))
    return co_contains(form(x), form(y), form(z))


def _line(a, b, c, form):
    # z is the line point with coefficients (b, 0, 1, −b) when a > 0
    x, y = (a, b, 1), (c, b, -1)
    z = tuple(map(Fraction, line_point(x, y, b, 0, 1, -b))) if a > 0 else (a, 0, b)
    return line_contains_nd(form(x), form(y), form(z))


# each certificate search as a function of three rationals and of the form a
# point is passed in
SEARCHES = {
    "co_contains": _hull,
    "line_contains_nd": _line,
    "line_grid_probe": lambda a, b, c, form: line_grid_probe(
        form((a, 1)), form((c, b)), form((b, 1)), step=Fraction(1, 2), bound=2),
    "mp_hull_contains": lambda a, b, c, form: mp_hull_contains(
        _msyms((1, -1), form((a, b))), _msyms((-1, 1), form((c, b))),
        _msyms((1, 1), form((a, b)))),
}

# the forms a point is passed in: plain Fractions, carriers, each integral
# entry as an int, and a comma literal
POINT_FORMS = (
    tuple,
    lambda v: tuple(map(_as_carrier, v)),
    lambda v: tuple(int(w) if w.denominator == 1 else w for w in v),
    _literal,
)


def _search_outcome(call) -> tuple:
    """The answer, the certificate and the ``SEARCH_STAGES`` delta of a
    search, or the type and message of what it raised."""
    before = SEARCH_STAGES.copy()
    try:
        out = call()
    except Exception as exc:  # compared across the input forms
        return ("raised", type(exc), str(exc))
    delta = SEARCH_STAGES - before
    if isinstance(out, bool):
        return out, None, delta
    if out.certificate is not None:
        assert all(type(v) is ScalarQ for v in out.certificate)
    return out.found, out.certificate, delta


@pytest.mark.parametrize("name", sorted(SEARCHES))
@given(abc=triples)
def test_search_results_do_not_depend_on_the_input_form(name, abc):
    op = SEARCHES[name]
    first, *rest = (_search_outcome(lambda: op(*abc, form)) for form in POINT_FORMS)
    assert all(out == first for out in rest)


_X, _Y = (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))

# malformed points for the three searches, with what each search raises; a
# line needs x ≠ y, which is checked before z is read, while the hull of x
# and x is a set like any other
MALFORMED = [
    ((_X, _Y, (Fraction(1), 0.5)), (TypeError, "no exact rational from float: 0.5") * 3),
    ((_X, _Y, (1, 2, 3)), (DimensionMismatch, "dim 2 vs 3") * 3),
    ((_X, _Y, 5), (TypeError, "'int' object is not iterable") * 3),
    ((_X, _Y, "1,x"), (ValueError, "Invalid literal for Fraction: 'x'") * 3),
    (((1, 0.5), _Y, (1, 2)), (TypeError, "no exact rational from float: 0.5") * 3),
    ((_X, (1,), (1, 2)), (DimensionMismatch, "dim 2 vs 1") * 3),
    ((_X, 3, (1, 2)), (TypeError, "'int' object is not iterable") * 3),
    ((_X, _X, (1, 2)), (True, None) + (DegeneratePair, "two distinct points are required") * 2),
    ((_X, _X, (1, 0.5)), (TypeError, "no exact rational from float: 0.5")
     + (DegeneratePair, "two distinct points are required") * 2),
    ((_X, _X, (1,)), (DimensionMismatch, "dim 2 vs 1")
     + (DegeneratePair, "two distinct points are required") * 2),
]


def _raised(call) -> tuple:
    try:
        return call(), None
    except Exception as exc:  # compared with the expected type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("points, expected", MALFORMED)
def test_the_searches_reject_malformed_points_in_order(points, expected):
    got = ()
    for search in (co_contains, line_contains_nd, line_grid_probe):
        got += _raised(lambda: search(*points))
    assert got == expected


FIVE = ScalarQ(5)


@pytest.mark.parametrize("call", [
    lambda: boxplus(Fraction(3), 0.0),
    lambda: boxminus(0.5, Fraction(3)),
    lambda: nary_boxplus((Fraction(3), 0.0)),
    lambda: nary_boxplus((Fraction(3), 0.0), index_set={1}),
    lambda: smile_minus((Fraction(3), 0.0)),
    lambda: smile_plus((0.0, Fraction(3))),
    lambda: lower_form((Fraction(1), 0.5), (Fraction(1), Fraction(1))),
    lambda: upper_form((Fraction(1), Fraction(1)), (Fraction(1), 0.5)),
    lambda: dist_boxplus((0.5, 1), (0.5, 2)),
    lambda: dist_boxplus((Fraction(3), Fraction(1)), (Fraction(3), 0.25)),
    lambda: ball_contains(ball_describe((3, 2), 1), (Fraction(4), 0.0)),
    lambda: pcos(0.5),
    lambda: p_sum((Fraction(3), Fraction(0), 0.5), 1),
    lambda: p_det(((Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0, 0.5)), 1),
    lambda: det_infty(((Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0, 0.5))),
    lambda: co_p_sample((Fraction(1), Fraction(2)), (Fraction(3), 0.5), 1, 0),
])
def test_every_input_is_checked_even_where_it_cannot_decide_the_result(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: p_det(((Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0)), 1),
    lambda: det_infty(((Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0))),
    lambda: det_infty(((Fraction(1), 0, 0), (0, Fraction(1)), (0, 0, Fraction(1)))),
])
def test_a_ragged_matrix_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_dist_boxplus_still_checks_the_dimensions():
    with pytest.raises(DimensionMismatch):
        dist_boxplus((Fraction(1), Fraction(2)), (Fraction(1),))
    with pytest.raises(DimensionMismatch):
        dist_boxplus((), (Fraction(1),))


@pytest.mark.parametrize("call", [
    lambda: boxplus(FIVE, Fraction(1)),
    lambda: boxplus(Fraction(-1), FIVE),
    lambda: boxplus(FIVE, Fraction(5)),
    lambda: boxminus(FIVE, Fraction(-1)),
    lambda: nary_boxplus((Fraction(1), FIVE, Fraction(-2))),
    lambda: nary_boxplus((FIVE, Fraction(5), Fraction(-5))),
    lambda: smile_plus((Fraction(1), FIVE, Fraction(-5))),
    lambda: smile_minus((Fraction(1), FIVE, Fraction(5), Fraction(-2))),
    lambda: dist_boxplus((Fraction(1), FIVE), (Fraction(1), Fraction(-2))),
    lambda: AngleParam(FIVE).theta,
])
def test_a_carrier_input_that_is_the_result_comes_back_as_itself(call):
    assert call() is FIVE
