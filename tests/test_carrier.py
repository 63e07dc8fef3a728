"""One carrier at every scalar entry point: plain Fractions in, carrier results out.

``q`` returns a ``fractions.Fraction`` as it is; every operation converts it
on the way in.  Each entry point below is run twice, on plain Fractions and
on the same values as carriers, and must give carrier results that are equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import strategies
from boxlim import (
    alpha,
    alpha_inv,
    ball_describe,
    boxminus,
    boxplus,
    cplx,
    ctimes,
    from_polar,
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
