"""The test rationals: the one place where a test draws a rational.

``rationals(lo, hi, den)`` samples exactly the set that
``st.fractions(min_value=lo, max_value=hi, max_denominator=den)`` admits,
every reduced k/d with d <= den and lo <= k/d <= hi, but from a list built
once, which is several times faster to draw from.  Its draws are uniform over
that set, where ``st.fractions`` favours the interval's ends; every value
stays reachable.  The list runs simplest first, so shrinking still ends at 0
and at small denominators.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from hypothesis import strategies as st

from boxlim import q


@cache
def support(lo: int, hi: int, den: int) -> tuple[Fraction, ...]:
    """Every reduced k/d with d <= den and lo <= k/d <= hi, ordered by
    denominator, then by magnitude, with a positive value before its negative."""
    values: list[Fraction] = []
    for d in range(1, den + 1):
        row = [Fraction(k, d) for k in range(lo * d, hi * d + 1) if gcd(k, d) == 1]
        values += sorted(row, key=lambda v: (abs(v), v < 0))
    return tuple(values)


def rationals(lo: int, hi: int, den: int) -> st.SearchStrategy[Fraction]:
    """Plain ``Fraction``s drawn from ``support(lo, hi, den)``."""
    return st.sampled_from(support(lo, hi, den))


def vectors(n: int, elements: st.SearchStrategy) -> st.SearchStrategy[tuple]:
    """n-tuples of ``elements``."""
    return st.lists(elements, min_size=n, max_size=n).map(tuple)


# |v| <= 10**15 with denominators up to 10**12 holds about 10**39 values, far
# too many to list, so this one support stays a hypothesis fractions strategy.
wide_rationals = st.fractions(
    min_value=-(10**15), max_value=10**15, max_denominator=10**12
)

# the tie-heavy values of the line and hull search references
TIES = tuple(Fraction(v) for v in ("0", "1/2", "-1/2", "1", "-1", "2", "-2"))

# every k/d with d <= 12 and |k/d| <= 2, and zero drawn more often
fine_values = st.one_of(st.just(Fraction(0)), rationals(-2, 2, 12))


@st.composite
def fine_triples(draw):
    """x, y and z in dimension n <= 4 with denominators up to 12 and zero
    coordinates, as Fraction or as the carrier."""
    n = draw(st.integers(1, 4))
    conv = draw(st.sampled_from((q, Fraction)))
    return tuple(tuple(conv(draw(fine_values)) for _ in range(n)) for _ in range(3))
