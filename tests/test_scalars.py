"""Scalar limit arithmetic: ⊞ laws, the n-ary sum Ϝ, smiles, and symmetric forms."""

import math
import numbers
import operator
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import strategies
from boxlim import (
    boxminus,
    boxplus,
    lower_form,
    nary_boxplus,
    q,
    smile_minus,
    smile_plus,
    upper_form,
)
from boxlim.errors import EmptyIndexSet, EmptyList, TooLarge
from boxlim.sampling import gap_ok
from boxlim.scalars import QFraction, ScalarQ, _levels, _nary_ints, residual_index_set, xi

rationals = strategies.rationals(-8, 8, 8).map(q)
value_lists = st.lists(rationals, min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# coercion


def test_q_parses_ints_strings_fractions():
    assert q(7) == 7
    assert q("3/2") == q(3, 2)
    assert q("-0.25") == q(-1, 4)
    assert q(Fraction(5, 3)) == q(5, 3)
    assert q(" 2/4 ") == q(1, 2)


def test_q_rejects_floats():
    with pytest.raises(TypeError):
        q(0.1)


def test_q_reads_decimal_exponents_exactly():
    assert q("1e3") == 1000
    assert q("-2.5E-2") == q(-1, 40)
    assert q("1_0e1_0") == 10**11
    assert q(" 3e+2 ") == 300


@pytest.mark.parametrize("literal", ["1e10000000", "-2.5e-10000000", "1E100000000", "1e4301"])
def test_q_bounds_the_decimal_exponent_before_building_a_power(literal):
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        q(literal)
    assert time.perf_counter() - start < 0.5


def test_q_accepts_an_exponent_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert q(f"1e{limit}") == 10**limit
    assert q(f"1e-{limit}") == q(1, 10**limit)


# ---------------------------------------------------------------------------
# binary sum


def test_boxplus_frozen_values():
    assert boxplus(3, 1) == 3
    assert boxplus(1, 3) == 3
    assert boxplus(-3, 3) == 0
    assert boxplus(2, 2) == 2
    assert boxplus(0, 5) == 5
    assert boxplus(-4, 1) == -4
    assert boxplus(0, 0) == 0


@given(rationals)
def test_boxplus_idempotent(a):
    assert boxplus(a, a) == a


@given(rationals, rationals)
def test_boxplus_commutative(a, b):
    assert boxplus(a, b) == boxplus(b, a)


@given(rationals)
def test_boxplus_zero_neutral(a):
    assert boxplus(a, 0) == a


@given(rationals)
def test_boxplus_symmetric_element(a):
    assert boxplus(a, -a) == 0


@given(rationals, rationals)
def test_boxplus_result_is_an_argument_or_zero(a, b):
    r = boxplus(a, b)
    assert r in (a, b, q(0))
    assert abs(r) <= max(abs(a), abs(b))


@given(rationals, rationals, rationals)
def test_boxplus_weak_associativity(a, b, c):
    # associativity holds whenever no partial sum hits a symmetric tie
    if boxplus(a, b) != 0 and boxplus(b, c) != 0 and boxplus(a, c) != 0:
        left = boxplus(boxplus(a, b), c)
        right = boxplus(a, boxplus(b, c))
        assert left == right == nary_boxplus((a, b, c))


@given(rationals, rationals, rationals)
def test_boxplus_homogeneity(c, a, b):
    assert c * boxplus(a, b) == boxplus(c * a, c * b)


@given(rationals, rationals)
def test_boxminus_is_sum_with_negation(a, b):
    assert boxminus(a, b) == boxplus(a, -b)
    assert (boxminus(a, b) == 0) == (a == b)


# ---------------------------------------------------------------------------
# n-ary sum


def test_nary_frozen_value():
    assert nary_boxplus((-3, -2, 3, 3, 1, -3)) == -2


def test_nary_empty_raises():
    with pytest.raises(EmptyIndexSet):
        nary_boxplus(())


@given(value_lists)
def test_nary_result_is_a_value_or_zero(vals):
    r = nary_boxplus(vals)
    assert r == 0 or r in vals
    assert abs(r) <= max(abs(v) for v in vals)


@given(rationals, rationals)
def test_nary_agrees_with_boxplus_on_pairs(a, b):
    assert nary_boxplus((a, b)) == boxplus(a, b)


@given(value_lists.flatmap(lambda vs: st.permutations(vs).map(lambda p: (vs, p))))
def test_nary_is_order_independent(pair):
    vals, perm = pair
    assert nary_boxplus(vals) == nary_boxplus(perm)


@given(st.lists(rationals, min_size=2, max_size=6))
def test_nary_bracket_decomposition(vals):
    # peeling one element off against the rest lands in {0, Ϝ}, and the
    # brackets recombine to Ϝ of the full list
    f = nary_boxplus(vals)
    brackets = []
    for i, v in enumerate(vals):
        rest = vals[:i] + vals[i + 1 :]
        b = boxplus(v, nary_boxplus(rest))
        assert b == 0 or b == f
        brackets.append(b)
    assert nary_boxplus(brackets) == f


@given(rationals, value_lists)
def test_nary_homogeneity(c, vals):
    assert c * nary_boxplus(vals) == nary_boxplus([c * v for v in vals])


# ---------------------------------------------------------------------------
# indexed tuples and symmetry counts


def test_xi_counts_signed_occurrences():
    assert xi((3, -3, 3), 3) == 1
    assert xi((3, -3, 3), -3) == -1
    assert xi((3, -3, 3), 5) == 0
    assert xi((3, -3, 3), 3, index_set={1, 2}) == 0


def test_residual_index_set_drops_cancelled_groups():
    assert residual_index_set((2, -2, 1)) == frozenset({3})
    assert residual_index_set((2, -2, 2)) == frozenset({1, 2, 3})
    assert residual_index_set((1, -1)) == frozenset()


@given(st.lists(rationals, min_size=1, max_size=6))
def test_residual_restriction_preserves_nary(vals):
    res = residual_index_set(vals)
    if res:
        assert nary_boxplus(vals, res) == nary_boxplus(vals)
    else:
        assert nary_boxplus(vals) == 0


def test_index_set_restricts_the_sum():
    assert nary_boxplus((5, -5, 3), index_set={1, 2, 3}) == nary_boxplus((5, -5, 3)) == 3
    assert nary_boxplus((5, -5, 3), index_set={1, 3}) == 5
    with pytest.raises(IndexError):
        nary_boxplus((1, 2), index_set={3})


@pytest.mark.parametrize("positions", [[1.9, 2.5], [2.0], [True], [1, False], ["2"], [q(2)]])
def test_positions_that_are_not_ints_raise(positions):
    with pytest.raises(ValueError):
        nary_boxplus((3, -2, 1), index_set=positions)


@pytest.mark.parametrize("positions", [[0], [4], [-1]])
def test_positions_out_of_range_raise_index_error(positions):
    with pytest.raises(IndexError):
        nary_boxplus((3, -2, 1), index_set=positions)
    with pytest.raises(IndexError):
        residual_index_set((3, -2, 1), positions)


def test_positions_may_come_from_any_iterable():
    assert nary_boxplus((3, -2, 1), index_set=iter([2, 3])) == -2
    assert nary_boxplus((3, -2, 1), index_set=range(2, 4)) == -2
    assert xi((3, -3, 3), 3, index_set=(1, 2, 2)) == 0


def test_nary_over_index_subset():
    assert nary_boxplus((5, -5, 3), {1, 2}) == 0
    assert nary_boxplus((5, -5, 3), {2, 3}) == -5


# ---------------------------------------------------------------------------
# smiles and the bridge back to ⊞


def test_smile_frozen_values():
    assert smile_minus((3, -3, 2)) == -3
    assert smile_plus((3, -3, 2)) == 3
    assert smile_minus((0, 0)) == 0
    assert smile_plus((0, 0)) == 0


def test_smile_empty_raises():
    with pytest.raises(EmptyList):
        smile_minus(())
    with pytest.raises(EmptyList):
        smile_plus(())


@given(value_lists)
def test_smiles_bound_the_nary_sum(vals):
    assert smile_minus(vals) <= nary_boxplus(vals) <= smile_plus(vals)


@given(value_lists.flatmap(lambda vs: st.permutations(vs).map(lambda p: (vs, p))))
def test_smiles_are_order_independent(pair):
    vals, perm = pair
    assert smile_minus(vals) == smile_minus(perm)
    assert smile_plus(vals) == smile_plus(perm)


@given(st.lists(rationals, min_size=2, max_size=6), st.lists(rationals, min_size=2, max_size=6))
def test_smile_associativity(left, right):
    # the smiles are associative, so splitting the list any way agrees
    both = left + right
    assert smile_minus(both) == smile_minus((smile_minus(left), smile_minus(right)))
    assert smile_plus(both) == smile_plus((smile_plus(left), smile_plus(right)))


@given(rationals, rationals)
def test_half_sum_bridge(a, b):
    # ⊞ is the midpoint of the two smiles
    assert boxplus(a, b) == (smile_minus((a, b)) + smile_plus((a, b))) / 2


@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
))
def test_symmetric_form_sandwich(pair):
    coeffs, values = pair
    products = [a * v for a, v in zip(coeffs, values)]
    f = nary_boxplus(products)
    assert lower_form(coeffs, values) <= f <= upper_form(coeffs, values)


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(strategies.rationals(-4, 4, 4), min_size=n, max_size=n),
        st.lists(st.sampled_from(strategies.TIES), min_size=n, max_size=n),
        st.sampled_from((q, Fraction, str)),
    )
))
def test_the_forms_equal_the_smiles_over_the_carrier_products(case):
    # the forms compare the unreduced product pairs and build only the
    # survivor; tie-heavy factors make products of equal magnitude common
    coeffs, values, conv = case
    a, x = [conv(v) for v in coeffs], [conv(v) for v in values]
    products = [q(c) * q(v) for c, v in zip(coeffs, values)]
    for form, smile in ((lower_form, smile_minus), (upper_form, smile_plus)):
        if not products:
            with pytest.raises(EmptyList):
                form(a, x)
            continue
        got = form(a, x)
        assert got == smile(products) and type(got) is ScalarQ


# ---------------------------------------------------------------------------
# the fallback carrier (a Fraction subclass with integer fast paths)

fractions_ = strategies.rationals(-8, 8, 8)


def test_q_returns_the_carrier_type():
    for v in (q(3), q(-3, 4), q("5/6"), q(" -0.25 "), q(True)):
        assert type(v) is ScalarQ
    assert type(QFraction(6, -4)) is QFraction
    assert (QFraction(6, -4).numerator, QFraction(6, -4).denominator) == (-3, 2)


def test_q_passes_fractions_through_under_the_fallback():
    f = Fraction(1, 3)
    if ScalarQ is QFraction:
        assert q(f) is f
    else:
        assert type(q(f)) is ScalarQ and q(f) == f


def test_carrier_equality_ordering_and_hash_agree_with_int_and_fraction():
    assert hash(QFraction(3)) == hash(3) == hash(Fraction(3))
    assert hash(QFraction(-1, 2)) == hash(Fraction(-1, 2))
    assert {QFraction(1, 2): 1}[Fraction(1, 2)] == 1
    assert {Fraction(1, 2): 1}[QFraction(1, 2)] == 1
    assert {3: "x"}[QFraction(3)] == "x"
    assert QFraction(3) == 3 and 3 == QFraction(3) and QFraction(3, 2) != 1
    assert QFraction(1, 3) < Fraction(1, 2) < QFraction(2, 3) <= 1 < QFraction(3, 2)
    assert QFraction(1, 2) == 0.5 and QFraction(1, 3) != 1 / 3
    assert QFraction(1, 2) != "1/2"


def test_carrier_str_and_conversions():
    assert str(QFraction(-3, 4)) == "-3/4"
    assert str(QFraction(6, 3)) == "2"
    assert int(QFraction(-7, 2)) == -3
    assert math.floor(QFraction(-7, 2)) == -4
    assert float(QFraction(-7, 2)) == -3.5
    assert isinstance(QFraction(1, 2), numbers.Rational)
    assert isinstance(QFraction(1, 2), Fraction)
    # no mpmath hook: deform.converge rounds a rational itself
    assert not hasattr(QFraction(1, 3), "_mpmath_")


def test_carrier_numerator_and_denominator_are_read_only():
    for v in (QFraction(1, 2), q(1, 2)):
        for name in ("numerator", "denominator"):
            with pytest.raises(AttributeError):
                setattr(v, name, 5)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert v == Fraction(1, 2) and (v.numerator, v.denominator) == (1, 2)


def test_carrier_zero_division():
    with pytest.raises(ZeroDivisionError):
        QFraction(1, 0)
    with pytest.raises(ZeroDivisionError):
        QFraction(1, 2) / 0
    with pytest.raises(ZeroDivisionError):
        QFraction(0) ** -1


def _carrier(f):
    return QFraction(f.numerator, f.denominator)


def _operands(f):
    """The same value as the carrier, as a plain Fraction, and as an int if whole."""
    out = [_carrier(f), f]
    if f.denominator == 1:
        out.append(int(f))
    return out


_COMPARE = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
_ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)


@given(fractions_, fractions_)
def test_carrier_operators_equal_fraction_results(a, b):
    for x in _operands(a):
        for y in _operands(b):
            if type(x) is not QFraction and type(y) is not QFraction:
                continue
            for op in _COMPARE:
                assert op(x, y) == op(a, b), (op, x, y)
            for op in _ARITH:
                if op is operator.truediv and not b:
                    continue
                got = op(x, y)
                assert type(got) is QFraction and got == op(a, b), (op, x, y)
                assert (got.numerator, got.denominator) == (op(a, b).numerator, op(a, b).denominator)
    c = _carrier(a)
    assert bool(c) == bool(a)
    for op in (operator.neg, operator.pos, abs):
        assert type(op(c)) is QFraction and op(c) == op(a)


@given(fractions_, st.integers(-5, 5))
def test_carrier_integer_power_equals_fraction(a, k):
    if not a and k < 0:
        return
    got = _carrier(a) ** k
    assert type(got) is QFraction and got == a**k
    assert (got.numerator, got.denominator) == ((a**k).numerator, (a**k).denominator)


def _kernel(vals):
    return (
        nary_boxplus(vals),
        smile_minus(vals),
        smile_plus(vals),
        [boxplus(u, v) for u in vals for v in vals],
    )


mixed = st.one_of(fractions_, fractions_.map(_carrier))


@given(st.one_of(st.lists(fractions_, min_size=1, max_size=6), st.lists(mixed, min_size=1, max_size=6)))
def test_kernel_on_fractions_and_mixed_inputs_equals_carrier_inputs(vals):
    # q() passes Fractions through, so the kernel sees both kinds of input
    assert _kernel(vals) == _kernel([ScalarQ(v.numerator, v.denominator) for v in vals])


def _reference_nary(vals):
    net = {}
    for v in map(Fraction, vals):
        if v:
            net[abs(v)] = net.get(abs(v), 0) + (1 if v > 0 else -1)
    live = [m for m, c in net.items() if c]
    if not live:
        return 0
    top = max(live)
    return top if net[top] > 0 else -top


@given(st.lists(st.integers(-3, 3).map(q), min_size=1, max_size=12))
def test_nary_matches_a_reference_tally_on_tie_heavy_lists(vals):
    # small integers make the top level cancel often (the second-pass path)
    assert nary_boxplus(vals) == _reference_nary(vals)
    assert nary_boxplus(vals, range(1, len(vals) + 1)) == _reference_nary(vals)


@given(st.lists(st.integers(-6, 6), max_size=8))
def test_the_tally_kernel_matches_a_counter_reference(ints):
    # ints in -6..6 make cancelled top levels common; the reference counts
    # the positive and the negative entries of each magnitude apart
    plus = Counter(v for v in ints if v > 0)
    minus = Counter(-v for v in ints if v < 0)
    live = {m: plus[m] - minus[m] for m in plus | minus if plus[m] != minus[m]}
    assert _levels((abs(v), 1 if v > 0 else -1) for v in ints if v) == live
    top = max(live, default=0)
    assert _nary_ints(ints) == (top if live.get(top, 0) > 0 else -top)


def _primes(n: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_a_cancelled_top_over_coprime_denominators_keeps_operands_small():
    # 1 and -1 cancel the top, and the 3 000 reciprocal primes share no
    # factor: their common scale is about 36 kbit, so taking every value at
    # it costs some 16 MB, where comparing two pairs at a time stays under 1
    vals = [q(1), q(-1)] + [q(1, p) for p in _primes(3000)]
    tracemalloc.start()
    try:
        assert nary_boxplus(vals) == q(1, 2)
        assert residual_index_set(vals) == frozenset(range(3, 3003))
        assert gap_ok(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
