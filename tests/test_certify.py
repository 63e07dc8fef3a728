"""The exact check of the certificate-search core, against Ϝ on carriers."""

from hypothesis import given, settings, strategies as st

from boxlim import q
from boxlim._certify import SEARCH_STAGES, Certifier
from boxlim.linalg import _common_rows
from boxlim.scalars import _nary

# ties, zeros and several denominators, so that products meet at one
# magnitude with both signs and a check brings rows over a common denominator
POINTS = tuple(q(v) for v in ("0", "0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-2/3"))
COEFFS = tuple(q(v) for v in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "1/3", "-3/2"))


def reference(x, y, z, t, r, s, w):
    return all(
        _nary((t * a, r * a, s * b, w * b)) == c for a, b, c in zip(x, y, z)
    )


def certifier(x, y, z, values):
    """The search tables over x, y, z read as integer rows, with the
    candidate values as pairs."""
    rows, _ = _common_rows(x, y, z)
    return Certifier(*rows, [(v.numerator, v.denominator) for v in values])


def check(x, y, z, values, quads):
    core = certifier(x, y, z, values)
    for quad in quads:
        before = SEARCH_STAGES["matches"]
        got = core.matches(*quad)
        assert SEARCH_STAGES["matches"] == before + 1
        assert got == reference(x, y, z, *core.quad(quad)), quad


@st.composite
def checks(draw):
    """x, y, z in dimension 1..4, a candidate list and position quadruples;
    the quadruples share one table, so later ones read rows filled earlier."""
    n = draw(st.integers(1, 4))
    point = st.lists(st.sampled_from(POINTS), min_size=n, max_size=n).map(tuple)
    x, y, z = draw(point), draw(point), draw(point)
    values = draw(st.lists(st.sampled_from(COEFFS), min_size=1, max_size=8, unique=True))
    pos = st.integers(0, len(values) - 1)
    quads = draw(st.lists(st.tuples(pos, pos, pos, pos), min_size=1, max_size=6))
    return x, y, z, values, quads


@settings(deadline=None, max_examples=300)
@given(checks())
def test_matches_is_the_limit_sum_of_the_four_products(case):
    check(*case)


@settings(deadline=None, max_examples=200)
@given(checks())
def test_matches_on_members_built_from_the_quadruple(case):
    # z rebuilt from the first quadruple, so that true matches are common
    x, y, _, values, quads = case
    t, r, s, w = (values[k] for k in quads[0])
    z = tuple(_nary((t * a, r * a, s * b, w * b)) for a, b in zip(x, y))
    assert certifier(x, y, z, values).matches(*quads[0])
    check(x, y, z, values, quads)


def test_one_or_three_products_above_z_decide():
    # coordinate 0: 2·1 alone exceeds |z_0| = 1, so Ϝ = 2; with 3, 2 and −3
    # above it, 3 cancels and Ϝ = 2 again
    x, y, z = (q(1), q(1)), (q(1), q(0)), (q(1), q(1))
    values = [q(0), q(1), q(2), q(3), q(-3)]
    quads = [(2, 0, 1, 0), (3, 2, 4, 0), (1, 0, 1, 0), (1, 1, 0, 0)]
    check(x, y, z, values, quads)
    core = certifier(x, y, z, values)
    assert [core.matches(*quad) for quad in quads] == [False, False, True, True]


def test_no_product_above_z_needs_more_z_than_minus_z():
    x, y, z = (q(1),), (q(1),), (q(1),)
    values = [q(0), q(1), q(-1)]
    quads = [(1, 1, 2, 0), (1, 0, 2, 0), (1, 2, 2, 1), (0, 0, 0, 0)]
    check(x, y, z, values, quads)
    core = certifier(x, y, z, values)
    assert [core.matches(*quad) for quad in quads] == [True, False, False, False]


def test_two_large_products_cancel():
    # 3·x_0 and −3·y_0 cancel, and the limit sum falls to the next level
    x, y = (q(1), q(2)), (q(1), q(2))
    values = [q(0), q(1), q(-1), q(3), q(-3), q(1, 2)]
    cases = {
        (3, 1, 4, 0): (q(1), q(2)),  # 3, 1, −3, 0: the 1 survives
        (3, 5, 4, 0): (q(1, 2), q(1)),  # 3, 1/2, −3, 0
        (3, 1, 4, 2): (q(0), q(0)),  # 3, 1, −3, −1: every level cancels
    }
    for quad, z in cases.items():
        assert certifier(x, y, z, values).matches(*quad)
        check(x, y, z, values, [quad, (3, 0, 4, 0), (3, 1, 4, 5)])
