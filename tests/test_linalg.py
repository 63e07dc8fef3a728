"""Limit linear algebra: vectors, inner products, determinants, axiom suites."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

import strategies
from grid_probe import line_grid_probe
from boxlim import (
    boxplus,
    check_pseudo_field_axioms,
    check_symmetric_space_axioms,
    co_contains,
    co_orthant,
    co_p_sample,
    co_point,
    cos_infty,
    det_infty,
    dist_boxplus,
    half_lines,
    inner3_limit,
    inner_infty,
    line2d_form,
    line_contains_nd,
    line_p_sample,
    line_point,
    mat,
    nary_boxplus,
    nary_vec_boxplus,
    norm_infty,
    orthogonal_pairing,
    p_cos,
    p_dist,
    p_inner,
    p_sin,
    p_sum,
    parallel_normal_form,
    parallel_ratio,
    pythagoras_check,
    q,
    real_vector_space,
    scale,
    sin_infty,
    vec,
    vec_boxplus,
)
from boxlim.axioms import REAL_PSEUDO_FIELD, PseudoFieldOps
from boxlim.deform import p_matvec
from boxlim.errors import DegeneratePair, DimensionMismatch
from boxlim.linalg import DET_PATHS, _level_tally
from boxlim.metric import f_limit_check
from boxlim.sampling import Sampler, det_gap_ok, gap_ok
from boxlim.scalars import ScalarQ

rationals = strategies.rationals(-6, 6, 6).map(q)
vectors = partial(strategies.vectors, elements=rationals)


dims = st.integers(1, 4)
paired = dims.flatmap(lambda n: st.tuples(vectors(n), vectors(n)))


# ---------------------------------------------------------------------------
# parsing and vector operations


def test_vec_parses_rational_literals():
    assert vec("3, 1/2, -2") == (q(3), q(1, 2), q(-2))
    assert vec((1, 2)) == (q(1), q(2))


def test_mat_builds_rows():
    m = mat(["3,1", "1,-2"])
    assert m == ((q(3), q(1)), (q(1), q(-2)))


@given(paired)
def test_vec_boxplus_is_componentwise(pair):
    x, y = pair
    assert vec_boxplus(x, y) == tuple(boxplus(a, b) for a, b in zip(x, y))


def test_vec_boxplus_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vec_boxplus((1, 2), (1, 2, 3))


# Every entry point that takes several coordinate vectors, as a function of
# those vectors alone, and the argument positions that must hold two
# distinct generators (x, y and u, v of a line).
VECTOR_ENTRY_POINTS = {
    "vec_boxplus": (vec_boxplus, 2, ()),
    "nary_vec_boxplus": (lambda x, y, z: nary_vec_boxplus([x, y, z]), 3, ()),
    "inner_infty": (inner_infty, 2, ()),
    "dist_boxplus": (dist_boxplus, 2, ()),
    "f_limit_check": (lambda x, z1, z2: f_limit_check([z1, z2], x), 3, ()),
    "co_point": (lambda x, y: co_point(x, y, (1, 0, 1, 0)), 2, ()),
    "co_contains": (co_contains, 3, ()),
    "co_orthant": (lambda x, y: co_orthant([x, y], (1, 1)), 2, ()),
    "line_point": (lambda x, y: line_point(x, y, 1, 0, 0, 0), 2, ((0, 1),)),
    "line2d_form": (line2d_form, 2, ((0, 1),)),
    "line_contains_nd": (line_contains_nd, 3, ((0, 1),)),
    "line_grid_probe": (lambda x, y, z: line_grid_probe(x, y, z, q(1, 2), 1), 3, ((0, 1),)),
    "half_lines": (half_lines, 2, ((0, 1),)),
    "parallel_ratio": (parallel_ratio, 4, ((0, 1), (2, 3))),
    "parallel_normal_form": (parallel_normal_form, 4, ((0, 1), (2, 3))),
    "inner3_limit": (inner3_limit, 3, ()),
    "orthogonal_pairing": (orthogonal_pairing, 2, ()),
    "pythagoras_check": (pythagoras_check, 3, ()),
    "cos_infty": (cos_infty, 2, ()),
    "sin_infty": (sin_infty, 2, ()),
    "p_inner": (lambda x, y: p_inner(x, y, 1), 2, ()),
    "p_dist": (lambda x, y: p_dist(x, y, 1), 2, ()),
    "p_cos": (lambda x, y: p_cos(x, y, 1), 2, ()),
    "p_sin": (lambda x, y: p_sin(x, y, 1), 2, ()),
    "p_matvec": (lambda r1, r2, x: p_matvec([r1, r2], x, 1), 3, ()),
    "co_p_sample": (lambda x, y: co_p_sample(x, y, 1, q(1, 2)), 2, ((0, 1),)),
    "line_p_sample": (lambda x, y: line_p_sample(x, y, 1, q(1, 2)), 2, ((0, 1),)),
}


@pytest.mark.parametrize("name", sorted(VECTOR_ENTRY_POINTS))
def test_vector_arguments_share_one_dimension(name):
    fn, arity, pairs = VECTOR_ENTRY_POINTS[name]
    base = [vec("3,1"), vec("1,-2"), vec("-2,4"), vec("-6,1")][:arity]
    for i in range(arity):
        args = list(base)
        args[i] = args[i] + (q(1),)
        with pytest.raises(DimensionMismatch):
            fn(*args)
    for i, j in pairs:
        args = list(base)
        args[j] = args[i]
        with pytest.raises(DegeneratePair):
            fn(*args)


# ---------------------------------------------------------------------------
# the carrier at the vector boundary

fraction_entries = strategies.rationals(-6, 6, 6)
any_entry = st.one_of(st.integers(-6, 6), fraction_entries, fraction_entries.map(q))


@given(st.lists(any_entry, min_size=1, max_size=4), st.integers(1, 3))
def test_vec_and_mat_hold_the_carrier(entries, rows):
    v = vec(entries)
    assert all(type(c) is ScalarQ for c in v)
    assert v == tuple(Fraction(e) for e in entries)
    m = mat([entries] * rows)
    assert all(type(c) is ScalarQ for r in m for c in r)
    assert m == (v,) * rows


def as_fractions(v):
    """A carrier value, or a tuple of them, as plain Fractions."""
    if isinstance(v, tuple):
        return tuple(as_fractions(c) for c in v)
    return Fraction(v.numerator, v.denominator)


small = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 0, 1, 2, 4)])


def small_vectors(n, count):
    return st.tuples(*[st.lists(small, min_size=n, max_size=n).map(tuple)] * count)


def carried(vectors):
    return tuple(tuple(q(c.numerator, c.denominator) for c in v) for v in vectors)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: small_vectors(n, n)))
def test_det_infty_is_the_same_on_fraction_and_carrier(rows):
    assert as_fractions(det_infty(rows)) == as_fractions(det_infty(carried(rows)))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 3).flatmap(lambda n: small_vectors(n, 3)))
def test_searches_are_the_same_on_fraction_and_carrier(xyz):
    x, y, z = xyz
    cx, cy, cz = carried(xyz)
    assert co_contains(x, y, z) == co_contains(cx, cy, cz)
    assume(x != y)
    plain, carrier = line_contains_nd(x, y, z), line_contains_nd(cx, cy, cz)
    assert plain.found == carrier.found
    if plain.found:
        assert as_fractions(plain.certificate) == as_fractions(carrier.certificate)


@given(st.integers(1, 4).flatmap(lambda n: small_vectors(n, 2)))
def test_vector_values_are_the_same_on_fraction_and_carrier(xy):
    x, y = xy
    cx, cy = carried(xy)
    assert as_fractions(dist_boxplus(x, y)) == as_fractions(dist_boxplus(cx, cy))
    assert as_fractions(inner_infty(x, y)) == as_fractions(inner_infty(cx, cy))
    assert p_sum(x, 2) == p_sum(cx, 2)


@given(dims.flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=4)))
def test_nary_vec_boxplus_is_componentwise(vs):
    out = nary_vec_boxplus(vs)
    for i, c in enumerate(out):
        assert c == nary_boxplus([v[i] for v in vs])


@given(rationals, paired)
def test_scale_distributes_over_vec_boxplus(c, pair):
    x, y = pair
    assert scale(c, vec_boxplus(x, y)) == vec_boxplus(scale(c, x), scale(c, y))


# ---------------------------------------------------------------------------
# inner product and norm


@given(paired)
def test_inner_commutative(pair):
    x, y = pair
    assert inner_infty(x, y) == inner_infty(y, x)


@given(dims.flatmap(vectors))
def test_inner_with_self_is_squared_norm(x):
    assert inner_infty(x, x) == norm_infty(x) ** 2


@given(paired)
def test_inner_bounded_by_norms(pair):
    x, y = pair
    assert abs(inner_infty(x, y)) <= norm_infty(x) * norm_infty(y)


@given(rationals, paired)
def test_inner_homogeneity(c, pair):
    x, y = pair
    assert inner_infty(scale(c, x), y) == c * inner_infty(x, y)


@given(dims.flatmap(vectors))
def test_norm_is_the_max_magnitude(x):
    assert norm_infty(x) == max(abs(c) for c in x)
    assert (norm_infty(x) == 0) == all(c == 0 for c in x)


# ---------------------------------------------------------------------------
# determinant


def test_det_frozen_values():
    assert det_infty(mat(["3,1", "1,-2"])) == -6
    assert det_infty(mat(["-2,-6", "4,1"])) == 24
    assert det_infty(((q(5),),)) == 5


def test_det_requires_square():
    with pytest.raises(DimensionMismatch):
        det_infty(mat(["3,1"]))


@given(st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n), min_size=n, max_size=n)))
def test_det_row_swap_flips_the_sign(rows):
    swapped = [rows[1], rows[0]] + rows[2:]
    assert det_infty(swapped) == -det_infty(rows)


@given(rationals, st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n), min_size=n, max_size=n)))
def test_det_row_scaling_homogeneity(c, rows):
    scaled = [scale(c, rows[0])] + rows[1:]
    assert det_infty(scaled) == c * det_infty(rows)


@given(vectors(2))
def test_det_vanishes_on_duplicate_rows_2d(r):
    assert det_infty((r, r)) == 0


@given(vectors(3), vectors(3))
def test_det_vanishes_on_duplicate_rows_3d(r, other):
    assert det_infty((r, other, r)) == 0


def test_det_diagonal_is_the_product():
    m = ((q(3), q(0)), (q(0), q(-1, 2)))
    assert det_infty(m) == q(-3, 2)


def _parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def signed_products(rows):
    """sign(σ)·Π_i rows[i][σ(i)] for every permutation σ."""
    n = len(rows)
    products = []
    for perm in itertools.permutations(range(n)):
        prod = _parity(perm)
        for i in range(n):
            prod *= rows[i][perm[i]]
        products.append(prod)
    return products


def reference_det(rows):
    """One-shot limit sum over every signed permutation product."""
    return nary_boxplus([Fraction(v) for v in signed_products(rows)])


TIE_ENTRIES = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
tie_entries = st.sampled_from(TIE_ENTRIES).flatmap(
    lambda v: st.sampled_from((v, q(v)))
)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(tie_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_equals_the_one_shot_sum_on_tie_heavy_matrices(rows):
    assert det_infty(rows) == reference_det(rows)


# rows 0-2 hold two products of magnitude 4 that cancel, and one of magnitude 2
CANCELLING_TOP = (
    (2, 2, 1, 0, 0),
    (2, 2, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)


def test_det_falls_back_when_the_top_level_cancels():
    before = DET_PATHS["cancelled"]
    assert det_infty(CANCELLING_TOP) == -2 == reference_det(mat(CANCELLING_TOP))
    assert DET_PATHS["cancelled"] == before + 1


def test_det_is_zero_when_every_permutation_meets_a_zero():
    # rows 0-2 are supported on columns 0-1 only
    rows = (
        (1, 3, 0, 0, 0),
        (-2, 1, 0, 0, 0),
        (5, 0, 0, 0, 0),
        (1, 1, 1, 1, 1),
        (2, -1, 3, 1, 1),
    )
    before = DET_PATHS["zero"]
    assert det_infty(rows) == 0
    assert DET_PATHS["zero"] == before + 1


@pytest.mark.parametrize("n", [7, 8])
def test_det_large_matrices_match_the_one_shot_sum(n):
    rng = random.Random(n)
    entries = [Fraction(v, d) for v in range(-3, 4) for d in (1, 2, 3)]
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    before = DET_PATHS["tight"] + DET_PATHS["cancelled"]
    assert det_infty(rows) == reference_det(rows)
    assert DET_PATHS["tight"] + DET_PATHS["cancelled"] == before + 1


integer_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def product_net(ints) -> Counter:
    """The signed count of the nonzero permutation products per magnitude."""
    net = Counter()
    for p in signed_products(ints):
        if p:
            net[abs(p)] += 1 if p > 0 else -1
    return net


@settings(deadline=None)
@given(integer_matrices)
def test_level_tally_is_the_net_count_of_every_product_magnitude(ints):
    net = product_net(ints)
    assert _level_tally(ints) == {m: c for m, c in net.items() if c}


@settings(deadline=None)
@given(integer_matrices, st.integers(0, 1100))
def test_level_tally_above_a_floor_is_the_whole_tally_cut_at_the_floor(ints, floor):
    # entries within ±4 at n ≤ 5: every magnitude is at most 4**5 = 1024
    net = product_net(ints)
    assert _level_tally(ints, floor) == {m: c for m, c in net.items() if c and m >= floor}


# Cancelled top levels decided by each floored pass: the first (⌊M/2⌋ + 1),
# the second (⌊M/2⁸⌋ + 1), the unfloored third, and the single unfloored pass
# taken when the ordinary determinant is 0 although a lower level survives.
FLOORED = (
    ((0, 1, 60, 60), (-7, 3, -1, 3), (1, 3, 5, 5), (100, -2, 3, -2)),
    ((-7, -2, 60), (2, 2, -7), (60, 60, -7)),
    ((-2, 100, 60, 2), (-1, 100, 60, 2), (0, 1, 5, 2), (60, 1, -7, -1)),
    ((-7, -7, 0, 0), (3, 3, 2, 0), (1, -1, 100, -2), (3, 2, 1, -1)),
)


@pytest.mark.parametrize("rows", FLOORED)
def test_det_floored_passes_match_the_one_shot_sum(rows):
    before = DET_PATHS["cancelled"]
    assert det_infty(rows) == reference_det(rows) != 0
    assert DET_PATHS["cancelled"] == before + 1


@pytest.mark.parametrize("n, seed", [(7, 0), (7, 4), (8, 0)])
def test_det_of_sign_matrices_matches_the_one_shot_sum(n, seed):
    # seeds 0 give a cancelled top level, and then every level is 1
    rng = random.Random(seed)
    rows = [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    assert det_infty(rows) == reference_det(rows)


@pytest.mark.parametrize("i, j", [(0, 1), (2, 7)])
def test_det_with_two_proportional_rows_is_zero(i, j):
    # σ and σ∘(i j) give equal magnitudes with opposite signs, so every level
    # cancels; the ordinary determinant is 0 and one unfloored pass decides
    rng = random.Random(8 * i + j)
    rows = [[rng.randint(-6, 6) for _ in range(8)] for _ in range(8)]
    rows[j] = [-2 * a for a in rows[i]]
    assert det_infty(rows) == reference_det(rows) == 0


# The top-left block has a·d = b·c and outweighs every other entry, so the
# top magnitude's two sign classes cancel; the other entries are distinct
# primes, so lower levels rarely tie.
ADVERSARIAL_8 = (
    (6000, 10000, 17, 19, 23, 29, 31, 37),
    (21000, 35000, 47, 53, 59, 61, 67, 71),
    (73, 79, -83, 89, 97, -101, 103, 107),
    (109, -113, 127, 131, -137, 139, 149, -151),
    (-157, 163, 167, -173, 179, 181, -191, 193),
    (197, 199, -211, 223, 227, -229, 233, 239),
    (241, -251, 257, 263, -269, 271, 277, -281),
    (-283, 293, 307, -311, 313, 317, -331, 337),
)


def test_det_adversarial_cancelled_8x8_matches_the_one_shot_sum():
    before = DET_PATHS["cancelled"]
    assert det_infty(ADVERSARIAL_8) == reference_det(ADVERSARIAL_8)
    assert DET_PATHS["cancelled"] == before + 1


@pytest.mark.parametrize("path, rows", [
    ("tight", ((1, 0, 0), (0, 2, 0), (0, 0, 3))),
    ("cancelled", ((2, 2, 1), (2, 2, 0), (1, 0, 1))),
    ("zero", ((1, 0, 0), (2, 0, 0), (1, 1, 1))),
    ("tight", ((1, 2, 0, 0), (0, 2, 0, 0), (0, 0, 3, 1), (1, 0, 0, -1))),
    ("cancelled", ((2, 2, 1, 0), (2, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))),
    ("zero", ((1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 1, 1), (3, 1, 2, 1))),
])
def test_det_paths_count_small_matrices(path, rows):
    before = DET_PATHS[path]
    assert det_infty(rows) == reference_det(rows)
    assert DET_PATHS[path] == before + 1


def reference_gap_ok(values) -> bool:
    """The gap rule on Fractions: the top surviving magnitude has net count
    ±1, and the next surviving one is at most 3/4 of it."""
    net = Counter()
    for v in map(Fraction, values):
        if v:
            net[abs(v)] += 1 if v > 0 else -1
    live = sorted((m for m, c in net.items() if c), reverse=True)
    if not live:
        return True
    return net[live[0]] in (1, -1) and (len(live) == 1 or live[1] <= Fraction(3, 4) * live[0])


@st.composite
def gap_lists(draw):
    """Lists with repeated values, cancelling pairs and mixed denominators."""
    vals = draw(st.lists(strategies.rationals(-2, 2, 4), max_size=6))
    if vals:
        more = draw(st.lists(st.sampled_from(vals), max_size=4))
        vals += [-v for v in more[::2]] + more[1::2]
    return draw(st.permutations([draw(st.sampled_from((q, Fraction)))(v) for v in vals]))


@given(gap_lists())
def test_gap_ok_is_the_gap_rule_on_the_values(values):
    assert gap_ok(values) == reference_gap_ok(values)


@given(st.lists(vectors(3), min_size=3, max_size=3))
def test_det_gap_ok_is_the_gap_rule_on_the_enumerated_products(rows):
    assert det_gap_ok(rows) == gap_ok(signed_products(rows))


# ---------------------------------------------------------------------------
# axiom suites


def test_real_pseudo_field_axioms_hold():
    s = Sampler(seed=31)
    sample = [(s.rational(), s.rational(), s.rational()) for _ in range(300)]
    report = check_pseudo_field_axioms(sample, REAL_PSEUDO_FIELD)
    assert report.passed, report.failed_axiom
    assert report.samples == 300
    assert report.failed_axiom is None


def test_real_symmetric_space_axioms_hold():
    s = Sampler(seed=32)
    space = real_vector_space(3)
    sample = [
        (s.rational(), s.rational(), s.vector(3), s.vector(3)) for _ in range(300)
    ]
    report = check_symmetric_space_axioms(space, sample)
    assert report.passed, report.failed_axiom


def test_axiom_report_captures_a_failure():
    sample = [(q(1), q(1), q(1))]
    # sabotage the sum (1 + 1 = 2 ≠ 1) to exercise the failure path
    f = REAL_PSEUDO_FIELD
    broken = PseudoFieldOps(
        f.name, lambda a, b: a + b, f.mul, f.neg, f.inv, f.zero, f.one
    )
    report = check_pseudo_field_axioms(sample, broken)
    assert not report.passed
    assert report.failed_axiom == "add-idempotent"
    assert report.witness == (q(1),)
