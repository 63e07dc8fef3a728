"""Finite-p deformations and the convergence oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from boxlim import (
    PParam,
    co_p_sample,
    converge,
    det_infty,
    dist_boxplus,
    exact_power_sum_is_zero,
    line_p_sample,
    nary_boxplus,
    norm_infty,
    p_det,
    p_dist,
    p_norm,
    p_sin,
    p_sum,
    q,
    sin_infty,
    vec,
)
from boxlim.deform import MAX_P
from boxlim.errors import DegeneratePair, TooLarge
from boxlim.sampling import Sampler


def test_pparam_precision_schedule():
    for p in (0, 1, 4, 32):
        pp = PParam(p)
        assert pp.exponent == 2 * p + 1
        assert pp.working_precision == 64 + 16 * (2 * p + 1)


def test_pparam_rejects_negative():
    with pytest.raises(ValueError):
        PParam(-1)


def test_pparam_is_capped():
    assert PParam(MAX_P).p == MAX_P
    with pytest.raises(TooLarge):
        PParam(MAX_P + 1)


def test_converge_checks_the_whole_grid_before_evaluating():
    calls = []

    def evaluator(p):
        calls.append(p)
        return p_sum((3, -2, 1), p)

    with pytest.raises(TooLarge):
        converge(evaluator, 3, p_grid=(1, MAX_P + 1))
    assert calls == []


def test_deformed_operations_take_comma_literals():
    assert p_sum("3,-2,1", 4) == p_sum((3, -2, 1), 4)
    assert p_dist("3,1", "1,-2", 4) == p_dist((3, 1), (1, -2), 4)


def test_p_zero_is_the_plain_sum():
    # exponent 1 means no deformation at all
    assert abs(p_sum((3, -2), 0) - 1) < 1e-15
    assert abs(p_sum((3, -2, 1), 0) - 2) < 1e-15


def test_p_sum_approaches_the_limit_sum():
    values = vec("3,-2,1")
    report = converge(lambda p: p_sum(values, p), nary_boxplus(values))
    assert report.converged
    assert report.final_error <= report.tol
    assert list(report.p_grid) == [1, 2, 4, 8, 16, 32]


def test_convergence_report_as_dict_shape():
    values = vec("3,-2,1")
    report = converge(lambda p: p_sum(values, p), nary_boxplus(values))
    d = report.as_dict()
    assert set(d) == {"p", "error", "converged"}
    assert d["converged"] is True
    assert len(d["p"]) == len(d["error"]) == 6


def test_converge_rejects_a_plateau():
    report = converge(lambda p: mpf(10) + 1, q(10), p_grid=(1, 2, 4), tol=1e-6)
    assert not report.converged
    assert report.final_error > report.tol


def test_converge_rejects_an_increasing_tail():
    deltas = {1: 1e-3, 2: 1e-5, 4: 1e-4}
    report = converge(
        lambda p: mpf(10) + deltas[p], q(10), p_grid=(1, 2, 4), tol=1e-3
    )
    # the final error is inside tolerance but the tail is not monotone
    assert report.final_error <= report.tol
    assert not report.converged


def test_converge_accepts_rounding_noise_in_the_tail():
    # the deformed determinant and the norm product cancel exactly at every p,
    # so the tail errors are rounding noise: 0, 1.2e-178, 0
    x, y = (8, -4), (2, 4)
    report = converge(lambda p: p_sin(x, y, p), sin_infty(x, y))
    assert report.errors[-1] == 0 < report.errors[-2] < 1e-170
    assert report.converged


def test_exact_power_sum_cancellation():
    values = (q(3, 2), q(-3, 2), q(5), q(-5), q(0))
    for p in range(1, 6):
        assert exact_power_sum_is_zero(values, p)
    assert not exact_power_sum_is_zero((q(3), q(-2)), 1)


def test_p_norm_and_p_dist_match_their_limits():
    s = Sampler(seed=71)
    for _ in range(5):
        x = s.gap_norm_vector(3)
        assert abs(p_norm(x, 16) - float(norm_infty(x))) < 1e-6
        xd, yd = s.gap_dist_pair(3)
        assert abs(p_dist(xd, yd, 16) - float(dist_boxplus(xd, yd))) < 1e-6


def test_p_det_matches_the_limit_determinant():
    m = (vec("3,1"), vec("1,-2"))
    assert det_infty(m) == -6
    assert abs(p_det(m, 16) + 6) < 1e-9
    s = Sampler(seed=72)
    for _ in range(3):
        # 3x3 determinants mix six signed products, so the gap between the
        # dominant product and the rest can be narrow; p = 32 closes it
        mm = s.gap_det_matrix(3)
        assert abs(p_det(mm, 32) - float(det_infty(mm))) < 1e-6


def _exact_p_det(rows, p):
    """Signed odd root of Σ_σ sgn(σ) Π a_iσ(i)^(2p+1), summed term by term."""
    k = 2 * p + 1
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]]) ** k
        total += prod
    with mp.workprec(PParam(p).working_precision):
        root = mp.root(mpf(abs(total.numerator)) / mpf(total.denominator), k)
        return root if total >= 0 else -root


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_p_det_equals_the_exact_permutation_sum(n):
    rng = random.Random(100 + n)
    entries = [Fraction(v, d) for v in range(-4, 5) for d in (1, 2, 3, 5)]
    for _ in range(3):
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        for p in (1, 8):
            assert p_det(rows, p) == _exact_p_det(rows, p)


def test_p_det_has_no_size_cap():
    # upper triangular: the determinant is the product of the diagonal powers
    diag = [q(k + 2, k + 1) for k in range(9)]
    rows = [[diag[i] if i == j else q(j - i) if j > i else 0 for j in range(9)] for i in range(9)]
    expected = 1
    for d in diag:
        expected *= d
    assert abs(p_det(rows, 1) - float(expected)) < 1e-12


def test_high_p_keeps_working_precision():
    # k = 65 with non-dyadic entries must stay numerically sane
    v = (q(1, 3), q(2, 3), q(-1, 7))
    out = p_norm(v, 32)
    assert 0.6 < out < 0.7


def test_co_p_sample_hits_the_endpoints():
    x, y = vec("3,1"), vec("1,-2")
    at_one = co_p_sample(x, y, 4, 1)
    at_zero = co_p_sample(x, y, 4, 0)
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(at_one, x))
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(at_zero, y))


def test_co_p_sample_validates_input():
    with pytest.raises(DegeneratePair):
        co_p_sample(vec("1,2"), vec("1,2"), 4, q(1, 2))
    with pytest.raises(ValueError):
        co_p_sample(vec("3,1"), vec("1,-2"), 4, 2)


def test_line_p_sample_hits_the_generators():
    x, y = vec("3,-2,1"), vec("1,-1,1")
    at_one = line_p_sample(x, y, 6, 1)
    at_zero = line_p_sample(x, y, 6, 0)
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(at_one, x))
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(at_zero, y))


def test_deformed_samples_are_finite_precision_stable():
    x, y = vec("3,1"), vec("1,-2")
    with mp.workprec(PParam(8).working_precision):
        z = co_p_sample(x, y, 8, q(1, 3))
    assert all(abs(c) < 4 for c in z)
