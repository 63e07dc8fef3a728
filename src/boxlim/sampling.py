"""Seeded rational sampling with magnitude-gap filters.

The deformation oracle converges geometrically only when no two surviving
magnitudes are close: a second magnitude at ratio ρ of the top contributes
an absolute error of order T·ρ^(2p+1), with T the top magnitude (up to ~10³
for 3×3 determinant products).  Every filter uses the one constant
``GAP_RATIO`` = 3/4 — at the default final grid point p = 32 that gives
ρ^65 ≈ 7.5·10⁻⁹, keeping the worst accepted sample inside the 10⁻⁶
acceptance tolerance for every operation, whereas a loose ratio like 9/10
(0.9^65 ≈ 10⁻³) would not converge within tolerance at all.

Filters reject near-ties; exact ties that cancel completely are kept, since
cancellation is exact at every p.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .linalg import Mat, Vec, _integer_rows, _level_tally
from .scalars import ScalarQ, _levels, _pair, q

__all__ = [
    "GAP_RATIO",
    "gap_ok",
    "norm_gap_ok",
    "dist_gap_ok",
    "det_gap_ok",
    "trig_gap_ok",
    "Sampler",
]

GAP_RATIO = q(3, 4)


def gap_ok(values: Sequence[ScalarQ]) -> bool:
    """Oracle-friendly n-ary sums: fully cancelled levels are exact at every
    p, so only surviving magnitudes matter — the top must survive with net
    count ±1 and dominate the next surviving magnitude by the gap ratio."""
    return _levels_gap_ok(_levels([((n, d), 1) if n > 0 else ((-n, d), -1)
                                   for n, d in map(_pair, values) if n]))


def _levels_gap_ok(net: dict) -> bool:
    """The rule of ``gap_ok`` on a {(|n|, d): net count} tally without its
    cancelled levels, comparing two canonical pairs at a time."""
    top = second = (0, 1)
    for n, d in net:
        if n * top[1] > top[0] * d:
            top, second = (n, d), top
        elif n * second[1] > second[0] * d:
            second = n, d
    return not top[0] or (net[top] in (1, -1) and GAP_RATIO.denominator * second[0] * top[1]
                          <= GAP_RATIO.numerator * top[0] * second[1])


def norm_gap_ok(x: Sequence[ScalarQ]) -> bool:
    """The gap rule on the magnitudes: a unique top magnitude dominating the
    rest (the zero vector is exact)."""
    return gap_ok([abs(v) for v in x])


def dist_gap_ok(x: Sequence[ScalarQ], y: Sequence[ScalarQ]) -> bool:
    """Within each disagreeing coordinate the two magnitudes must be gapped
    (this rejects antipodal ties a = −b), and across coordinates the top
    disagreement magnitude must be unique and gapped."""
    tops = []
    for a, b in zip(x, y):
        if a == b:
            continue
        hi, lo = max(abs(a), abs(b)), min(abs(a), abs(b))
        if lo != 0 and lo > GAP_RATIO * hi:
            return False
        tops.append(hi)
    return _levels_gap_ok(_levels([(_pair(hi), 1) for hi in tops]))


def det_gap_ok(m: Mat) -> bool:
    """Gap condition on the signed permutation products, tallied over the
    row-scaled integer matrix by the determinant's subset DP."""
    ints, _ = _integer_rows(m)
    return _levels_gap_ok({(k, 1): c for k, c in _level_tally(ints).items()})


def trig_gap_ok(x: Vec, y: Vec) -> bool:
    """Joint filter for limit cosine and (2D) sine: gapped inner products,
    gapped determinant products, gapped norms, nonzero vectors."""
    if all(v == 0 for v in x) or all(v == 0 for v in y):
        return False
    if not gap_ok([a * b for a, b in zip(x, y)]):
        return False
    if len(x) == 2 and not gap_ok((x[0] * y[1], -x[1] * y[0])):
        return False
    return norm_gap_ok(x) and norm_gap_ok(y)


class Sampler:
    """Deterministic rational sampler (seeded), with rejection helpers."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def rational(self, lo: int = -10, hi: int = 10, den: int = 4) -> ScalarQ:
        d = self.rng.randint(1, den)
        return q(self.rng.randint(lo * d, hi * d), d)

    def nonzero_rational(self, lo: int = -10, hi: int = 10, den: int = 4) -> ScalarQ:
        while True:
            v = self.rational(lo, hi, den)
            if v:
                return v

    def vector(self, n: int, lo: int = -10, hi: int = 10, den: int = 4) -> Vec:
        return tuple(self.rational(lo, hi, den) for _ in range(n))

    def matrix(self, n: int, lo: int = -10, hi: int = 10, den: int = 2) -> Mat:
        return tuple(self.vector(n, lo, hi, den) for _ in range(n))

    def reject(self, make: Callable, accept: Callable, tries: int = 500):
        """Draw until accept(sample) holds; deterministic for a fixed seed."""
        for _ in range(tries):
            s = make()
            if accept(s):
                return s
        raise RuntimeError(f"rejection sampling exhausted {tries} tries")

    # gap-filtered generators for the convergence suite

    def gap_tuple(self, n: int) -> tuple:
        return self.reject(lambda: self.vector(n), gap_ok)

    def gap_norm_vector(self, n: int) -> Vec:
        return self.reject(lambda: self.vector(n), norm_gap_ok)

    def gap_inner_pair(self, n: int) -> tuple[Vec, Vec]:
        return self.reject(
            lambda: (self.vector(n), self.vector(n)),
            lambda p: gap_ok([a * b for a, b in zip(*p)]),
        )

    def gap_dist_pair(self, n: int) -> tuple[Vec, Vec]:
        return self.reject(
            lambda: (self.vector(n), self.vector(n)),
            lambda p: dist_gap_ok(*p),
        )

    def gap_det_matrix(self, n: int) -> Mat:
        # smaller entries keep the top product magnitude (hence the absolute
        # oracle error) well inside tolerance
        return self.reject(lambda: self.matrix(n, lo=-6, hi=6), det_gap_ok)

    def gap_trig_pair(self) -> tuple[Vec, Vec]:
        return self.reject(
            lambda: (self.vector(2), self.vector(2)),
            lambda p: trig_gap_ok(*p),
        )
