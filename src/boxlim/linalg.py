"""Vector and matrix layer over the limit sum: inner products and determinants.

Vectors are tuples of exact rationals; the n-ary limit sum is applied
coordinatewise in one pass (never as a pairwise fold — the operation is not
associative).  The limit determinant is Ϝ of the whole multiset of signed
permutation products, never a fold, for the same reason.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptyList, TooLarge
from .scalars import (
    ZERO,
    ScalarLike,
    ScalarQ,
    _Q,
    _carrier,
    _nary,
    _pair,
    boxplus,
    q,
)

__all__ = [
    "Vec",
    "Mat",
    "vec",
    "mat",
    "vec_boxplus",
    "nary_vec_boxplus",
    "scale",
    "inner_infty",
    "norm_infty",
    "det_infty",
]

Vec = tuple  # tuple of ScalarQ
Mat = tuple  # tuple of row tuples


def vec(x: str | Iterable[ScalarLike]) -> Vec:
    """Build a vector from an iterable or a comma-separated literal like "3,-1/2,0.25".

    Every entry becomes the carrier (``scalars._carrier``).
    """
    if isinstance(x, str):
        return tuple(q(part) for part in x.split(","))
    return tuple(_carrier(v) for v in x)


def mat(rows: Iterable) -> Mat:
    """Build a matrix (tuple of row vectors); squareness is checked at use sites."""
    return tuple(vec(r) for r in rows)


def _vecs(*xs) -> list[Vec]:
    """``vec`` of each argument; every dimension must equal the first one's."""
    out = []
    for x in xs:
        v = vec(x)
        if out and len(v) != len(out[0]):
            raise DimensionMismatch(f"dim {len(out[0])} vs {len(v)}")
        out.append(v)
    return out


def vec_boxplus(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> Vec:
    """Coordinatewise binary limit sum."""
    xv, yv = _vecs(x, y)
    return tuple(boxplus(a, b) for a, b in zip(xv, yv))


def nary_vec_boxplus(vectors: Sequence[Sequence[ScalarLike]]) -> Vec:
    """Coordinatewise n-ary limit sum over a nonempty list of vectors (one pass)."""
    vs = _vecs(*vectors)
    if not vs:
        raise EmptyList("n-ary vector sum of an empty list")
    return tuple(_nary([v[i] for v in vs]) for i in range(len(vs[0])))


def scale(alpha: ScalarLike, x: Sequence[ScalarLike]) -> Vec:
    """Ordinary scalar multiple α·x (the module action is the usual one)."""
    a = _carrier(alpha)
    return tuple(a * v for v in vec(x))


def inner_infty(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> ScalarQ:
    """Limit inner product: one-pass n-ary limit sum of the products x_i y_i."""
    xv, yv = _vecs(x, y)
    return _nary([a * b for a, b in zip(xv, yv)])


def norm_infty(x: Sequence[ScalarLike]) -> ScalarQ:
    """Chebyshev norm max_i |x_i|."""
    xv = vec(x)
    if not xv:
        return ZERO
    return max(abs(v) for v in xv)


DET_PATHS: Counter = Counter()
"""Limit determinants with n ≥ 3 decided by each path: ``tight`` (nonzero
signed count of the top-magnitude permutations), ``cancelled`` (that count
was 0, so the magnitudes were tallied in floored passes down from the top)
and ``zero`` (every permutation meets a zero entry)."""


def det_infty(A: Sequence[Sequence[ScalarLike]]) -> ScalarQ:
    """Limit determinant: Ϝ over all n! signed permutation products.

    n = 1 is the entry and n = 2 is a·d ⊞ −(b·c).  For n ≥ 3 one dynamic
    program over column subsets runs on the row-scaled integer matrix, in
    n·2^(n−1) steps (448 at n = 7): for each set S of columns given to the
    first |S| rows it keeps the largest product magnitude M and the signed
    count c of the assignments that reach it.  A nonzero c at the full set
    gives the answer sign(c)·M over the row factors.  Only when c = 0, so
    that the top level cancels, do further passes tally the magnitudes
    (``_level_tally``), each above a floor: ⌊M/2⌋ + 1, then ⌊M/2⁸⌋ + 1,
    then 0.  A pass drops every partial product that cannot reach its
    floor, so the levels it keeps are exact, and the first pass that keeps
    a level decides.  The floors run only when the ordinary determinant
    (``_bareiss``) is nonzero, which guarantees a surviving level; when it
    is zero, one pass with no floor decides.  The answer is the largest
    magnitude whose signed count is nonzero, which is Ϝ of all n!
    products, never a pairwise fold.  Guarded at n ≤ 8.  ``DET_PATHS``
    counts which path decided each answer.
    """
    rows = tuple(A)
    n = len(rows)
    # n ≤ 2 is decided on carriers; for n ≥ 3 the entries are read in place
    if n > 2:
        ints, factors = _integer_rows(rows)
        rows = ints
    else:
        rows = mat(rows)
    if n == 0:
        raise DimensionMismatch("empty matrix")
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch("matrix must be square")
    if n > 8:
        raise TooLarge(f"determinant limited to n <= 8, got {n}")
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return boxplus(a * d, -(b * c))
    steps = _subset_steps(n)
    mags = [0] * (1 << n)  # largest product magnitude per column set
    nets = [0] * (1 << n)  # signed count of the products at that magnitude
    mags[0] = nets[0] = 1
    for mask, i, moves in steps:
        row = ints[i]
        top = net = 0
        for j, prev, odd in moves:
            a = row[j]
            m = mags[prev]
            if a and m:
                c = -nets[prev] if odd else nets[prev]
                if a < 0:
                    a, c = -a, -c
                m *= a
                if m > top:
                    top, net = m, c
                elif m == top:
                    net += c
        mags[mask], nets[mask] = top, net
    top, net = mags[-1], nets[-1]
    if not top:
        DET_PATHS["zero"] += 1
        return ZERO
    if net:
        DET_PATHS["tight"] += 1
    else:
        DET_PATHS["cancelled"] += 1
        # The positive row factors scale every product alike, and Ϝ commutes
        # with that.  Every product is an integer, so nothing lies below a
        # cancelled 1.  An empty tally would make the determinant,
        # Σ count·magnitude, zero: when Bareiss finds it nonzero some level
        # survives, and the floors look for it near the top first; when it
        # is zero every level may cancel, and one whole pass decides.
        if top == 1:
            return ZERO
        for floor in (top // 2 + 1, (top >> 8) + 1, 0) if _bareiss(ints) else (0,):
            tally = _level_tally(ints, floor)
            if tally:
                break
        else:
            return ZERO
        top = max(tally)
        net = tally[top]
    return q(top if net > 0 else -top, math.prod(factors))


_SUBSET_STEPS: dict[int, list] = {}


def _subset_steps(n: int) -> list:
    """The subset DP's steps for n columns: (mask, row, moves) per nonempty mask.

    ``mask`` holds the columns given to rows 0..row.  Each move (j, prev,
    odd) puts ``row`` on column j, coming from ``prev`` = mask without j;
    ``odd`` is the parity of the columns in ``prev`` above j, the
    inversions the move adds.  Masks come row by row, each row's in
    increasing order, so every ``prev`` is done before the masks that use
    it.
    """
    steps = _SUBSET_STEPS.get(n)
    if steps is None:
        steps = _SUBSET_STEPS[n] = [
            (
                mask,
                mask.bit_count() - 1,
                [
                    (j, mask ^ (1 << j), (mask >> (j + 1)).bit_count() & 1)
                    for j in range(n)
                    if mask >> j & 1
                ],
            )
            for mask in sorted(range(1, 1 << n), key=int.bit_count)
        ]
    return steps


def _level_tally(ints: list[list[int]], floor: int = 0) -> dict[int, int]:
    """{magnitude: signed count} of the nonzero permutation products of a
    square integer matrix, without the levels that cancel or lie below
    ``floor``.

    The subset DP of ``det_infty`` with a tally in place of (top, count) per
    mask.  A magnitude whose count is 0 at a mask adds 0 at every mask that
    extends it, so it is dropped there.  With ``floor`` > 0 a partial
    product m is dropped too when m times the row maxima |a| of the rows
    still to assign stays below ``floor``: no product that extends it can
    reach ``floor``, so every level at or above it stays exact.  Once every
    mask of a row is empty, so is the tally.
    """
    n = len(ints)
    # least[i]: the smallest partial product kept once rows 0..i are assigned
    least = [0] * n
    if floor:
        rest = 1
        for i in range(n - 1, -1, -1):
            least[i] = -(-floor // rest) if rest else floor
            rest *= max(map(abs, ints[i]))
    tallies: list = [None] * (1 << n)
    tallies[0] = {1: 1}
    at, alive = 0, True
    for mask, i, moves in _subset_steps(n):
        if i != at:
            if not alive:
                return {}
            at, alive = i, False
        row = ints[i]
        tally: dict = {}
        get = tally.get
        for j, prev, odd in moves:
            a = row[j]
            before = tallies[prev]
            if a and before:
                if a < 0:
                    a, odd = -a, not odd
                for m, c in before.items():
                    m *= a
                    tally[m] = get(m, 0) + (-c if odd else c)
        low = least[i]
        tally = tallies[mask] = {m: c for m, c in tally.items() if c and m >= low}
        if tally:
            alive = True
    return tallies[-1]


def _pair_rows(rows: Iterable, same_dim: bool) -> list[list[tuple]]:
    """Each row read in place as the canonical pairs of its entries.

    A row is any iterable of scalars, or a comma-separated literal read by
    ``vec``.  A carrier entry is read through ``.numerator``/``.denominator``
    and any other through ``scalars._pair``, so a float, a bad string or an
    oversized literal raises as in ``vec``.  With ``same_dim``, each row's
    dimension must equal the first one's, checked as each row is read.
    """
    out: list[list[tuple]] = []
    for r in rows:
        if isinstance(r, str):
            r = vec(r)
        pairs = [(v.numerator, v.denominator) if type(v) is _Q else _pair(v) for v in r]
        if same_dim and out and len(pairs) != len(out[0]):
            raise DimensionMismatch(f"dim {len(out[0])} vs {len(pairs)}")
        out.append(pairs)
    return out


def _integer_rows(
    rows: Iterable, same_dim: bool = False
) -> tuple[list[list[int]], list[int]]:
    """Each row, read by ``_pair_rows``, times the lcm of its denominators:
    the integer rows and the factors."""
    ints: list[list[int]] = []
    factors: list[int] = []
    for pairs in _pair_rows(rows, same_dim):
        f = math.lcm(*[d for _, d in pairs])
        ints.append([n * (f // d) for n, d in pairs])
        factors.append(f)
    return ints, factors


def _common_rows(*vectors) -> tuple[list[list[int]], int]:
    """The vectors, read by ``_pair_rows`` with equal dimensions, at one
    common scale (``_common_scale``)."""
    return _common_scale(_pair_rows(vectors, True))


def _common_scale(rows: list[list[tuple]]) -> tuple[list[list[int]], int]:
    """Rows of canonical pairs times f, the lcm of all their denominators:
    the integer rows and f."""
    f = math.lcm(*[d for pairs in rows for _, d in pairs])
    return [[n * (f // d) for n, d in pairs] for pairs in rows], f


def _bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of a nonempty integer matrix by fraction-free elimination.

    Bareiss (1968): every division is exact, so intermediates stay integers
    no larger than the minors of the input.
    """
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * a[-1][-1]
