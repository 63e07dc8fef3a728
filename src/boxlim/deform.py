"""Finite-p deformed arithmetic: the independent convergence oracle.

Every limit operation in this package is the p → ∞ limit of ordinary
arithmetic transported through the odd power map φ_p(λ) = λ^(2p+1).  This
module evaluates the finite-p side: power sums are computed exactly, over
the integers left when each vector is scaled by the lcm of its
denominators, and only the final odd root is inexact: the integer quotient
is rounded once to a binary float at a working precision that grows with
p (``_quotient``, one divmod), and its root is rounded once more,
correctly, by an integer Newton kernel (``_nthroot``).  Both run on plain
ints from the power sum to the raw result, the tuple (sign, man, exp, bc)
of an mpmath float with an int mantissa.  Exact cancellations therefore
stay exactly zero at every p.  The deformed cosine and sine keep that
promise too: their ratio of power sums is formed exactly, so each takes one
root, and an exact ±1 or 0 comes out exact.
Vector and matrix inputs are read in place; only integer rows are built
(``linalg._integer_rows``), never a carrier per entry.

Each public ``p_*`` wraps a private kernel with the same arguments that
returns raw values, and both samplers wrap ``_p_samples``, one raw point per
parameter; the wrapper builds the ``mpmath.mpf`` (``_mpf``).  ``_mpmath`` is
the package's one mpmath import, so mpmath loads with the first public mpf,
never with this module.  Inside the package values stay raw: ``_oracle``
runs an ``_ORACLE`` op, a kernel paired with its limit, through
``converge``'s error loop (``_converge``), and ``_float`` reads a raw value
as a float.

Every root is one rounding of an integer quotient to the working precision
(round-to-nearest, ties to even, the float mpmath's ``from_rational`` gives)
and one correctly rounded (round-to-nearest) root of that float at the same
precision, with the sign set exactly; no mpmath context is entered, so a
result has the same bits whatever the caller's ``mp.prec``.  The
convergence harness measures each error exactly, as one integer quotient
rounded once to a float.

p is a plain int, checked in one place: an int p with 0 ≤ p ≤ ``MAX_P``
gives the exponent 2p+1 and the working precision ``_min_precision(p)`` =
64 + 16(2p+1) bits; any other p raises (``ValueError``, or ``TooLarge``
above the cap).  The harness defaults are the constants ``DEFAULT_P_GRID``
and ``DEFAULT_TOL``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from ._record import Record
from .errors import (
    MAX_P,
    DegeneratePair,
    DimensionMismatch,
    EmptyList,
    TooLarge,
    ZeroVector,
)
from .linalg import _bareiss, _common_rows, _integer_rows, det_infty, inner_infty, norm_infty
from .metric import dist_boxplus
from .scalars import ScalarLike, ScalarQ, _as_exact, nary_boxplus, q
from .trig import cos_infty, sin_infty

__all__ = [
    "ConvergenceReport",
    "DEFAULT_P_GRID",
    "DEFAULT_TOL",
    "p_sum",
    "exact_power_sum_is_zero",
    "p_inner",
    "p_norm",
    "p_dist",
    "p_det",
    "p_matvec",
    "p_cos",
    "p_sin",
    "co_p_sample",
    "line_p_sample",
    "converge",
]

DEFAULT_P_GRID = (1, 2, 4, 8, 16, 32)
DEFAULT_TOL = 1e-6


def _min_precision(p: int) -> int:
    # (2p+1)-th powers of near-1 ratios need headroom beyond double precision
    return 64 + 16 * (2 * p + 1)


def _power(p: int) -> tuple[int, int]:
    """The exponent 2p+1 and the working precision for p.

    Raises ValueError unless p is an int ≥ 0, and TooLarge above MAX_P.
    A plain int in range passes on one test.
    """
    if not (type(p) is int and 0 <= p <= MAX_P):
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"p must be a nonnegative integer, got {p!r}")
        if p > MAX_P:
            raise TooLarge(f"p limited to p <= {MAX_P}, got {p}")
    return 2 * p + 1, _min_precision(p)


# a raw mpmath float (sign, man, exp, bc): the value (−1)^sign·man·2^exp
Raw = tuple[int, int, int, int]


@functools.cache
def _mpmath() -> tuple:
    """mpmath's context, its mpf type and its mantissa type, imported on the
    first call."""
    from mpmath import mp, mpf
    from mpmath.libmp import MPZ

    return mp, mpf, MPZ


def _mpf(raw: Raw):
    """The ``mpmath.mpf`` of a raw value, its mantissa converted to mpmath's
    own int type (gmpy2's mpz under that backend)."""
    mp, _, mpz = _mpmath()
    sign, man, exp, bc = raw
    return mp.make_mpf((sign, mpz(man), exp, bc))


def _float(raw: Raw) -> float:
    """The double nearest a raw value (ties to even), ±inf beyond the double
    range: ``float`` of its mpf, in the normal range."""
    sign, man, exp, _ = raw
    try:
        v = man / (1 << -exp) if exp < 0 else float(man << exp)
    except OverflowError:
        v = math.inf
    return -v if sign else v


def _root(n: int, d: int, k: int, prec: int) -> Raw:
    """sign(n)·(|n|/d)^(1/k) for integers n and d > 0, as a raw value.

    |n|/d is rounded once to nearest at prec (``_quotient``), and
    ``_nthroot`` roots that float, correctly rounded at prec, with the sign
    set exactly.  Both work on ints alone and enter no mpmath context, so
    the caller's precision cannot touch the result.
    """
    if not n:
        return 0, 0, 0, 0
    man, exp = _quotient(abs(n), d, prec)
    return _nthroot(man, exp, k, prec, 1 if n < 0 else 0)


def _quotient(n: int, d: int, prec: int) -> tuple[int, int]:
    """(man, exp) with man·2^exp = n/d rounded to nearest at prec bits, ties
    to even, for integers n, d > 0: the value of ``from_rational(n, d, prec,
    round_nearest)``, with man ≤ 2^prec not normalized.

    One divmod gives q = ⌊n·2^s/d⌋ with prec + 1 or prec + 2 bits; the bits
    of q below its top prec round it, with the remainder as sticky bit.
    """
    s = prec + 1 + d.bit_length() - n.bit_length()
    q, r = divmod(n << s, d) if s >= 0 else divmod(n, d << -s)
    cut = q.bit_length() - prec
    man, low, half = q >> cut, q & ((1 << cut) - 1), 1 << cut - 1
    if low > half or low == half and (r or man & 1):
        man += 1
    return man, cut - s


def _nthroot(man: int, exp: int, k: int, prec: int, sign: int = 0) -> Raw:
    """The k-th root of man·2^exp > 0, rounded to nearest at prec bits, as a
    normalized raw value with sign bit ``sign``.

    With g = ⌊(t − 1)/k⌋ for t = exp + bit_length(man), the root lies in
    [2^g, 2^(g+1)), and y = root / 2^g is the root of z = man·2^(exp − kg)
    in [1, 2^k).  ``_fixed_root`` gives y to prec + G bits, G guard bits
    with an error far below 2^(G/2) units.  The guard bits round y unless
    they lie within 2^(G/2) of the half point; then y is taken again with G
    doubled, and only if that is as close does ``_above`` decide: man·2^exp
    against the k-th power of the midpoint (2q + 1)·2^(g − prec).  No root
    of a prec-bit float is a midpoint for k ≥ 2, so no tie arises.  The
    rounded mantissa (at most 2^prec) loses its trailing zeros in one step.
    The schedule of ``_fixed_root`` ends for k < 2^20; the oracle's k is at
    most 2(2·MAX_P + 1).
    """
    g = (exp + man.bit_length() - 1) // k
    e = exp - k * g
    guard = 2 * k.bit_length() + 10
    for guard in (guard, 2 * guard):
        r = _fixed_root(man, e, k, prec + guard)
        low = r & ((1 << guard) - 1)
        if abs(low - (1 << guard - 1)) > 1 << guard // 2:
            m = (r >> guard) + (low >> guard - 1)
            break
    else:
        q = r >> guard
        m = q + _above(man, exp, 2 * q + 1, k, k * (g - prec))
    zeros = (m & -m).bit_length() - 1
    m >>= zeros
    return sign, m, g + 1 - prec + zeros, m.bit_length()


def _above(man: int, exp: int, m: int, k: int, c: int) -> bool:
    """Whether man·2^exp > m^k·2^c, for k ≥ 2 and m > 0 where the two differ.

    m^k is bracketed, lo·2^s ≤ m^k ≤ hi·2^s, by square-and-multiply with
    every product cut to w bits, rounded down in lo and up in hi.  w starts
    at twice the width of m, which settles a root within about 2^−prec ulp
    of the midpoint (such as the root of 1 + k·2^−prec, which a prec-bit
    float reaches for even k), and doubles until man·2^exp lies outside the
    bracket.  Once w ≥ k·bit_length(m) no product is cut and lo = hi = m^k,
    so the last pass is the exact comparison.
    """
    chain = bin(k)[3:]  # the bits of k below its leading one
    w = 2 * m.bit_length() + 4 * k.bit_length()
    while True:
        lo = hi = m
        s = 0
        for bit in chain:
            lo, hi, s = lo * lo, hi * hi, 2 * s
            if bit == "1":
                lo, hi = lo * m, hi * m
            cut = max(lo.bit_length() - w, 0)
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
        shift = exp - c - s  # compare man·2^shift with lo and hi
        x = man << shift if shift >= 0 else man
        if shift < 0:
            lo, hi = lo << -shift, hi << -shift
        if x > hi:
            return True
        if x < lo:
            return False
        w *= 2


@functools.lru_cache(maxsize=4 * (MAX_P + 1))
def _schedule(k: int, w: int) -> tuple[int, tuple[int, ...], str]:
    """``_fixed_root``'s plan for k and w: the precision of its float seed,
    the precisions of the Newton steps after it, and the bits of k − 1 below
    its leading one.

    A step near the root loses about log2(k) bits of the doubling, so the
    schedule is built down from w as w_prev = ⌊w/2⌋ + bit_length(k) + 4
    until a 53-bit float seed covers it (or is w itself, if w is that
    small).  The plan depends on (k, w) alone: the oracle's k is 2p+1 or
    2(2p+1) and its w is prec + G or prec + 2G for p ≤ MAX_P, so the cache
    holds every plan the oracle can ask for.
    """
    steps = [w]
    while steps[-1] > 48:
        steps.append(steps[-1] // 2 + k.bit_length() + 4)
    seed = steps.pop() if len(steps) > 1 else w
    return seed, tuple(reversed(steps)), bin(k - 1)[3:]


def _fixed_root(man: int, e: int, k: int, w: int) -> int:
    """z^(1/k)·2^(w−1) for z = man·2^e in [1, 2^k), to within a few units.

    Newton's step r ← ((k − 1)r + z / r^(k−1)) / k on integers with f = w − 1
    fractional bits, along the precisions of ``_schedule(k, w)``;
    r^(k−1) is taken by square-and-multiply, each product truncated to f
    fractional bits.
    """
    w, steps, chain = _schedule(k, w)
    # the seed 2^(log2(z)/k), from the top 53 bits of man, at the first
    # precision of the schedule
    bits = man.bit_length()
    top = man >> bits - 53 if bits > 53 else man << 53 - bits
    y = 2.0 ** ((bits + e + math.log2(top * 2.0**-53)) / k)
    r = int(math.ldexp(y, w - 1))
    for v in steps:
        r <<= v - w
        w, f = v, v - 1
        z = man << e + f if e + f >= 0 else man >> -(e + f)
        power = r if k > 1 else 1 << f
        for bit in chain:
            power = power * power >> f
            if bit == "1":
                power = power * r >> f
        r = ((k - 1) * r + (z << f) // power) // k
    return r


def _settings(p_grid: Sequence[int] | None, tol) -> tuple[tuple[int, ...], float]:
    """The p-grid and tol of a finite-p check, None meaning the default.

    Every entry goes through ``_power`` before any evaluation; ValueError
    also for an empty grid or a tol not > 0 (nan included) or infinite.
    """
    grid = tuple(DEFAULT_P_GRID if p_grid is None else p_grid)
    if not grid:
        raise ValueError("p_grid must be nonempty")
    for p in grid:
        _power(p)
    tol = DEFAULT_TOL if tol is None else float(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")
    return grid, tol


def _param(v) -> ScalarQ:
    """A sampling parameter read exactly: a float or an mpf is the binary
    rational it stores, anything else goes through q; ±inf and nan raise
    ValueError.

    An mpf (any value with mpmath's ``_mpf_`` tuple) is read from that
    tuple on ints: man·2^exp with the sign applied, where man = 0 with
    exp ≠ 0 marks ±inf and nan.
    """
    raw = getattr(v, "_mpf_", None)
    if raw is None:
        return _as_exact(v)
    sign, man, exp, _ = raw
    if not man and exp:
        raise ValueError(f"no exact rational from {v}")
    man = -int(man) if sign else int(man)
    return q(man << exp) if exp >= 0 else q(man, 1 << -exp)


# ---------------------------------------------------------------------------
# deformed scalar/vector operations: each public function builds the mpf of
# its raw kernel's value


def p_sum(values: Sequence[ScalarLike], p: int):
    """(Σ x_i^(2p+1))^(1/(2p+1)) — the deformed indexed sum, converging to Ϝ."""
    return _mpf(_p_sum(values, p))


def _p_sum(values: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    (ints,), (f,) = _integer_rows((values,))
    if not ints:
        raise EmptyList("deformed sum of an empty list")
    return _root(sum(a**k for a in ints), f**k, k, prec)


def exact_power_sum_is_zero(values: Sequence[ScalarLike], p: int) -> bool:
    """Exact test Σ x_i^(2p+1) = 0, as Σ a_i^(2p+1) = 0 on the integer row
    a = f·x (no floating point involved)."""
    k, _ = _power(p)
    (ints,), _ = _integer_rows((values,))
    return sum(a**k for a in ints) == 0


def p_inner(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int):
    """(Σ (x_i y_i)^(2p+1))^(1/(2p+1)), converging to the limit inner product."""
    return _mpf(_p_inner(x, y, p))


def _p_inner(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    (a, b), (fa, fb) = _integer_rows((x, y), same_dim=True)
    if not a:
        raise EmptyList("deformed sum of an empty list")
    return _inner_root(a, b, fa * fb, k, prec)


def _inner_root(a: list[int], b: list[int], f: int, k: int, prec: int) -> Raw:
    """The deformed inner product of a/f_a and b/f_b, with f = f_a·f_b."""
    return _root(sum((s * t) ** k for s, t in zip(a, b)), f**k, k, prec)


def p_norm(x: Sequence[ScalarLike], p: int):
    """(Σ |x_i|^(2(2p+1)))^(1/(2(2p+1))), converging to the Chebyshev norm."""
    return _mpf(_p_norm(x, p))


def _p_norm(x: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    (ints,), (f,) = _integer_rows((x,))
    return _root(sum(a ** (2 * k) for a in ints), f ** (2 * k), 2 * k, prec)


def p_dist(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int):
    """(Σ |x_i^(2p+1) − y_i^(2p+1)|²)^(1/(2(2p+1))), converging to the limit distance."""
    return _mpf(_p_dist(x, y, p))


def _p_dist(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    # one common scale f, so that x_i^k − y_i^k = (a_i^k − b_i^k) / f^k
    (a, b), f = _common_rows(x, y)
    total = sum((s**k - t**k) ** 2 for s, t in zip(a, b))
    return _root(total, f ** (2 * k), 2 * k, prec)


def p_det(A: Sequence[Sequence[ScalarLike]], p: int):
    """Signed odd root of the exact determinant of the entry powers.

    Each row of the powered matrix is scaled to integers by its
    denominators' lcm to the power 2p+1, so the determinant is one integer
    Bareiss elimination, O(n³), divided back by the scales.
    """
    return _mpf(_p_det(A, p))


def _p_det(A: Sequence[Sequence[ScalarLike]], p: int) -> Raw:
    k, prec = _power(p)
    ints, factors = _integer_rows(A)
    n = len(ints)
    if n == 0 or any(len(r) != n for r in ints):
        raise DimensionMismatch("matrix must be square and nonempty")
    det = _bareiss([[v**k for v in r] for r in ints])
    return _root(det, math.prod(factors) ** k, k, prec)


def p_matvec(
    A: Sequence[Sequence[ScalarLike]], x: Sequence[ScalarLike], p: int
) -> tuple:
    """Coordinatewise deformed sum of row products (matrix action at finite p)."""
    return tuple(map(_mpf, _p_matvec(A, x, p)))


def _p_matvec(
    A: Sequence[Sequence[ScalarLike]], x: Sequence[ScalarLike], p: int
) -> tuple[Raw, ...]:
    k, prec = _power(p)
    # x and each row are read once; each row's dimension must be x's
    (b, *rows), (fb, *factors) = _integer_rows((x, *A), same_dim=True)
    if rows and not b:
        raise EmptyList("deformed sum of an empty list")
    return tuple(_inner_root(a, b, fa * fb, k, prec) for a, fa in zip(rows, factors))


def p_cos(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int):
    """Deformed cosine ⟨x,y⟩_p / (‖x‖_p ‖y‖_p), from one root of an exact ratio."""
    return _mpf(_p_cos(x, y, p))


def _p_cos(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    (a, b), _ = _integer_rows((x, y), same_dim=True)
    if not any(a) or not any(b):
        raise ZeroVector("deformed cosine needs nonzero vectors")
    return _ratio_root(sum((s * t) ** k for s, t in zip(a, b)), a, b, k, prec)


def p_sin(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int):
    """Deformed sine: 2×2 deformed determinant over the norm product (dim 2),
    from one root of an exact ratio."""
    return _mpf(_p_sin(x, y, p))


def _p_sin(x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int) -> Raw:
    k, prec = _power(p)
    (a, b), _ = _integer_rows((x, y), same_dim=True)
    if len(a) != 2:
        raise DimensionMismatch("deformed sine is defined in dimension 2")
    if not any(a) or not any(b):
        raise ZeroVector("deformed sine needs nonzero vectors")
    return _ratio_root((a[0] * b[1]) ** k - (b[0] * a[1]) ** k, a, b, k, prec)


def _ratio_root(s: int, a: list[int], b: list[int], k: int, prec: int) -> Raw:
    """sign(s)·(s² / (N_a N_b))^(1/(2k)) with N_v = Σ v_i^(2k), k = 2p+1.

    a and b are x and y scaled to integers by f_x and f_y, and s is the power
    sum S scaled by (f_x f_y)^k; the scales cancel in S² / (N_x N_y), so the
    ratio is one exact integer quotient, rounded once and rooted once.
    """
    k2 = 2 * k
    norms = sum(v**k2 for v in a) * sum(v**k2 for v in b)
    return _root(s * abs(s), norms, k2, prec)


# ---------------------------------------------------------------------------
# deformed segments and lines


def co_p_sample(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int, t
) -> tuple:
    """Point of the deformed two-point hull at parameter t ∈ [0,1].

    Coordinates are φ_p^{-1}(t^(2p+1) φ_p(x_i) + (1 − t^(2p+1)) φ_p(y_i)).
    t is a rational, int, string, float or mpf, read exactly.
    """
    return tuple(map(_mpf, _p_samples(x, y, p, (t,), "hull")[0]))


def line_p_sample(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], p: int, s
) -> tuple:
    """Point of the deformed line through x, y with coefficients (s, 1 ⊟_p s),
    for s a rational, int, string, float or mpf, read exactly."""
    return tuple(map(_mpf, _p_samples(x, y, p, (s,), "line")[0]))


def _p_samples(x, y, p: int, params, what: str) -> list[tuple[Raw, ...]]:
    """The raw points with coefficients (s, 1 ⊟_p s), one per s in params,
    on the deformed hull (``what`` = "hull", each s in [0, 1]) or line.

    The parameters are read first, then p, then x and y, each once.
    """
    params = [_param(s) for s in params]
    if what == "hull" and not all(0 <= t <= 1 for t in params):
        raise ValueError("t must lie in [0, 1]")
    k, prec = _power(p)
    # φ_p^{-1}(s^k x_i^k + (1 − s^k) y_i^k) per coordinate: with s = n/d and
    # one common scale f taking x, y to integers a, b, the root of
    # (n^k a_i^k + (d^k − n^k) b_i^k) / (d^k f^k)
    (a, b), f = _common_rows(x, y)
    if a == b:
        raise DegeneratePair(f"{what} sampling needs two distinct points")
    powers = [(u**k, v**k) for u, v in zip(a, b)]
    fk = f**k
    return [
        tuple(_root(nk * u + (dk - nk) * v, dk * fk, k, prec) for u, v in powers)
        for nk, dk in [(s.numerator**k, s.denominator**k) for s in params]
    ]


# ---------------------------------------------------------------------------
# convergence harness


# the oracle's op -> (kernel, limit), called as kernel(*inputs, p), limit(*inputs)
_ORACLE = {
    "sum": (_p_sum, nary_boxplus),
    "inner": (_p_inner, inner_infty),
    "norm": (_p_norm, norm_infty),
    "dist": (_p_dist, dist_boxplus),
    "det": (_p_det, det_infty),
    "cos": (_p_cos, cos_infty),
    "sin": (_p_sin, sin_infty),
}


class ConvergenceReport(Record):
    """Errors of a finite-p evaluator against its claimed limit along a p-grid."""

    __slots__ = ("p_grid", "errors", "converged", "final_error", "tol")
    _defaults = (DEFAULT_TOL,)

    def as_dict(self) -> dict:
        return {
            "p": list(self.p_grid),
            "error": list(self.errors),
            "converged": self.converged,
        }


def converge(
    evaluator: Callable[[int], object],
    limit: ScalarLike,
    p_grid: Sequence[int] | None = None,
    tol: float | None = None,
) -> ConvergenceReport:
    """Evaluate |evaluator(p) − limit| along the grid.

    Each error is exact: an mpf is the binary rational man·2^exp, so
    |value − limit| is one integer quotient, rounded once to the nearest
    float (inf beyond float range; an inf or nan value gives an inf or nan
    error).  Any other value is read exactly, as ``q`` reads it (a float is
    the binary rational it stores), and rounded once to nearest at 64 bits
    above the working precision for its p, on ints, as every root rounds
    its quotient (``_quotient``): the same under every carrier.

    converged ⇔ the final error is ≤ tol *and* the last three errors are
    non-increasing (early-p oscillation near magnitude ties is expected).
    In that tail rule an error below 2^-(16(2p+1))·max(1, |limit|) counts as
    0: it is rounding noise of a finite-p value that equals the limit.  The
    comparison is exact, over the integers.
    Before the first evaluation, raises ValueError for an empty grid, a p
    that is not an int ≥ 0 or a tol that is not finite and > 0, and
    TooLarge if a p exceeds MAX_P.
    """

    def raw(p: int) -> Raw | float:
        val = evaluator(p)
        r = getattr(val, "_mpf_", None)
        if r is not None and (r[1] or not r[2]):
            return r
        if r is not None or isinstance(val, float) and not math.isfinite(val):
            return float(val)  # ±inf or nan (man = 0 with exp ≠ 0 in an mpf)
        v = _as_exact(val)
        # the first root of a rounded quotient is exact: n/d rounded once
        return _root(int(v.numerator), int(v.denominator), 1, _min_precision(p) + 64)

    return _converge(raw, limit, p_grid, tol)


def _oracle(
    op: str, inputs: tuple, p_grid: Sequence[int] | None, tol: float | None
) -> ConvergenceReport:
    """The report of one ``_ORACLE`` op on its inputs: the limit is taken
    first, then the settings are checked, then the kernel runs."""
    kernel, limit = _ORACLE[op]
    return _converge(lambda p: kernel(*inputs, p), limit(*inputs), p_grid, tol)


def _converge(
    evaluator: Callable[[int], Raw | float],
    limit: ScalarLike,
    p_grid: Sequence[int] | None,
    tol: float | None,
) -> ConvergenceReport:
    """``converge`` for an evaluator of raw values, such as a kernel, or of
    ±inf and nan as floats."""
    grid, tol = _settings(p_grid, tol)
    lim = q(limit)
    n, d = int(lim.numerator), int(lim.denominator)
    scale = max(d, abs(n))  # max(1, |limit|) = scale / d
    errors = []
    ranked = []  # the errors with rounding noise counted as 0
    for p in grid:
        val = evaluator(p)
        if isinstance(val, float):  # ±inf or nan, from converge's reader
            errors.append(abs(val))
            ranked.append(errors[-1])
            continue
        sign, man, exp, _ = val
        # |val − n/d| = num / den, with den = d·2^max(0, −exp)
        man = -man if sign else man
        if exp >= 0:
            num, den = abs((man << exp) * d - n), d
        else:
            num, den = abs(man * d - (n << -exp)), d << -exp
        try:
            errors.append(num / den)
        except OverflowError:
            errors.append(math.inf)
        noise = (num * d) << (16 * (2 * p + 1)) < scale * den
        ranked.append(0.0 if noise else errors[-1])
    tail = ranked[-3:]
    monotone = all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
    final = errors[-1]
    return ConvergenceReport(
        p_grid=grid,
        errors=tuple(errors),
        converged=(final <= tol and monotone),
        final_error=final,
        tol=tol,
    )
