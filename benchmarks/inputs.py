"""Seeded inputs for the four workloads, generated by the benchmark itself.

Every value comes from the benchmark's own ``random.Random`` streams and its
own gap filters, never from ``boxlim.sampling``, so a change to the library's
sampler cannot change what the benchmark feeds the library.  Values are
``fractions.Fraction``; the runner converts them to the library's carrier
outside the timed interval, and the digest is taken over the Fraction form,
so parent and change are seen to receive identical inputs whatever carrier
each one uses.

The ``geometry`` workload draws its *structures* (generators, coefficients
and random points) from one fixed stream and lets ``--seed`` choose only the
coordinate signs of each query (and fresh determinant matrices).  The
searches are invariant under sign flips, so membership and the work each
search does are the same on every seed while the values differ.  Without
this, one seed that happens to draw a few long exhaustive searches would
move the run's throughput by more than the benchmark's bound.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

GAP = Fraction(3, 4)
STRUCTURE_SEED = "boxlim-geometry-structures-v1"

# positions per pass; a run times whole rounds (ROUND) of them, and every
# position at least MIN_PASSES times (see run.py)
POOL_SIZE = {"laws": 7_500, "geometry": 100, "oracle": 4_480, "cli": 108}
ROUND = {"laws": 1, "geometry": 100, "oracle": 56, "cli": 9}

DEFAULT_GRID = (1, 2, 4, 8, 16, 32)
EXTENDED_GRID = (1, 2, 4, 8, 16, 32, 64, 128)
EXTENDED_EVERY = 8  # every 8th oracle query uses EXTENDED_GRID
ORACLE_OPS = ("sum", "inner", "norm", "dist", "det", "cos", "sin")

# The geometry pass: 100 positions in a fixed order.  det_infty 56 (n = 7
# twenty times, n = 6 twenty-six, n = 5 six, n = 4 four); constructed
# members 39 (co_contains at n = 3 and 4, 8 and 9 times; line_contains_nd at
# n = 3 and 4, 7 and 6 times; mp_hull_contains 9 times); random points for
# the exhaustive line search 5 (n = 2 three times, n = 3 twice).  Timings of
# one position vary much less than timings across kinds, so the counts put
# each reported percentile inside a group that always does the same work:
# the n = 6 determinants (about 10 ms) hold the ranks around 50 and the
# n = 7 determinants (about 85 ms) those around 90.
GEOMETRY_COUNTS = {
    "det7": 20, "det6": 26, "det5": 6, "det4": 4,
    "co3": 8, "co4": 9, "ln3": 7, "ln4": 6, "mp": 9,
    "nf2": 3, "nf3": 2,
}
GEOMETRY_KINDS = sorted(k for k, c in GEOMETRY_COUNTS.items() for _ in range(c))
random.Random("boxlim-geometry-order-v1").shuffle(GEOMETRY_KINDS)

CLI_KINDS = (
    "eval", "dist", "det", "hull", "line", "trig", "complex", "maxplus", "oracle",
)


# ---------------------------------------------------------------------------
# scalar draws and the benchmark's own reference arithmetic


def rational(rng: random.Random, lo=-10, hi=10, den=4) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(lo * d, hi * d), d)


def nonzero(rng: random.Random, lo=-10, hi=10, den=4) -> Fraction:
    while True:
        v = rational(rng, lo, hi, den)
        if v:
            return v


def vector(rng: random.Random, n: int, lo=-10, hi=10, den=4) -> tuple:
    return tuple(rational(rng, lo, hi, den) for _ in range(n))


def distinct_from(rng: random.Random, x: tuple, lo=-10, hi=10, den=4) -> tuple:
    while True:
        y = vector(rng, len(x), lo, hi, den)
        if y != x:
            return y


def ref_nary(values) -> Fraction:
    """Limit sum of a multiset: cancel sign-symmetric groups, keep the top."""
    net: dict = {}
    for v in values:
        if v:
            net[abs(v)] = net.get(abs(v), 0) + (1 if v > 0 else -1)
    live = [m for m, c in net.items() if c]
    if not live:
        return Fraction(0)
    top = max(live)
    return top if net[top] > 0 else -top


def _parity(perm: tuple) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def signed_products(m: tuple) -> list:
    """The n! signed permutation products of a square matrix."""
    n = len(m)
    out = []
    for perm in itertools.permutations(range(n)):
        prod = _parity(perm)
        for i in range(n):
            prod *= m[i][perm[i]]
        out.append(prod)
    return out


def ref_det(m: tuple) -> Fraction:
    """Limit determinant as the one-shot limit sum of the signed products.

    Each row is first scaled to integers by a positive factor; that scales
    every product by the same positive number, which the limit sum commutes
    with, and integer products are much cheaper than Fraction ones."""
    factors = [math.lcm(*(v.denominator for v in row)) for row in m]
    rows = [[int(v * f) for v in row] for row, f in zip(m, factors)]
    return Fraction(ref_nary(signed_products(rows))) / math.prod(factors)


def gap_ok(values) -> bool:
    """Surviving magnitudes: the top has net count ±1 and dominates the next
    one by the ratio GAP (cancelled levels are exact at every p)."""
    net: dict = {}
    for v in values:
        if v:
            net[abs(v)] = net.get(abs(v), 0) + (1 if v > 0 else -1)
    live = sorted((m for m, c in net.items() if c), reverse=True)
    if not live:
        return True
    if net[live[0]] not in (1, -1):
        return False
    return len(live) == 1 or live[1] <= GAP * live[0]


def norm_gap_ok(x) -> bool:
    mags = sorted((abs(v) for v in x), reverse=True)
    return len(mags) < 2 or mags[0] == 0 or mags[1] <= GAP * mags[0]


def dist_gap_ok(x, y) -> bool:
    tops = []
    for a, b in zip(x, y):
        if a == b:
            continue
        hi, lo = max(abs(a), abs(b)), min(abs(a), abs(b))
        if lo and lo > GAP * hi:
            return False
        tops.append(hi)
    tops.sort(reverse=True)
    return len(tops) < 2 or tops[1] <= GAP * tops[0]


def trig_gap_ok(x, y) -> bool:
    if not any(x) or not any(y):
        return False
    if not gap_ok([a * b for a, b in zip(x, y)]):
        return False
    if not gap_ok((x[0] * y[1], -x[1] * y[0])):
        return False
    return norm_gap_ok(x) and norm_gap_ok(y)


def draw(rng: random.Random, make, accept):
    while True:
        s = make()
        if accept(s):
            return s


# ---------------------------------------------------------------------------
# laws: one rational triple with its vectors, complex pair, angles and
# max-plus triple per query


def _msym_spec(rng: random.Random) -> tuple:
    if rng.random() < 0.1:
        return (0, Fraction(0))
    return (rng.choice((-1, 1)), rational(rng, -6, 6))


def laws_pool(seed: int) -> list:
    rng = random.Random(f"laws:{seed}")
    pool = []
    for i in range(POOL_SIZE["laws"]):
        a, b, c = rational(rng), rational(rng), rational(rng)
        n = rng.randint(1, 4)
        x = vector(rng, n)
        y = x if i % 16 == 0 else vector(rng, n)
        z = vector(rng, n)
        radius = abs(rational(rng))
        if rng.random() < 0.5:
            probe = tuple(v if rng.random() < 0.5 else v + rational(rng, -2, 2) for v in x)
        else:
            probe = vector(rng, n)
        cz = (rational(rng), rational(rng))
        cw = (rational(rng), rational(rng))
        turns = (rational(rng, -20, 20, 8), rational(rng, -20, 20, 8))
        theta = rational(rng, -20, 20, 8)
        period = rng.choice((-2, -1, 1, 2))
        u = rational(rng, -1, 1, 8)
        side = rng.randrange(4)
        boundary = ((1, u), (u, 1), (-1, u), (u, -1))[side]
        boundary = tuple(Fraction(v) for v in boundary)
        mps = tuple(_msym_spec(rng) for _ in range(3))
        pool.append(
            (a, b, c, x, y, z, radius, probe, cz, cw, turns, theta, period, boundary, mps)
        )
    return pool


# ---------------------------------------------------------------------------
# geometry: fixed structures, seeded symmetries


def _hull_coeffs(rng: random.Random) -> tuple:
    c = [rational(rng, 0, 1, 4) for _ in range(4)]
    c[rng.randrange(4)] = Fraction(1)
    return tuple(c)


def _line_coeffs(rng: random.Random, k: int) -> tuple:
    """Coefficients with limit sum 1: hull shapes or a cancelling family."""
    if k % 3 == 0:
        return _hull_coeffs(rng)
    c = nonzero(rng, -6, 6)
    one, zero = Fraction(1), Fraction(0)
    return (one, c, -c, zero) if k % 3 == 1 else (c, zero, one, -c)


def ref_point(x, y, coeffs) -> tuple:
    t, r, s, w = coeffs
    return tuple(ref_nary((t * a, r * a, s * b, w * b)) for a, b in zip(x, y))


def _mp_ref_nary(specs) -> tuple:
    net: dict = {}
    for sign, lm in specs:
        if sign:
            net[lm] = net.get(lm, 0) + sign
    live = [lm for lm, c in net.items() if c]
    if not live:
        return (0, Fraction(0))
    top = max(live)
    return (1 if net[top] > 0 else -1, top)


def _mp_times(u, v) -> tuple:
    if not u[0] or not v[0]:
        return (0, Fraction(0))
    return (u[0] * v[0], u[1] + v[1])


def mp_ref_point(x, y, coeffs) -> tuple:
    t, r, s, w = coeffs
    return tuple(
        _mp_ref_nary((_mp_times(t, a), _mp_times(r, a), _mp_times(s, b), _mp_times(w, b)))
        for a, b in zip(x, y)
    )


def _mp_spec(rng: random.Random) -> tuple:
    if rng.random() < 0.1:
        return (0, Fraction(0))
    return (rng.choice((-1, 1)), rational(rng, -6, 6, 2))


def _mp_coeffs(rng: random.Random) -> tuple:
    cs = [
        (0, Fraction(0)) if rng.random() < 0.2 else (1, rational(rng, -6, 0, 2))
        for _ in range(4)
    ]
    cs[rng.randrange(4)] = (1, Fraction(0))
    return tuple(cs)


def _structure(kind: str, srng: random.Random, k: int) -> tuple:
    if kind.startswith(("co", "ln")):
        n = int(kind[2])
        x = vector(srng, n)
        y = distinct_from(srng, x)
        coeffs = _hull_coeffs(srng) if kind.startswith("co") else _line_coeffs(srng, k)
        return (x, y, ref_point(x, y, coeffs))
    if kind.startswith("nf"):
        # n = 3 from integers: with quarters one search there took seconds
        n = int(kind[2])
        den = 4 if n == 2 else 1
        x = vector(srng, n, den=den)
        y = distinct_from(srng, x, den=den)
        return (x, y, vector(srng, n, den=den))
    if kind == "mp":
        x = tuple(_mp_spec(srng) for _ in range(3))
        y = tuple(_mp_spec(srng) for _ in range(3))
        return (x, y, mp_ref_point(x, y, _mp_coeffs(srng)))
    return ()  # det_infty matrices come from the seeded stream directly


def _signs(rng: random.Random, n: int) -> list:
    """Coordinate signs.  Flipping the sign of coordinate i in x, y and z
    keeps membership and the searches' work exactly; a scale or a shift of
    log-magnitudes would change the size of the numbers, and a permutation
    the order in which the searches reject, so neither is applied."""
    return [rng.choice((-1, 1)) for _ in range(n)]


def _apply(signs, v: tuple) -> tuple:
    return tuple(sign * c for sign, c in zip(signs, v))


def _apply_mp(signs, v: tuple) -> tuple:
    return tuple((flip * sign, lm) for flip, (sign, lm) in zip(signs, v))


def geometry_pool(seed: int, pass_index: int = 0) -> list:
    """(kind, index, payload) per position.

    Payload: (x, y, z) for membership kinds, a matrix for det kinds.  Each
    position keeps its structure on every pass; pass_index only changes the
    seeded signs (and draws fresh det matrices), so a pass does
    the same work on new values.  For 'nf' kinds the index counts nf
    positions, which is what benchmarks/geometry_found.json refers to.
    """
    srng = random.Random(STRUCTURE_SEED)
    rng = random.Random(f"geometry:{seed}:{pass_index}")
    pool = []
    nf_index = 0
    for k, kind in enumerate(GEOMETRY_KINDS):
        if kind.startswith("det"):
            n = int(kind[3])
            m = tuple(vector(rng, n, den=2) for _ in range(n))
            pool.append((kind, k, m))
            continue
        x, y, z = _structure(kind, srng, k)
        sym = _signs(rng, len(x))
        move = _apply_mp if kind == "mp" else _apply
        index = k
        if kind.startswith("nf"):
            index = nf_index
            nf_index += 1
        pool.append((kind, index, (move(sym, x), move(sym, y), move(sym, z))))
    return pool


# ---------------------------------------------------------------------------
# oracle: gap-filtered inputs per operation, default or extended p-grid


def _oracle_input(rng: random.Random, op: str):
    if op == "sum":
        n = rng.randint(3, 6)
        return draw(rng, lambda: vector(rng, n), gap_ok)
    if op == "inner":
        n = rng.randint(2, 5)
        return draw(
            rng,
            lambda: (vector(rng, n), vector(rng, n)),
            lambda p: gap_ok([a * b for a, b in zip(*p)]),
        )
    if op == "norm":
        n = rng.randint(2, 5)
        return draw(rng, lambda: vector(rng, n), norm_gap_ok)
    if op == "dist":
        n = rng.randint(2, 5)
        return draw(rng, lambda: (vector(rng, n), vector(rng, n)), lambda p: dist_gap_ok(*p))
    if op == "det":
        return draw(
            rng,
            lambda: tuple(vector(rng, 3, -6, 6, 2) for _ in range(3)),
            lambda m: gap_ok(signed_products(m)),
        )
    return draw(rng, lambda: (vector(rng, 2), vector(rng, 2)), lambda p: trig_gap_ok(*p))


def oracle_pool(seed: int) -> list:
    rng = random.Random(f"oracle:{seed}")
    pool = []
    for i in range(POOL_SIZE["oracle"]):
        op = ORACLE_OPS[i % len(ORACLE_OPS)]
        grid = EXTENDED_GRID if i % EXTENDED_EVERY == EXTENDED_EVERY - 1 else DEFAULT_GRID
        pool.append((op, grid, _oracle_input(rng, op)))
    return pool


# ---------------------------------------------------------------------------
# cli: one argv per query, a fixed mix of subcommands


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _mp_literal(spec) -> str:
    sign, lm = spec
    if not sign:
        return "-inf"
    return f"{lm}+ipi" if sign < 0 else str(lm)


def _cli_argv(rng: random.Random, kind: str, i: int) -> list:
    if kind == "eval":
        return ["eval", "--nary", _csv(vector(rng, rng.randint(3, 6)))]
    if kind == "dist":
        n = rng.randint(2, 4)
        return ["dist", "--x", _csv(vector(rng, n)), "--y", _csv(vector(rng, n))]
    if kind == "det":
        rows = [vector(rng, 3, den=2) for _ in range(3)]
        return ["det", "--matrix", ";".join(_csv(r) for r in rows)]
    if kind == "hull":
        x = vector(rng, 2)
        y = distinct_from(rng, x)
        z = ref_point(x, y, _hull_coeffs(rng))
        return ["hull", "--x", _csv(x), "--y", _csv(y), "--contains", _csv(z)]
    if kind == "line":
        x = vector(rng, 3)
        y = distinct_from(rng, x)
        z = ref_point(x, y, _line_coeffs(rng, i))
        return ["line", "contains", "--x", _csv(x), "--y", _csv(y), "--z", _csv(z)]
    if kind == "trig":
        if i % 2:
            return ["trig", "--pcos", str(rational(rng, -20, 20, 8))]
        x, y = draw(rng, lambda: (vector(rng, 2), vector(rng, 2)), lambda p: any(p[0]) and any(p[1]))
        return ["trig", "--op", "cos", "--x", _csv(x), "--y", _csv(y)]
    if kind == "complex":
        z = vector(rng, 2)
        w = vector(rng, 2)
        return ["complex", "--times", f"{_csv(z)};{_csv(w)}"]
    if kind == "maxplus":
        return ["maxplus", "--add", f"{_mp_literal(_msym_spec(rng))},{_mp_literal(_msym_spec(rng))}"]
    values = draw(rng, lambda: vector(rng, rng.randint(3, 6)), gap_ok)
    return ["oracle", "--op", "sum", "--values", _csv(values)]


def cli_pool(seed: int) -> list:
    rng = random.Random(f"cli:{seed}")
    return [
        _cli_argv(rng, CLI_KINDS[i % len(CLI_KINDS)], i) for i in range(POOL_SIZE["cli"])
    ]


POOLS = {
    "laws": laws_pool,
    "geometry": geometry_pool,
    "oracle": oracle_pool,
    "cli": cli_pool,
}


def digest(pool: list) -> str:
    """sha256 over the repr of the Fraction-valued pool."""
    h = hashlib.sha256()
    for item in pool:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()
