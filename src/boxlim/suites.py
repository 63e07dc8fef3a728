"""Runnable verification suites covering the whole library.

Each suite draws a deterministic sample (fixed seed), checks a batch of exact
identities or oracle convergences, and returns a :class:`CheckResult` with a
one-line summary.  The default sizes are the full acceptance sizes; every
suite also declares smaller ``--quick`` sizes for interactive runs.  Suites
are pure functions of their arguments — two runs with the same arguments
produce the same result object, apart from its elapsed time.  Each suite is
declared once, by :func:`_suite`, which registers it in ``SUITES``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from ._record import Record, compile_function
from .axioms import check_pseudo_field_axioms, check_symmetric_space_axioms
from .cplane import (
    cconj,
    cmod_infty,
    cplx,
    ctimes,
    from_polar,
    on_unit_square,
    polar,
)
from .deform import (
    DEFAULT_TOL,
    _float,
    _min_precision,
    _oracle,
    _p_cos,
    _p_samples,
    _p_sin,
    exact_power_sum_is_zero,
)
from .errors import DegenerateConfiguration
from .hull import HullCombination, co_point
from .linalg import det_infty
from .lines import (
    line2d_form,
    line_contains_2d,
    line_contains_nd,
    line_point,
    parallel_normal_form,
    parallel_ratio,
)
from .maxplus import (
    MAXPLUS_PSEUDO_FIELD,
    MZERO,
    MSym,
    maxplus_vector_space,
    mp_boxplus,
    mp_dist_std,
    mp_otimes,
    msym,
    psi_exp,
)
from .metric import Fixed, Free, ball_contains, ball_describe, dist_boxplus
from .sampling import GAP_RATIO, Sampler
from .scalars import (
    ONE,
    ZERO,
    _as_exact,
    boxminus,
    boxplus,
    lower_form,
    nary_boxplus,
    q,
    smile_minus,
    smile_plus,
    upper_form,
)
from .trig import (
    AngleParam,
    alpha,
    alpha_inv,
    inner3_limit,
    orthogonal_pairing,
    pcos,
    psin,
    pythagoras_check,
)

__all__ = [
    "CheckResult",
    "SUITES",
    "check_complex_product",
    "check_convergence",
    "check_exact_cancellation",
    "check_lines",
    "check_maxplus_bridge",
    "check_pythagoras",
    "check_scalar_laws",
    "check_square_trig",
    "check_ultrametric",
    "check_worked_values",
    "run_suite",
]


class CheckResult(Record):
    """Outcome of one verification suite."""

    __slots__ = ("name", "passed", "samples", "detail", "elapsed")

    def __bool__(self) -> bool:
        return self.passed

    def line(self) -> str:
        """One-line human-readable report."""
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


def _finish(
    name: str,
    t0: float,
    samples: int,
    problems: list[str],
    ok_detail: str,
    budget: float | None = None,
) -> CheckResult:
    elapsed = perf_counter() - t0
    passed = not problems
    detail = ok_detail if passed else f"{len(problems)} failure(s); first: {problems[0]}"
    if budget is not None:
        if elapsed >= budget:
            passed = False
            detail += f"; exceeded the {budget:.0f}s budget"
        else:
            detail += f", within the {budget:.0f}s budget"
    return CheckResult(name, passed, samples, detail, elapsed)


SUITES: dict[str, Callable[..., CheckResult]] = {}


def _suite(
    name: str,
    *,
    budget: float | None = None,
    seed: int | None = None,
    quick: dict[str, int] | None = None,
) -> Callable[[Callable[..., tuple[int, str]]], Callable[..., CheckResult]]:
    """Declare a suite: its wall-clock ``budget`` (s), default ``seed`` (None:
    it draws nothing) and ``quick`` sizes, and register its check under ``name``.

    The body takes the problem list, a :class:`Sampler` on the seed if there
    is one, and its sizes; it appends a text per failed check and returns its
    sample count and success detail.  The check is a plain function of the
    body's sizes, with their defaults, then ``seed``.
    """

    def register(body: Callable[..., tuple[int, str]]) -> Callable[..., CheckResult]:
        def run(*args) -> CheckResult:
            t0 = perf_counter()
            problems: list[str] = []
            samples, ok_detail = body(problems, *args)
            return _finish(name, t0, samples, problems, ok_detail, budget)

        code = body.__code__
        sizes = code.co_varnames[1 if seed is None else 2:code.co_argcount]
        params, args, defaults = sizes, sizes, body.__defaults__ or ()
        if seed is not None:
            params, args = (*sizes, "seed"), ("Sampler(seed)", *sizes)
            defaults = (*defaults, seed)
        check = compile_function(
            body.__name__, params, f"return run({', '.join(args)})",
            {"__name__": __name__, "run": run, "Sampler": Sampler}, defaults,
        )
        check.__doc__ = body.__doc__
        check.seed = seed
        check.quick = quick or {}
        SUITES[name] = check
        return check

    return register


# ---------------------------------------------------------------------------
# 1. worked values


@_suite("worked-values", budget=1.0)
def check_worked_values(problems: list[str]) -> tuple[int, str]:
    """Frozen worked values: n-ary sum, three-point product, determinants,
    and the unbounded certified family on a 3-dimensional line."""
    if nary_boxplus((-3, -2, 3, 3, 1, -3)) != -2:
        problems.append("n-ary limit sum of (-3,-2,3,3,1,-3) != -2")

    if inner3_limit((1, -2, -1), (2, 3, -2), (3, 2, -3)) != 9:
        problems.append("three-point product at the worked triple != 9")

    if det_infty(((3, 1), (1, -2))) != -6:
        problems.append("limit determinant of ((3,1),(1,-2)) != -6")
    if det_infty(((-2, -6), (4, 1))) != 24:
        problems.append("limit determinant of ((-2,-6),(4,1)) != 24")
    xy = tuple(boxminus(a, b) for a, b in zip((3, 1), (1, -2)))
    uv = tuple(boxminus(a, b) for a, b in zip((-2, 4), (-6, 1)))
    if uv != tuple(2 * c for c in xy):
        problems.append("second difference direction is not twice the first")

    x, y = (3, -2, 1), (1, -1, 1)
    count = 0
    for d in range(-10, 11):
        if d in (-1, 0, 1):
            continue
        dq = q(d)
        z = (3 * dq, -2 * dq, ONE)
        if line_point(x, y, ONE, dq, -dq, ZERO) != z:
            problems.append(f"coefficients (1,{d},{-d},0) do not rebuild z_{d}")
            continue
        member = line_contains_nd(x, y, z)
        if not member or member.certificate != (ONE, dq, -dq, ZERO):
            problems.append(f"certificate search missed (1,{d},{-d},0) for z_{d}")
        count += 1

    return 5 + count, f"all frozen values exact, {count} certified family points"


# ---------------------------------------------------------------------------
# 2. scalar laws


@_suite("scalar-laws", budget=10.0, seed=1202, quick={"samples": 2000})
def check_scalar_laws(
    problems: list[str], s: Sampler, samples: int = 100_000
) -> tuple[int, str]:
    """Exact scalar laws on random rational triples.

    Idempotence, commutativity, symmetric cancellation, weak associativity
    (on mutually non-symmetric triples), homogeneity, the magnitude bound,
    the bracket decomposition, smile associativity, the half-sum bridge, and
    the lower/upper sandwich around the n-ary sum of products.
    """
    half = q(1, 2)

    for i in range(samples):
        a, b, c = s.rational(), s.rational(), s.rational()
        ab = boxplus(a, b)
        if boxplus(a, a) != a:
            problems.append(f"idempotence at {a}")
        if ab != boxplus(b, a):
            problems.append(f"commutativity at ({a},{b})")
        if boxplus(a, -a) != 0:
            problems.append(f"symmetric cancellation at {a}")

        bc = boxplus(b, c)
        ac = boxplus(a, c)
        f3 = nary_boxplus((a, b, c))
        brackets = (boxplus(a, bc), boxplus(b, ac), boxplus(c, ab))
        if ab != 0 and bc != 0 and ac != 0:
            if not (boxplus(ab, c) == brackets[0] == f3):
                problems.append(f"weak associativity at ({a},{b},{c})")

        if c * ab != boxplus(c * a, c * b):
            problems.append(f"homogeneity at ({a},{b},{c})")

        if abs(f3) > max(abs(a), abs(b), abs(c)):
            problems.append(f"magnitude bound at ({a},{b},{c})")

        if any(br != 0 and br != f3 for br in brackets):
            problems.append(f"bracket values at ({a},{b},{c})")
        elif nary_boxplus(brackets) != f3:
            problems.append(f"bracket recombination at ({a},{b},{c})")

        lo, hi = smile_minus((a, b)), smile_plus((a, b))
        if smile_minus((lo, c)) != smile_minus((a, b, c)):
            problems.append(f"lower smile associativity at ({a},{b},{c})")
        if smile_plus((hi, c)) != smile_plus((a, b, c)):
            problems.append(f"upper smile associativity at ({a},{b},{c})")

        if ab != half * (lo + hi):
            problems.append(f"half-sum bridge at ({a},{b})")

        coeffs, values = (a, b, c), (b, c, a)
        f = nary_boxplus(tuple(u * v for u, v in zip(coeffs, values)))
        if not lower_form(coeffs, values) <= f <= upper_form(coeffs, values):
            problems.append(f"sandwich at ({a},{b},{c})")

        if problems and len(problems) > 5:
            break

    return samples, f"{samples} random triples, ten laws each, zero failures"


# ---------------------------------------------------------------------------
# 3. convergence oracle


@_suite("convergence", budget=60.0, seed=1203, quick={"per_op": 25})
def check_convergence(
    problems: list[str], s: Sampler, per_op: int = 500
) -> tuple[int, str]:
    """Finite-p convergence to the limit values on gap-filtered random inputs.

    Each operation (n-ary sum, inner product, norm, distance, 3×3
    determinant, cosine/sine) is sampled ``per_op`` times; near-ties are
    excluded by the documented magnitude-gap filter so the geometric error
    term dominates.  Every report, on the oracle's ``DEFAULT_P_GRID``, must
    end ≤ ``DEFAULT_TOL`` with a non-increasing tail.
    """
    worst = 0.0

    def draws():
        rng = s.rng
        for _ in range(per_op):
            yield "sum", (s.gap_tuple(rng.randint(3, 6)),)
        for _ in range(per_op):
            yield "inner", s.gap_inner_pair(rng.randint(2, 5))
        for _ in range(per_op):
            yield "norm", (s.gap_norm_vector(rng.randint(2, 5)),)
        for _ in range(per_op):
            yield "dist", s.gap_dist_pair(rng.randint(2, 5))
        for _ in range(per_op):
            yield "det", (s.gap_det_matrix(3),)
        for _ in range(per_op):
            pair = s.gap_trig_pair()
            yield "cos", pair
            yield "sin", pair

    total = 0
    for op, inputs in draws():
        total += 1
        report = _oracle(op, inputs, None, None)
        worst = max(worst, report.final_error)
        if not report.converged:
            problems.append(f"{op} sample with final error {report.final_error:.3g}")
            if len(problems) > 5:
                break

    return total, (
        f"{total} oracle runs across six operations, "
        f"worst final error {worst:.3g} <= {DEFAULT_TOL:g}"
    )


# ---------------------------------------------------------------------------
# 4. exact cancellation


@_suite("exact-cancellation", seed=1204, quick={"samples": 200})
def check_exact_cancellation(
    problems: list[str], s: Sampler, samples: int = 1000
) -> tuple[int, str]:
    """Tuples with limit sum 0 have every odd power sum exactly 0 (p ≤ 5)."""
    for _ in range(samples):
        values: list = []
        for _ in range(s.rng.randint(1, 4)):
            v = s.nonzero_rational()
            values += [v, -v]
        if s.rng.random() < 0.25:
            values.append(ZERO)
        s.rng.shuffle(values)
        if nary_boxplus(values) != 0:
            problems.append(f"limit sum of paired tuple {values} is nonzero")
            continue
        for p in range(1, 6):
            if not exact_power_sum_is_zero(values, p):
                problems.append(f"power sum p={p} nonzero on {values}")
                break

    return samples, f"{samples} cancelling tuples, odd power sums 3..11 all exactly 0"


# ---------------------------------------------------------------------------
# 5. ultrametric


@_suite("ultrametric", seed=1205, quick={"triples": 2000, "balls": 400})
def check_ultrametric(
    problems: list[str], s: Sampler, triples: int = 100_000, balls: int = 10_000
) -> tuple[int, str]:
    """Exact metric laws, ball-descriptor equivalence, and the four worked
    ball regimes around center (3, 2)."""
    for i in range(triples):
        n = s.rng.randint(1, 4)
        x, y, z = s.vector(n), s.vector(n), s.vector(n)
        if i % 128 == 0:
            y = x
        dxy, dxz, dyz = dist_boxplus(x, y), dist_boxplus(x, z), dist_boxplus(y, z)
        if dxy != dist_boxplus(y, x):
            problems.append(f"symmetry at ({x},{y})")
        if dist_boxplus(x, x) != 0 or (dxy == 0) != (x == y):
            problems.append(f"identity of indiscernibles at ({x},{y})")
        if dxy > max(dxz, dyz) or dxz > max(dxy, dyz) or dyz > max(dxy, dxz):
            problems.append(f"strong triangle at ({x},{y},{z})")
        two = sorted((dxy, dxz, dyz))
        if two[2] != two[1]:
            problems.append(f"two largest distances differ at ({x},{y},{z})")
        if problems and len(problems) > 5:
            break

    for _ in range(balls):
        n = s.rng.randint(1, 3)
        center = s.vector(n)
        radius = abs(s.rational())
        if s.rng.random() < 0.5:
            z = tuple(
                ci if s.rng.random() < 0.5 else ci + s.rational(-2, 2)
                for ci in center
            )
        else:
            z = s.vector(n)
        described = ball_contains(ball_describe(center, radius), z)
        direct = dist_boxplus(center, z) <= radius
        if described != direct:
            problems.append(f"ball equivalence at ({center},{radius},{z})")
            break

    # the four regimes of the closed ball around (3, 2)
    regimes = (
        (q(1), (Fixed(q(3)), Fixed(q(2)))),      # 0 <= alpha < 2: the point itself
        (q(5, 2), (Fixed(q(3)), Free(q(5, 2)))),  # 2 <= alpha < 3: a vertical segment
        (q(3), (Free(q(3)), Free(q(3)))),         # alpha = 3: the square [-3,3]^2
        (q(4), (Free(q(4)), Free(q(4)))),         # alpha > 3: the square [-a,a]^2
    )
    for radius, coords in regimes:
        if ball_describe((3, 2), radius).coords != coords:
            problems.append(f"worked ball regime at radius {radius}")
    probes = (
        (q(1), (3, 2), True),        # the center itself
        (q(1), (3, 1), False),       # second coordinate is pinned below radius 2
        (q(5, 2), (3, -2), True),    # vertical segment through (3, *)
        (q(5, 2), (q(5, 2), 0), False),  # first coordinate stays pinned at 3
        (q(3), (-3, 3), True),       # corner of the square [-3, 3]^2
        (q(4), (-4, 4), True),       # corner of the square [-4, 4]^2
        (q(4), (q(9, 2), 0), False),  # outside the square
    )
    for radius, pt, expect in probes:
        if ball_contains(ball_describe((3, 2), radius), pt) != expect:
            problems.append(f"worked ball probe at radius {radius}, point {pt}")

    return triples + balls, (
        f"{triples} exact metric triples, {balls} ball equivalences, "
        "four worked regimes"
    )


# ---------------------------------------------------------------------------
# 6. right angles


_PYTHAGORAS_P_GRID = (1, 2, 4, 8, 16)


@_suite("pythagoras", seed=1206, quick={"samples": 80})
def check_pythagoras(
    problems: list[str], s: Sampler, samples: int = 1000
) -> tuple[int, str]:
    """Constructed limit right angles at the origin satisfy the exact
    hypotenuse identity and the deformed squared identity, exactly on
    integer power sums, at p = 1, 2, 4, 8, 16.

    Half the triples pair coordinates into cancelling products; the other
    half are planar Euclidean right angles (y a scaled rotation of x).
    """
    for i in range(samples):
        if i % 2 == 0:
            xs: list = []
            ys: list = []
            for _ in range(s.rng.randint(1, 3)):
                a, b, f = (
                    s.nonzero_rational(),
                    s.nonzero_rational(),
                    s.nonzero_rational(-4, 4),
                )
                xs += [f * a, a]
                ys += [b, -f * b]
            if s.rng.random() < 0.3:
                xs.append(ZERO)
                ys.append(s.rational())
            perm = list(range(len(xs)))
            s.rng.shuffle(perm)
            x = tuple(xs[j] for j in perm)
            y = tuple(ys[j] for j in perm)
        else:
            a, b = s.nonzero_rational(), s.rational()
            f = s.nonzero_rational(-4, 4)
            x = (a, b)
            y = (-f * b, f * a)
        z = (ZERO,) * len(x)

        part = orthogonal_pairing(x, y)
        products = [u * v for u, v in zip(x, y)]
        seen: list[int] = []
        for i1, i2 in part.pairs:
            seen += [i1, i2]
            if products[i1 - 1] + products[i2 - 1] != 0:
                problems.append(f"pairing mismatch at ({x},{y})")
        if part.leftover is not None:
            seen.append(part.leftover)
            if products[part.leftover - 1] != 0:
                problems.append(f"nonzero leftover at ({x},{y})")
        if sorted(seen) != list(range(1, len(x) + 1)):
            problems.append(f"pairing does not cover ({x},{y})")

        if not pythagoras_check(x, y, z, p_grid=_PYTHAGORAS_P_GRID):
            problems.append(f"squared identity fails at ({x},{y})")
        if problems and len(problems) > 5:
            break

    return samples, (
        f"{samples} right-angled triples, exact hypotenuse and "
        f"deformed identity exact at p <= {max(_PYTHAGORAS_P_GRID)}"
    )


# ---------------------------------------------------------------------------
# 7. square trigonometry


_SQUARE_TRIG_P_GRID = (1, 2, 4, 8)


@_suite("square-trig", seed=1207,
        quick={"theta_samples": 2000, "roundtrips": 400, "pairs": 25})
def check_square_trig(
    problems: list[str],
    s: Sampler,
    theta_samples: int = 100_000,
    roundtrips: int = 10_000,
    pairs: int = 200,
) -> tuple[int, str]:
    """Square cosine/sine laws: boundary identity, period 8, angle
    round-trips, and the deformed unit-circle identity at p = 1, 2, 4, 8
    within the rounding bound of deform's working precision.

    The bound on E = c^n + s^n − 1 for c = cos_p, s = sin_p, n = 2(2p+1)
    is n·2^(1−prec), prec = ``_min_precision(p)``.  Exactly, c^n + s^n = 1
    (Lagrange's identity in dimension 2: (Σ x_i^k y_i^k)² +
    (x₁^k y₂^k − y₁^k x₂^k)² = N_x N_y).  ``_ratio_root`` rounds the ratio
    c^n to nearest at prec, c^n(1 + δ₁), and then its n-th root to nearest
    at prec, c(1 + δ₁)^(1/n)(1 + δ₂), with |δ_i| ≤ 2^−prec.  The computed
    c^n is then c^n(1 + δ₁)(1 + δ₂)^n, and the same holds for s, so
    |E| ≤ (n + 1)·2^−prec + O(n²·2^−2prec) < n·2^(1−prec) for n ≥ 2.
    """
    for i in range(theta_samples):
        theta = s.rational(-20, 20, den=8)
        c, sn = pcos(theta), psin(theta)
        if max(abs(c), abs(sn)) != 1:
            problems.append(f"boundary identity at theta={theta}")
        if i % 10 == 0:
            for k in (-2, -1, 1, 2):
                if pcos(theta + 8 * k) != c or psin(theta + 8 * k) != sn:
                    problems.append(f"period 8 at theta={theta}, k={k}")
                    break
        if problems and len(problems) > 5:
            break

    for i in range(roundtrips):
        if i % 2 == 0:
            theta = s.rational(-20, 20, den=8)
            if alpha(alpha_inv(theta)) != AngleParam(theta):
                problems.append(f"angle round-trip at theta={theta}")
        else:
            u = s.rational(-1, 1, den=8)
            side = s.rng.randrange(4)
            z = ((ONE, u), (u, ONE), (-ONE, u), (u, -ONE))[side]
            if alpha_inv(alpha(z)) != z:
                problems.append(f"boundary round-trip at z={z}")
        if problems and len(problems) > 5:
            break

    def nonzero_vec2():
        return s.reject(lambda: s.vector(2), lambda v: any(v))

    worst = ZERO
    for _ in range(pairs):
        x, y = nonzero_vec2(), nonzero_vec2()
        for p in _SQUARE_TRIG_P_GRID:
            n = 2 * (2 * p + 1)
            _, mc, ec, _ = _p_cos(x, y, p)
            _, ms, es, _ = _p_sin(x, y, p)
            # E = cos_p^n + sin_p^n − 1 = num / 2^shift on the raw values,
            # exactly; it bounds the error of the (2p+1)-th root of 1 + E
            shift = -min(n * ec, n * es, 0)
            num = (mc**n << n * ec + shift) + (ms**n << n * es + shift) - (1 << shift)
            # |E| / (n·2^(1−prec))
            ratio = q(abs(num) << _min_precision(p) - 1, n << shift)
            worst = max(worst, ratio)
            if ratio > 1:
                problems.append(f"deformed circle identity at ({x},{y}), p={p}")
                break

    return theta_samples + roundtrips + pairs, (
        f"{theta_samples} boundary identities, {roundtrips} round-trips, "
        f"deformed circle |E| <= {float(worst):.3g} x n*2^(1-prec)"
    )


# ---------------------------------------------------------------------------
# 8. complex product


@_suite("complex-product", seed=1208, quick={"samples": 600})
def check_complex_product(
    problems: list[str], s: Sampler, samples: int = 10_000
) -> tuple[int, str]:
    """Exact laws of the limit complex product: multiplicative modulus,
    conjugate square, unit-square closure, and polar round-trips."""
    for _ in range(samples):
        z = cplx(s.rational(), s.rational())
        w = cplx(s.rational(), s.rational())
        mz = cmod_infty(z)
        if cmod_infty(ctimes(z, w)) != mz * cmod_infty(w):
            problems.append(f"modulus multiplicativity at ({z},{w})")
        if ctimes(z, cconj(z)) != cplx(mz ** 2, 0):
            problems.append(f"conjugate square at {z}")
        if mz != 0:
            m, theta = polar(z)
            if from_polar(m, theta) != z:
                problems.append(f"polar round-trip at {z}")
        u = from_polar(1, s.rational(-20, 20, den=8))
        v = from_polar(1, s.rational(-20, 20, den=8))
        uv = ctimes(u, v)
        if not on_unit_square(u) or not on_unit_square(uv):
            problems.append(f"unit-square closure at ({u},{v})")
        if problems and len(problems) > 5:
            break

    return samples, f"{samples} random pairs, all four complex laws exact"


# ---------------------------------------------------------------------------
# 9. lines


def _line_pair(s: Sampler, problems: list[str]) -> tuple:
    """Planar generators x ≠ y with a nonzero limit determinant, and their
    line form.  Equal and zero-determinant pairs are redrawn; any other pair
    whose form fails is a problem, and comes back with the form None."""

    def draw():
        x, y = s.vector(2), s.vector(2)
        if x == y:
            return None
        try:
            return x, y, line2d_form(x, y)
        except DegenerateConfiguration:
            # the configuration matrix has the two points as its columns
            if det_infty(tuple(zip(x, y))) == 0:
                return None
            problems.append(f"generator self-membership at ({x},{y})")
            return x, y, None

    return s.reject(draw, lambda drawn: drawn is not None)


def _hull_combination(s: Sampler) -> HullCombination:
    coeffs = [s.rational(0, 1, den=4) for _ in range(4)]
    coeffs[s.rng.randrange(4)] = ONE
    return HullCombination(*coeffs)


def _line_sample_ok(x, y, coeff, form) -> bool:
    """Gap filter for deformed line samples: each coordinate's two terms are
    magnitude-separated, and the limit point's form products have no
    opposite-sign tie at the top (the two tie-sensitive error sources)."""
    zlim = []
    for a, b in zip(x, y):
        ca = coeff * a
        u, v = abs(ca), abs(b)
        if u and v and min(u, v) > GAP_RATIO * max(u, v):
            return False
        zlim.append(boxplus(ca, b))
    products = [a * c for a, c in zip(form.coeffs, zlim)]
    top = max(abs(p) for p in products)
    if top:
        at_top = [p for p in products if abs(p) == top]
        if len(at_top) > 1 and len(set(at_top)) > 1:
            return False
    return True


_LINE_P = 32
_LINE_SLACK = _as_exact(1e-4)  # the binary double nearest 10^-4, read exactly


@_suite("lines", seed=1209,
        quick={"pairs": 300, "hull_samples": 300, "nd_samples": 60, "line_samples": 40})
def check_lines(
    problems: list[str],
    s: Sampler,
    pairs: int = 10_000,
    hull_samples: int = 10_000,
    nd_samples: int = 2_000,
    line_samples: int = 300,
) -> tuple[int, str]:
    """Line membership: generator self-membership, hull points on the line,
    deformed samples at p = 32 within 1e-4 of the form inequalities, and the
    worked parallel pair's shared normal form."""
    for _ in range(pairs):
        x, y, form = _line_pair(s, problems)
        if form is None:
            break
        if not line_contains_2d(form, x) or not line_contains_2d(form, y):
            problems.append(f"generator self-membership at ({x},{y})")
            break

    for _ in range(hull_samples - nd_samples):
        x, y, form = _line_pair(s, problems)
        if form is None:
            break
        z = co_point(x, y, _hull_combination(s))
        if not line_contains_2d(form, z):
            problems.append(f"planar hull point off its line at ({x},{y},{z})")
            break

    for i in range(nd_samples):
        n = 3 + (i % 2)
        x = s.vector(n)
        y = s.reject(lambda m=n: s.vector(m), lambda v: v != x)
        z = co_point(x, y, _hull_combination(s))
        member = line_contains_nd(x, y, z)
        if not member or line_point(x, y, *member.certificate) != z:
            problems.append(f"hull point not certified at ({x},{y},{z})")
            break

    checked = 0
    while checked < line_samples:
        x, y, form = _line_pair(s, problems)
        if form is None:
            break
        coeff = s.rational(-3, 3, den=4) / 4  # |coeff| <= 3/4
        if not _line_sample_ok(x, y, coeff, form):
            continue
        checked += 1
        (z,) = _p_samples(x, y, _LINE_P, (coeff,), "line")
        zq = tuple(_as_exact(_float(v)) for v in z)
        low, up = lower_form(form.coeffs, zq), upper_form(form.coeffs, zq)
        c = form.constant
        if not (low <= c + _LINE_SLACK and c <= up + _LINE_SLACK):
            problems.append(f"deformed sample outside slack at ({x},{y},{coeff})")
            if len(problems) > 5:
                break

    a, c, d = parallel_normal_form((3, 1), (1, -2), (-2, 4), (-6, 1))
    if (a, c, d) != ((q(-2), q(3)), q(-6), q(12)):
        problems.append("worked parallel pair normal form mismatch")
    if parallel_ratio((3, 1), (1, -2), (-2, 4), (-6, 1)) != q(1, 2):
        problems.append("worked parallel pair ratio mismatch")

    return pairs + hull_samples + line_samples, (
        f"{pairs} generator pairs, {hull_samples} hull points on their "
        f"lines, {line_samples} deformed samples within {float(_LINE_SLACK):g}"
    )


# ---------------------------------------------------------------------------
# 10. max-plus bridge


_BRIDGE_TOL = 1e-9


@_suite("maxplus-bridge", seed=1210, quick={"samples": 600})
def check_maxplus_bridge(
    problems: list[str], s: Sampler, samples: int = 10_000
) -> tuple[int, str]:
    """Symmetrized max-plus: exact pseudo-field and symmetric-space axiom
    suites, and float transport agreement within 1e-9."""
    def mrand() -> MSym:
        if s.rng.random() < 0.1:
            return MZERO
        return msym(s.rng.choice((-1, 1)), s.rational(-6, 6))

    field_report = check_pseudo_field_axioms(
        [(mrand(), mrand(), mrand()) for _ in range(samples)],
        MAXPLUS_PSEUDO_FIELD,
    )
    if not field_report:
        problems.append(
            f"pseudo-field axiom {field_report.failed_axiom} "
            f"at {field_report.witness}"
        )

    space = maxplus_vector_space(3)
    vrand = lambda: tuple(mrand() for _ in range(3))  # noqa: E731
    space_report = check_symmetric_space_axioms(
        space, [(mrand(), mrand(), vrand(), vrand()) for _ in range(samples)]
    )
    if not space_report:
        problems.append(
            f"space axiom {space_report.failed_axiom} at {space_report.witness}"
        )

    worst = 0.0
    for _ in range(samples):
        z, w = mrand(), mrand()
        zs, ws = (z, mrand()), (w, mrand())
        ez, ew = psi_exp(z), psi_exp(w)
        xz = (_as_exact(ez), _as_exact(psi_exp(zs[1])))
        xw = (_as_exact(ew), _as_exact(psi_exp(ws[1])))
        err = abs(psi_exp(mp_boxplus(z, w)) - float(boxplus(xz[0], xw[0])))
        err = max(err, abs(psi_exp(mp_otimes(z, w)) - ez * ew))
        err = max(err, abs(mp_dist_std(zs, ws) - float(dist_boxplus(xz, xw))))
        worst = max(worst, err)
        if err > _BRIDGE_TOL:
            problems.append(f"float transport off by {err:.3g} at ({z},{w})")
            break

    return 3 * samples, (
        f"{samples} axiom samples exact per suite, float transport "
        f"within {worst:.3g} <= {_BRIDGE_TOL:g}"
    )


# ---------------------------------------------------------------------------
# running by name


def run_suite(name: str, quick: bool = False, seed: int | None = None) -> CheckResult:
    """Run one suite by registry name, at its declared ``--quick`` sizes if
    ``quick``; ``seed`` replaces the default seed of a suite that draws (and
    is ignored by worked-values, which draws nothing)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check = SUITES[name]
    kwargs = dict(check.quick) if quick else {}
    if seed is not None and check.seed is not None:
        kwargs["seed"] = seed
    return check(**kwargs)
