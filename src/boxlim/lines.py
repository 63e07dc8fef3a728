"""Limit lines through two points: equations, membership, half-lines, parallels.

A line point is a coordinatewise n-ary limit sum of (t·x, r·x, s·y, w·y)
where the coefficient quadruple itself has n-ary limit sum exactly 1.  In
2D (and for n points in nD) the line has an exact equation: unit-row
replacement determinants give coefficients a and a constant c with

    lower_smile(a_i z_i)  ≤  c  ≤  upper_smile(a_i z_i)

characterizing membership, and both generators satisfy it by construction.

General nD membership has no known closed decision procedure; the
certificate search enumerates a finite breakpoint candidate set in stages
(exact arithmetic, deterministic order), and NotFound is advisory; the
test suite checks it against an exhaustive grid probe over the coefficient
box (``tests/grid_probe.py``).

The search enumerates through ``_certify``, which skips only quadruples that
provably fail, so every certificate is the one the plain enumeration would
find first.
"""

from __future__ import annotations

from typing import ClassVar, Sequence

from ._certify import FREE, SEARCH_STAGES, Certifier, by_value, ratio
from ._record import Record
from .errors import (
    DegenerateConfiguration,
    DegeneratePair,
    DimensionMismatch,
    InvalidCoefficients,
    NotParallel,
)
from .linalg import Vec, _common_scale, _pair_rows, _vecs, det_infty, vec
from .scalars import (
    ONE,
    ZERO,
    ScalarLike,
    ScalarQ,
    _carrier,
    _nary,
    boxminus,
    lower_form,
    upper_form,
)

__all__ = [
    "LineForm",
    "HalfLine",
    "LineMembership",
    "line_point",
    "hyperplane_form",
    "line2d_form",
    "line_contains_2d",
    "line_contains_nd",
    "half_lines",
    "parallel_ratio",
    "parallel_normal_form",
]


class LineForm(Record):
    """Exact line/hyperplane equation: lower smile ≤ constant ≤ upper smile."""

    __slots__ = ("coeffs", "constant")
    orientation: ClassVar[str] = (
        "lower_form(coeffs, z) <= constant <= upper_form(coeffs, z)"
    )


class HalfLine(Record):
    """Points offset + t·direction for t ≥ t_min (supports are disjoint);
    ``point`` and ``certificate`` raise ``InvalidCoefficients`` below t_min.

    sense is +1 when direction = x ⊟ y and −1 when direction = y ⊟ x,
    fixing which certificate pattern reproduces point(t) from (x, y).
    """

    __slots__ = ("offset", "direction", "sense")
    _defaults = (1,)
    t_min: ClassVar[ScalarQ] = ONE

    def _param(self, t: ScalarLike) -> ScalarQ:
        t = _carrier(t)
        if t < self.t_min:
            raise InvalidCoefficients(f"a half-line point needs t >= {self.t_min}")
        return t

    def point(self, t: ScalarLike) -> Vec:
        t = self._param(t)
        return tuple(o + t * d for o, d in zip(self.offset, self.direction))

    def certificate(self, t: ScalarLike) -> tuple:
        """Line-membership coefficients of point(t) relative to the generators."""
        t = self._param(t)
        if self.sense >= 0:
            return (ONE, t, -t, ZERO)
        return (-t, ZERO, ONE, t)


class LineMembership(Record):
    """Outcome of the nD membership search; NotFound is advisory only."""

    __slots__ = ("found", "certificate")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.found


def _pair(x, y, *rest) -> list[Vec]:
    """``_vecs`` of the arguments; x and y must be two distinct points, which
    is checked before the dimensions of the rest."""
    xv, yv = _vecs(x, y)
    if xv == yv:
        raise DegeneratePair("two distinct points are required")
    return [xv, yv, *_vecs(xv, *rest)[1:]]


def _search_rows(x, y, z) -> list[list[int]]:
    """x, y and z as integer rows at one common scale; x = y (equal
    canonical pairs) raises before z is read."""
    rows = _pair_rows((x, y), True)
    if rows[0] == rows[1]:
        raise DegeneratePair("two distinct points are required")
    (zp,) = _pair_rows((z,), False)
    if len(zp) != len(rows[0]):
        raise DimensionMismatch(f"dim {len(rows[0])} vs {len(zp)}")
    return _common_scale([*rows, zp])[0]


def line_point(
    x: Sequence[ScalarLike],
    y: Sequence[ScalarLike],
    t: ScalarLike,
    r: ScalarLike,
    s: ScalarLike,
    w: ScalarLike,
) -> Vec:
    """The line point with coefficients (t, r, s, w); their limit sum must be 1."""
    xv, yv = _pair(x, y)
    t, r, s, w = _carrier(t), _carrier(r), _carrier(s), _carrier(w)
    if _nary((t, r, s, w)) != 1:
        raise InvalidCoefficients("coefficient quadruple must have limit sum 1")
    return tuple(_nary((t * a, r * a, s * b, w * b)) for a, b in zip(xv, yv))


# ---------------------------------------------------------------------------
# exact equations (2D and nD hyperplanes)


def hyperplane_form(points: Sequence[Sequence[ScalarLike]]) -> LineForm:
    """Exact hyperplane equation through n points of dimension n.

    Points are the columns of the configuration matrix V; coefficient i is
    the limit determinant of V with row i replaced by the all-ones row and
    the constant is the limit determinant of V itself (must be nonzero).
    """
    pts = [vec(p) for p in points]
    n = len(pts)
    if n == 0:
        raise DimensionMismatch("no points")
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch(
                f"got {n} point(s) with one of dimension {len(p)}; "
                "a hyperplane form needs n points of dimension n"
            )
    rows = [tuple(p[i] for p in pts) for i in range(n)]
    constant = det_infty(rows)
    if constant == 0:
        raise DegenerateConfiguration("limit determinant of the configuration is 0")
    ones = (ONE,) * n
    coeffs = tuple(
        det_infty([ones if i == k else rows[i] for i in range(n)]) for k in range(n)
    )
    form = LineForm(coeffs=coeffs, constant=constant)
    for p in pts:
        if not line_contains_2d(form, p):
            raise DegenerateConfiguration("a generator fails its own equation")
    return form


def line2d_form(x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> LineForm:
    """Exact 2D line equation through two distinct points (via hyperplane_form)."""
    xv, yv = _pair(x, y)
    if len(xv) != 2:
        raise DimensionMismatch("line equations live in dimension 2")
    return hyperplane_form([xv, yv])


def line_contains_2d(f: LineForm, z: Sequence[ScalarLike]) -> bool:
    """Exact membership: lower smile ≤ constant ≤ upper smile of coeffs·z."""
    zv = vec(z)
    if len(zv) != len(f.coeffs):
        raise DimensionMismatch(f"dim {len(zv)} vs {len(f.coeffs)}")
    return lower_form(f.coeffs, zv) <= f.constant <= upper_form(f.coeffs, zv)


# ---------------------------------------------------------------------------
# nD membership certificates


def _line_candidates(xs: list[int], ys: list[int], zs: list[int]) -> list:
    """Breakpoint candidates of the integer rows, as pairs in (|v|, v) order.

    {0, ±1}, the signed ratios ±z_i/x_i and ±z_i/y_i, and one augmentation
    round of magnitude-tie solutions (±c·x_i/y_i, ±c·y_i/x_i) — ties are
    where coordinates can cancel inside a combination.  The set is closed
    under negation, so it is 0 followed by −m, m for each magnitude m in
    ascending order.
    """
    xs, ys, zs = ([abs(v) for v in row] for row in (xs, ys, zs))
    base = {(1, 1)}
    for z, a in zip(zs + zs, xs + ys):
        if a and z:
            base.add(ratio(z, a))
    cand = set(base)
    for a, b in zip(xs, ys):
        if a and b:
            for cn, cd in base:
                cand.add(ratio(cn * a, cd * b))
                cand.add(ratio(cn * b, cd * a))
    out = [(0, 1)]
    for n, d in sorted(cand, key=by_value):
        out += ((-n, d), (n, d))
    return out


def line_contains_nd(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike], z: Sequence[ScalarLike]
) -> LineMembership:
    """Search for an exact membership certificate (t, r, s, w) for z.

    Stages (deterministic, first hit wins): the generators themselves; the
    cancellation families (1, c, −c, 0) and (c, 0, 1, −c); one-slot-one plus
    a cancelling pair and a bounded slot; all-bounded quadruples.  A returned
    certificate is exact and final; NotFound is advisory (the candidate set
    is conjecturally complete), and the test suite cross-checks it against a
    grid probe.
    """
    xs, ys, zs = _search_rows(x, y, z)

    def member(stage: str, quad: tuple) -> LineMembership:
        SEARCH_STAGES[stage] += 1
        return LineMembership(True, quad)

    # stage 0: generators
    if zs == xs:
        return member("line:generator", (ONE, ZERO, ZERO, ZERO))
    if zs == ys:
        return member("line:generator", (ZERO, ZERO, ONE, ZERO))

    cand = _line_candidates(xs, ys, zs)
    # in (|v|, v) order 0 comes first and 1 closes the entries with |v| <= 1
    one = cand.index((1, 1))
    core = Certifier(xs, ys, zs, cand, one + 1)
    neg = core.neg

    # stage 1: cancellation families (always valid coefficient quadruples)
    for c, m in enumerate(neg):
        for quad in ((one, c, m, 0), (c, 0, one, m)):
            if core.covers(*quad) and core.matches(*quad):
                return member("line:cancel", core.quad(quad))

    # stage 2: one slot fixed to 1, one cancelling pair, one bounded slot
    for c, m in enumerate(neg):
        quad = core.first_of(
            ((one, FREE, c, m), (c, m, one, FREE), (one, c, m, FREE), (FREE, c, one, m))
        )
        if quad is not None:
            return member("line:pair", quad)

    # stage 3: all-bounded quadruples with t = 1 or s = 1
    for ts, ss in (((one,), range(one + 1)), (range(one), (one,))):
        quad = core.first_bounded(ts, ss, sum_one=True)
        if quad is not None:
            return member("line:bounded", quad)
    SEARCH_STAGES["line:notfound"] += 1
    return LineMembership(False, None)


# ---------------------------------------------------------------------------
# half-lines and parallels


def half_lines(
    x: Sequence[ScalarLike], y: Sequence[ScalarLike]
) -> tuple[HalfLine, HalfLine]:
    """The two half-lines inside the line: shared part plus stretched difference.

    The offset keeps the coordinates where x and y agree (zero elsewhere);
    the directions are x ⊟ y and y ⊟ x; points offset + t·direction for
    t ≥ 1 carry the exact membership certificate (1, t, −t, 0).
    """
    xv, yv = _pair(x, y)
    offset = tuple(a if a == b else ZERO for a, b in zip(xv, yv))
    d1 = tuple(boxminus(a, b) for a, b in zip(xv, yv))
    d2 = tuple(boxminus(b, a) for a, b in zip(xv, yv))
    return (HalfLine(offset, d1, sense=1), HalfLine(offset, d2, sense=-1))


def _directions(x, y, u, v) -> tuple[Vec, Vec]:
    """The difference directions x ⊟ y and u ⊟ v of two lines."""
    xv, yv, uv, vv = _pair(x, y, u, v)
    if uv == vv:
        raise DegeneratePair("two distinct points are required")
    return (
        tuple(boxminus(a, b) for a, b in zip(xv, yv)),
        tuple(boxminus(a, b) for a, b in zip(uv, vv)),
    )


def _collinear_ratio(d1: Vec, d2: Vec):
    """α with d1 = α·d2 exactly, or None."""
    alpha = None
    for a, b in zip(d1, d2):
        if b == 0:
            if a != 0:
                return None
        else:
            r = a / b
            if alpha is None:
                alpha = r
            elif r != alpha:
                return None
    if alpha is None or alpha == 0:
        return None
    return alpha


def parallel_ratio(
    x: Sequence[ScalarLike],
    y: Sequence[ScalarLike],
    u: Sequence[ScalarLike],
    v: Sequence[ScalarLike],
) -> ScalarQ:
    """The exact α with x ⊟ y = α·(u ⊟ v); raises NotParallel if none exists."""
    alpha = _collinear_ratio(*_directions(x, y, u, v))
    if alpha is None:
        raise NotParallel("difference directions are not collinear")
    return alpha


def parallel_normal_form(
    x: Sequence[ScalarLike],
    y: Sequence[ScalarLike],
    u: Sequence[ScalarLike],
    v: Sequence[ScalarLike],
) -> tuple[Vec, ScalarQ, ScalarQ]:
    """Shared coefficients for two parallel 2D lines, with both constants.

    Returns (a, c, d): the first line is lower ≤ c ≤ upper in the smile forms
    of a·z, and the second is the same with constant d — its own constant
    rescaled by the direction ratio.  Rescaling by a negative ratio swaps the
    two smile branches, which is exactly compensated by the branch swap under
    negative scaling, so the normalized predicate keeps its shape.
    """
    form_d = line2d_form(x, y)
    form_e = line2d_form(u, v)
    dxy, duv = _directions(x, y, u, v)
    beta = _collinear_ratio(duv, dxy)  # u ⊟ v = beta·(x ⊟ y)
    if beta is None:
        raise NotParallel("difference directions are not collinear")
    if form_e.coeffs != tuple(beta * a for a in form_d.coeffs):
        raise DegenerateConfiguration("coefficient vectors are not proportional")
    return (form_d.coeffs, form_d.constant, form_e.constant / beta)
