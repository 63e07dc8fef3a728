"""The grid probe: an exhaustive certificate search over a coefficient grid,
the test suite's oracle for the NotFound answers of ``line_contains_nd``.

It enumerates through the package's certificate core (``boxlim._certify``)
on the rows that ``line_contains_nd`` reads, so it shares the exact check
but not the candidate set.
"""

from __future__ import annotations

from typing import Sequence

from boxlim._certify import FREE, Certifier, ratio
from boxlim.errors import TooLarge
from boxlim.lines import LineMembership, _search_rows
from boxlim.scalars import ScalarLike, _carrier, q

# The probe enumerates quadruples of its grid values in [-1, 1], so its work
# grows with about the fourth power of their count, and it tries every larger
# grid value in a cancelling pair.  A non-member with z = 0 took 2.3 s on the
# default grid (step 1/32: 65 values in [-1, 1]; bound 8: 513 values in all)
# and 0.19 s at step 1/16 (2-core Xeon, Python 3.11).
MAX_GRID_UNIT = 65
MAX_GRID = 513


def line_grid_probe(
    x: Sequence[ScalarLike],
    y: Sequence[ScalarLike],
    z: Sequence[ScalarLike],
    step: ScalarLike = q(1, 32),
    bound: ScalarLike = 8,
) -> LineMembership:
    """Exhaustive certificate search over a coefficient grid (advisory oracle).

    Sound and complete over the grid: a quadruple with limit sum 1 either has
    all entries in [−1, 1] with the +1s outnumbering the −1s, or contains an
    exactly cancelling pair (c, −c) with |c| > 1 next to a residual pair
    (1, v) with v ≠ −1 — only those shapes are enumerated, in exact
    arithmetic, so no grid point is missed.  The grid, the multiples of step
    in [−bound, bound], holds at most ``MAX_GRID_UNIT`` values in [−1, 1] and
    ``MAX_GRID`` in all; a larger one raises ``TooLarge`` before any of it is
    built.
    """
    rows = _search_rows(x, y, z)
    step = _carrier(step)
    bound = _carrier(bound)
    if step <= 0 or bound < 1:
        raise ValueError("need step > 0 and bound >= 1")
    if step.numerator != 1:
        raise ValueError("step must divide 1")
    k_unit = step.denominator
    k_bound = bound.numerator * k_unit // bound.denominator
    if 2 * k_unit + 1 > MAX_GRID_UNIT or 2 * k_bound + 1 > MAX_GRID:
        raise TooLarge(
            f"grid probe limited to {MAX_GRID_UNIT} values in [-1, 1] and {MAX_GRID}"
            f" in all, got {2 * k_unit + 1} and {2 * k_bound + 1}"
        )

    # the values i·step = i/k_unit in [-1, 1] ascending, then each pair c, -c
    # beyond magnitude 1
    grid = [ratio(i, k_unit) for i in range(-k_unit, k_unit + 1)]
    for i in range(k_unit + 1, k_bound + 1):
        grid += (ratio(i, k_unit), ratio(-i, k_unit))
    core = Certifier(*rows, grid, 2 * k_unit + 1)
    one = core.one

    # shape A: everything within [-1, 1], each side an unordered pair with
    # r <= t and w <= s; the +1s must outnumber the -1s
    every = range(2 * k_unit + 1)
    quad = core.first_bounded(every, every, sum_one=True)
    if quad is not None:
        return LineMembership(True, quad)

    # shape B: cancelling pair beyond magnitude 1 plus residual (1, v)
    for c in range(2 * k_unit + 1, len(grid), 2):
        m = c + 1
        quad = core.first_of(
            (
                (c, m, one, FREE),
                (one, FREE, c, m),
                (one, c, m, FREE),
                (one, m, c, FREE),
                (FREE, c, one, m),
                (FREE, m, one, c),
            ),
        )
        if quad is not None:
            return LineMembership(True, quad)
    return LineMembership(False, None)
