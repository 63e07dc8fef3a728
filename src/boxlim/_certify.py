"""Certificate-search core shared by hull and line membership.

Both searches look for coefficients (t, r, s, w) with

    z_i = Ϝ(t·x_i, r·x_i, s·y_i, w·y_i)   for every coordinate i.

A nonzero limit sum of a list is always one of the list's entries, so every
coordinate with z_i ≠ 0 needs t = z_i/x_i, r = z_i/x_i, s = z_i/y_i or
w = z_i/y_i; the x-side slots t, r are out when x_i = 0 and the y-side slots
s, w when y_i = 0.  Fix three slots: the nonzero coordinates they miss must
all be hit by the fourth.  If those coordinates agree on its ratio, that
ratio is the only value left for it; if they disagree, or one of them has no
ratio on that side, no value is.

A :class:`Certifier` holds one search's candidate list.  The hull search,
stage 3 of the line search and the grid probe's shape A all enumerate
quadruples of candidates through :meth:`Certifier.first_bounded`: t and s
come from the positions the caller names, r runs over the list up to its
first entry above t, and w over the list up to its first entry above s.
Read in the list's own order, that prefix rule gives r ≤ t and w ≤ s on an
ascending list; on the line search's (|v|, v) order it stops at the first
entry whose value exceeds the bound.  The shape stages of the line search
and the grid probe use :meth:`Certifier.first_of`.  Both ask
:meth:`Certifier.fill` for the slot they fill last and call
:meth:`Certifier.matches` only on what survives, so they skip only
quadruples that provably fail and return the same first hit as the unpruned
enumeration.

``SEARCH_STAGES`` counts the stage that decided each search (``line:…``,
``hull:…``) and, under ``matches``, every quadruple that reached the exact
check.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Sequence

from .scalars import _nary

SEARCH_STAGES: Counter = Counter()

# placeholder for the free slot of a shape in Certifier.first_of
FREE = object()
# what forced() returns when the three fixed slots already cover everything
ANY = "any"


def _key(v) -> tuple:
    """Canonical (numerator, denominator) pair: equal rationals, equal keys."""
    return (v.numerator, v.denominator)


class Certifier:
    """The ratio table of one search for z against the generators x, y, and
    the candidate list ``values`` that the enumerators draw coefficients from.

    Coordinates are bits of an int mask.  ``hits(v)`` gives the masks of the
    nonzero coordinates that coefficient v reproduces on the x side and on
    the y side; a quadruple can match only if its four masks cover every
    nonzero coordinate.
    """

    __slots__ = ("_pairs", "_need", "_xhit", "_yhit", "_ratio", "_values", "_hits", "_at")

    def __init__(self, xv: Sequence, yv: Sequence, zv: Sequence, values: Sequence):
        self._pairs = tuple(zip(zv, xv, yv))
        need = 0
        xhit: dict = {}
        yhit: dict = {}
        ratio: dict = {}
        for i, (zi, xi, yi) in enumerate(self._pairs):
            if not zi:
                continue
            bit = 1 << i
            need |= bit
            rx = zi / xi if xi else None
            ry = zi / yi if yi else None
            if rx is not None:
                k = _key(rx)
                xhit[k] = xhit.get(k, 0) | bit
            if ry is not None:
                k = _key(ry)
                yhit[k] = yhit.get(k, 0) | bit
            ratio[bit] = (rx, ry)
        self._need = need
        self._xhit = xhit
        self._yhit = yhit
        self._ratio = ratio
        self._values = values
        keys = [_key(v) for v in values]
        self._hits = [(xhit.get(k, 0), yhit.get(k, 0)) for k in keys]
        self._at = {k: p for p, k in enumerate(keys)}

    def matches(self, t, r, s, w) -> bool:
        """Exact check: Ϝ(t·x_i, r·x_i, s·y_i, w·y_i) = z_i for every i."""
        SEARCH_STAGES["matches"] += 1
        for zi, xi, yi in self._pairs:
            if _nary((t * xi, r * xi, s * yi, w * yi)) != zi:
                return False
        return True

    def hits(self, v) -> tuple[int, int]:
        """(x-side mask, y-side mask) of the nonzero coordinates v reproduces."""
        k = _key(v)
        return self._xhit.get(k, 0), self._yhit.get(k, 0)

    def covers(self, quad: Sequence) -> bool:
        """Whether every nonzero coordinate is reproduced by some slot of quad."""
        t, r, s, w = (self.hits(v) for v in quad)
        return not self._need & ~(t[0] | r[0] | s[1] | w[1])

    def forced(self, covered: int, on_x: bool):
        """The only value the free slot can take, given the mask that the
        three fixed slots cover: a rational, ``ANY`` (nothing is left for it
        to reproduce) or ``None`` (no value can match)."""
        missed = self._need & ~covered
        if not missed:
            return ANY
        rx, ry = self._ratio[missed & -missed]
        v, hit = (rx, self._xhit) if on_x else (ry, self._yhit)
        if v is None or missed & ~hit[_key(v)]:
            return None
        return v

    def fill(self, covered: int, on_x: bool):
        """Positions in the candidate list that the free slot may take: all
        of them, the forced one, or none."""
        v = self.forced(covered, on_x)
        if v is ANY:
            return range(len(self._values))
        if v is None:
            return ()
        p = self._at.get(_key(v))
        return () if p is None else (p,)

    def first_bounded(self, ts: Sequence[int], ss: Sequence[int], admit=None):
        """First matching quadruple (t, r, s, w) of values, or None.

        t runs over the positions ts (outer loop), r over values up to the
        first entry above t, s over the positions ss, and w over values up
        to the first entry above s (innermost, through ``fill``).
        ``admit(quad)`` rejects a quadruple before the exact check.
        """
        values, hits = self._values, self._hits
        # top[k] > v exactly when position k lies past the first entry above v
        top = list(accumulate(values, max))
        # fill depends only on the covered mask, and few masks occur
        ws: dict = {}
        for kt in ts:
            t = values[kt]
            for kr, r in enumerate(values):
                if top[kr] > t:
                    break
                tr = hits[kt][0] | hits[kr][0]
                for ks in ss:
                    s = values[ks]
                    covered = tr | hits[ks][1]
                    if covered not in ws:
                        ws[covered] = self.fill(covered, False)
                    for kw in ws[covered]:
                        if top[kw] > s:
                            break
                        quad = (t, r, s, values[kw])
                        if (admit is None or admit(quad)) and self.matches(*quad):
                            return quad
        return None

    def first_of(self, shapes: Sequence, admit):
        """First matching quadruple over values (outer) and shapes (inner).

        Each shape is a quadruple with one ``FREE`` slot, which takes each
        value in turn; ``admit(v)`` rejects a value before any check.
        """
        tries = []
        for k, shape in enumerate(shapes):
            covered = 0
            for slot, v in enumerate(shape):
                if v is FREE:
                    free = slot
                else:
                    covered |= self.hits(v)[slot >= 2]
            tries.extend((p, k, free) for p in self.fill(covered, free < 2))
        tries.sort()
        for p, k, free in tries:
            v = self._values[p]
            if not admit(v):
                continue
            quad = list(shapes[k])
            quad[free] = v
            if self.matches(*quad):
                return tuple(quad)
        return None
