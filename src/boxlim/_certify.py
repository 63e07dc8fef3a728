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

Each search reads x, y and z once, into integer rows at one common scale
(``linalg._common_rows``, or ``lines._search_rows``, which rejects x = y
first), builds its tables once, and then works on positions and int masks.
The max-plus mirror runs the hull search on int levels instead
(``maxplus._on_levels``): it passes its own quotient ``ratio`` and product
``mul`` of row values, since Ϝ, the order and the signs read levels as they
are.

- **Candidate pairs.**  Candidates are canonical (numerator, denominator)
  int pairs (:func:`ratio`), ordered by cross-multiplication (``by_value``);
  a carrier is built only for a returned certificate (:meth:`Certifier.quad`).
- **Position masks.**  Coordinates are bits of an int mask.  A
  :class:`Certifier` holds, for each position of the list, the masks of the
  nonzero coordinates its value reproduces on the x side and on the y side;
  a quadruple can match only if its four masks cover every nonzero
  coordinate, so coverage is an OR of four table entries.  The list's first
  ``bounded`` entries are the values a slot bounded by 1 may take.
- **The −v index.**  For each position the table holds the position of −v,
  so a cancelling pair (c, −c) is two positions.
- **The integer product table.**  The exact check :meth:`Certifier.matches`
  takes four positions and reads the products v·x_i and v·y_i from a table
  of ints filled the first time a position is used, so each product is
  computed once per search.  The rows are multiplied by L, the lcm of the
  candidates' denominators, so every product and z_i·L is an int; L is
  built on the first exact check, so a search that checks nothing pays
  nothing for it.
- **The parity reject.**  With each row the table keeps the mask of the
  coordinates where |v·x_i| (or |v·y_i|) exceeds |z_i|.  Every level above
  |z_i| must cancel, so it holds an even number of the four products: a
  coordinate that exceeds |z_i| in one or three slots fails, and the XOR of
  the four masks rejects the quadruple before any coordinate is summed.
  A quadruple that passes is checked coordinate by coordinate with
  ``scalars._nary_ints``, the Ϝ that every layer shares.

The hull search and stage 3 of the line search enumerate quadruples
through :meth:`Certifier.first_bounded`: t and s come
from the positions the caller names, r runs over the bounded prefix up to its
first entry above t, and w over the prefix up to its first entry above s.
Read in the list's own order, that prefix rule gives r ≤ t and w ≤ s on an
ascending list; on the line search's (|v|, v) order it stops at the first
entry whose value exceeds the bound.  The shape stages of the line search
use :meth:`Certifier.first_of`.  Both ask
:meth:`Certifier.fill`, memoized per covered mask and side, for the slot they
fill last and check only what survives, so they skip only quadruples that
provably fail and return the same first hit as the unpruned enumeration.

``SEARCH_STAGES`` counts the stage that decided each search (``line:…``,
``hull:…``) and, under ``matches``, every quadruple that reached the exact
check.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cmp_to_key
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .scalars import _from_pair, _nary_ints


SEARCH_STAGES: Counter = Counter()

# placeholder for the free slot of a shape in Certifier.first_of
FREE = None


def ratio(n: int, d: int) -> tuple:
    """The canonical pair of n/d for ints n and d ≠ 0: equal rationals, equal
    pairs."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return (n // g, d // g)


# sort key of canonical pairs in the order of their values
by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


class Certifier:
    """The tables of one search for z against x, y, as integer rows at one
    common scale, over the candidate pairs ``keys``, whose first ``bounded``
    entries (all of them by default) are the values a bounded slot may take;
    ``ratio`` and ``mul`` are the quotient and product of row values."""

    __slots__ = (
        "keys", "bounded", "one", "neg", "_need", "_xmask", "_ymask", "_force",
        "_fills", "_stop", "_rows", "_xprod", "_yprod", "_big", "_zs", "_zabs",
        "_bits", "_mul",
    )

    def __init__(self, xs: Sequence[int], ys: Sequence[int], zs: Sequence[int],
                 keys: Sequence[tuple], bounded: int | None = None,
                 ratio=ratio, mul=mul):
        self.keys = keys
        self.bounded = len(keys) if bounded is None else bounded
        self._mul = mul
        at = {k: p for p, k in enumerate(keys)}
        self.one = at.get(ratio(1, 1))
        self.neg = [at.get((-n, d)) for n, d in keys]

        need = 0
        xhit: dict = {}
        yhit: dict = {}
        ratios = []
        for i, (zi, xi, yi) in enumerate(zip(zs, xs, ys)):
            if not zi:
                continue
            bit = 1 << i
            need |= bit
            rx = ratio(zi, xi) if xi else None
            ry = ratio(zi, yi) if yi else None
            if rx is not None:
                xhit[rx] = xhit.get(rx, 0) | bit
            if ry is not None:
                yhit[ry] = yhit.get(ry, 0) | bit
            ratios.append((bit, rx, ry))
        self._need = need
        self._xmask = [xhit.get(k, 0) for k in keys]
        self._ymask = [yhit.get(k, 0) for k in keys]

        def forced(r, hit):
            # (bounded position of r or None, mask of the coordinates r hits)
            p = at.get(r)
            return (p if p is not None and p < self.bounded else None, hit.get(r, 0))

        # per coordinate bit: what the free slot must be on the y and x side
        self._force = {
            bit: (forced(ry, yhit), forced(rx, xhit)) for bit, rx, ry in ratios
        }
        self._fills = ({}, {})
        self._stop = None
        self._rows = (xs, ys, zs)
        self._xprod = [None] * len(keys)
        self._yprod = [None] * len(keys)
        self._zs = None

    def covers(self, kt: int, kr: int, ks: int, kw: int) -> bool:
        """Whether the quadruple at these positions reproduces every nonzero
        coordinate in some slot."""
        x, y = self._xmask, self._ymask
        return not self._need & ~(x[kt] | x[kr] | y[ks] | y[kw])

    def matches(self, kt: int, kr: int, ks: int, kw: int) -> bool:
        """Exact check: Ϝ(t·x_i, r·x_i, s·y_i, w·y_i) = z_i for every i, with
        t, r, s, w the values at these positions."""
        SEARCH_STAGES["matches"] += 1
        xp, yp = self._xprod, self._yprod
        t, mt = xp[kt] or self._products(kt, True)
        r, mr = xp[kr] or self._products(kr, True)
        s, ms = yp[ks] or self._products(ks, False)
        w, mw = yp[kw] or self._products(kw, False)
        # the levels above |z_i| must cancel, so each needs an even number of
        # products: a coordinate where one or three exceed |z_i| fails
        if mt ^ mr ^ ms ^ mw:
            return False
        for zi, a, b, c, d in zip(self._zs, t, r, s, w):
            if _nary_ints((a, b, c, d)) != zi:
                return False
        return True

    def _scale(self) -> None:
        # L, the lcm of the candidates' denominators: each v·L is an int
        self._big = big = lcm(*[d for _, d in self.keys])
        zs = self._zs = [z * big for z in self._rows[2]]
        self._zabs = [abs(z) for z in zs]
        self._bits = [1 << i for i in range(len(zs))]

    def _products(self, k: int, on_x: bool) -> tuple:
        # (the scaled products of the value at k, the mask where they exceed |z_i|)
        if self._zs is None:
            self._scale()
        n, d = self.keys[k]
        v = n * (self._big // d)
        row = list(map(self._mul, repeat(v), self._rows[0 if on_x else 1]))
        over = 0
        for bit, p, m in zip(self._bits, row, self._zabs):
            if p > m or -p > m:
                over |= bit
        entry = (row, over)
        (self._xprod if on_x else self._yprod)[k] = entry
        return entry

    def quad(self, ks: Sequence[int]) -> tuple:
        """The values at four positions, as carriers."""
        return tuple(_from_pair(*self.keys[k]) for k in ks)

    def fill(self, covered: int, on_x: bool):
        """Bounded positions that the free slot may take, given the mask the
        three fixed slots cover: all of them (nothing is left for it to
        reproduce), the one its ratio forces, or none."""
        memo = self._fills[on_x]
        ks = memo.get(covered)
        if ks is None:
            missed = self._need & ~covered
            if not missed:
                ks = range(self.bounded)
            else:
                p, hit = self._force[missed & -missed][on_x]
                ks = () if p is None or missed & ~hit else (p,)
            memo[covered] = ks
        return ks

    def _stops(self) -> list:
        # stop[k]: the first bounded position whose value, or an earlier one,
        # exceeds the value at k
        if self._stop is None:
            prefix = [by_value(k) for k in self.keys[: self.bounded]]
            top = list(accumulate(prefix, max))
            self._stop = [bisect_right(top, v) for v in prefix]
        return self._stop

    def first_bounded(self, ts: Sequence[int], ss: Sequence[int], sum_one: bool = False):
        """First matching quadruple (t, r, s, w) of values, or None.

        t runs over the positions ts (outer loop), r over the bounded prefix
        up to its first entry above t, s over the positions ss, and w over
        the prefix up to its first entry above s (innermost, through
        ``fill``).  With ``sum_one`` a quadruple is checked only if its +1s
        outnumber its −1s: the limit sum of entries in [−1, 1] is then 1.
        The outer loops carry the balance of +1s over −1s in t, r and s.
        """
        stop = self._stops()
        xm, ym = self._xmask, self._ymask
        memo = self._fills[False]
        # without sum_one no position counts and every balance is 2
        one, minus = (self.one, self.neg[self.one]) if sum_one else (None, None)
        start = 0 if sum_one else 2
        for kt in ts:
            xt = xm[kt]
            bt = start + (kt == one) - (kt == minus)
            for kr in range(stop[kt]):
                tr = xt | xm[kr]
                br = bt + (kr == one) - (kr == minus)
                for ks in ss:
                    covered = tr | ym[ks]
                    ws = memo.get(covered)
                    if ws is None:
                        ws = self.fill(covered, False)
                    if not ws:
                        continue
                    bal = br + (ks == one) - (ks == minus)
                    if bal < 1:
                        if bal < 0 or one not in ws:
                            continue
                        ws = (one,)
                    skip = minus if bal == 1 else None
                    end = stop[ks]
                    for kw in ws:
                        if kw >= end:
                            break
                        if kw != skip and self.matches(kt, kr, ks, kw):
                            return self.quad((kt, kr, ks, kw))
        return None

    def first_of(self, shapes: Sequence):
        """First matching quadruple over bounded positions (outer) and
        shapes (inner).

        Each shape is a quadruple of positions, a cancelling pair (c, −c) and
        1 beside one ``FREE`` slot, which takes each bounded position in turn
        except that of −1: the residual {1, −1} would cancel.
        """
        xm, ym = self._xmask, self._ymask
        fills = self._fills
        tries = []
        for k, shape in enumerate(shapes):
            covered = 0
            for slot, p in enumerate(shape):
                if p is FREE:
                    free = slot
                else:
                    covered |= ym[p] if slot >= 2 else xm[p]
            on_x = free < 2
            ks = fills[on_x].get(covered)
            if ks is None:
                ks = self.fill(covered, on_x)
            tries.extend((p, k, free) for p in ks)
        if not tries:
            return None
        tries.sort()
        minus = self.neg[self.one]
        for p, k, free in tries:
            if p == minus:
                continue
            quad = list(shapes[k])
            quad[free] = p
            if self.matches(*quad):
                return self.quad(quad)
        return None
