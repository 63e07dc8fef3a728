#!/usr/bin/env python3
"""Tour of the symmetrized max-plus mirror.

Transporting the limit algebra through the logarithm gives a signed
max-plus arithmetic: elements carry a sign and an exact rational
log-magnitude ("3/2" means +e^(3/2), "3/2+ipi" its negative, "-inf" zero).
Addition keeps the larger log-magnitude and annihilates exact opposites;
multiplication adds log-magnitudes.  psi_exp/psi_ln bridge back to floats.
"""

import math

from boxlim import (
    MONE,
    MZERO,
    mp_boxplus,
    mp_dist,
    mp_format,
    mp_nary,
    mp_otimes,
    mp_parse,
    msym,
    psi_exp,
    psi_ln,
)
from boxlim.maxplus import mp_abs_le, mp_hull_contains, mp_hull_point


def main() -> None:
    print("== literals ==")
    for text in ("-inf", "0", "3/2", "3/2+ipi", "-2+ipi"):
        z = mp_parse(text)
        print(f"  {text:>8} -> sign {z.sign:+d}, log-magnitude "
              f"{'-inf' if z.sign == 0 else z.logmag}  (prints as {mp_format(z)})")

    print("\n== addition: larger log-magnitude wins, opposites annihilate ==")
    pairs = [("3/2", "0"), ("3/2", "3/2+ipi"), ("2+ipi", "1")]
    for a, b in pairs:
        out = mp_boxplus(mp_parse(a), mp_parse(b))
        print(f"  {a} (+) {b} = {mp_format(out)}")
    xs = tuple(mp_parse(t) for t in ("2", "2+ipi", "2", "1+ipi"))
    print(f"  n-ary over (2, 2+ipi, 2, 1+ipi): {mp_format(mp_nary(xs))} "
          "(net one +2 survives)")

    print("\n== multiplication adds log-magnitudes ==")
    z, w = mp_parse("3/2"), mp_parse("-2+ipi")
    print(f"  3/2 (x) -2+ipi = {mp_format(mp_otimes(z, w))}")
    print(f"  identity: {mp_format(MONE)}; zero: {mp_format(MZERO)}")

    print("\n== distance ==")
    x = tuple(mp_parse(t) for t in ("1", "-inf"))
    y = tuple(mp_parse(t) for t in ("1+ipi", "0"))
    print(f"  d((1, -inf), (1+ipi, 0)) = {mp_format(mp_dist(x, y))}")
    z = mp_hull_point(x, y, (MONE, MZERO, mp_parse("-1"), MZERO))
    print(f"  hull point at weights (0, -inf, -1, -inf): "
          f"({', '.join(map(mp_format, z))}), certified member? "
          f"{mp_hull_contains(x, y, z)}")
    dxz, dxy, dyz = mp_dist(x, z), mp_dist(x, y), mp_dist(y, z)
    holds = mp_abs_le(dxz, dxy) or mp_abs_le(dxz, dyz)
    print(f"  strong triangle: d(x,z) = {mp_format(dxz)} <= max(d(x,y), d(y,z)) "
          f"= max({mp_format(dxy)}, {mp_format(dyz)})? {holds}")

    print("\n== float bridge ==")
    z = msym(1, q_logmag("5/2"))
    f = psi_exp(z)
    print(f"  psi_exp(5/2) = e^(5/2) = {f}  (check: {math.exp(2.5)})")
    back = psi_ln(f)
    print(f"  psi_ln round-trip: sign {back.sign:+d}, "
          f"log-magnitude {float(back.logmag):.12f} (recovers 5/2? "
          f"{math.isclose(float(back.logmag), 2.5)})")


def q_logmag(text: str):
    return mp_parse(text).logmag


if __name__ == "__main__":
    main()
