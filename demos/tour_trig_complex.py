#!/usr/bin/env python3
"""Tour of square trigonometry and the limit complex product.

The role of the unit circle is played by the unit square max(|z1|, |z2|) = 1.
Walking its boundary counterclockwise from (1, 0) with unit speed gives
piecewise-linear cosine/sine analogues with period 8.  The induced complex
product multiplies moduli exactly and adds square angles, and every nonzero
element has an exact inverse.
"""

from fractions import Fraction

from boxlim import (
    AngleParam,
    alpha,
    alpha_inv,
    cinv,
    cmod_infty,
    cos_infty,
    cplx,
    ctimes,
    inner3_limit,
    pcos,
    polar,
    psin,
    pythagoras_check,
    q,
    sin_infty,
    vec,
)


def main() -> None:
    print("== square cosine and sine, period 8 ==")
    print("  theta :", "  ".join(f"{t:>5}" for t in ("0", "1/2", "1", "2", "13/4", "6", "8")))
    thetas = [q(0), q(1, 2), q(1), q(2), q(13, 4), q(6), q(8)]
    print("  pcos  :", "  ".join(f"{str(pcos(t)):>5}" for t in thetas))
    print("  psin  :", "  ".join(f"{str(psin(t)):>5}" for t in thetas))
    print("  identity: max(|pcos|, |psin|) = 1 at every theta")

    print("\n== angles of boundary points ==")
    for z in ("1,1/2", "-1,3/4", "0,-1"):
        theta = alpha(vec(z))
        back = alpha_inv(theta)
        print(f"  alpha(({z})) = {theta.theta}  and back: {tuple(str(c) for c in back)}")

    print("\n== angle between vectors ==")
    x, y = vec("3,1"), vec("1,-2")
    print(f"  cos = {cos_infty(x, y)}, sin = {sin_infty(x, y)}")
    print(f"  three-point form at the origin: "
          f"{inner3_limit(vec('3,1,0'), vec('1,-2,0'), vec('0,0,0'))}")

    print("\n== right angles and the hypotenuse ==")
    a, b, c = vec("2,0"), vec("0,-3"), vec("0,0")
    ok = pythagoras_check(a, b, c, p_grid=(1, 2, 4, 8))
    print(f"  legs at {tuple(map(int, a))} and {tuple(map(int, b))}, corner {tuple(map(int, c))}")
    print(f"  exact hypotenuse identity + deformed identity hold: {ok}")

    print("\n== limit complex product ==")
    z, w = cplx(3, 1), cplx(1, -2)
    zw = ctimes(z, w)
    print(f"  ({z}) box-times ({w}) = {zw}")
    print(f"  moduli multiply exactly: |z| |w| = {cmod_infty(z)} * {cmod_infty(w)} "
          f"= {cmod_infty(z) * cmod_infty(w)} = |zw| = {cmod_infty(zw)}")
    print(f"  inverse: z box-times cinv(z) = {ctimes(z, cinv(z))}")
    m, theta = polar(cplx(-2, 1))
    print(f"  polar(-2+1i): modulus {m}, square angle {Fraction(theta.theta)}")
    print(f"  angle arithmetic wraps mod 8: AngleParam(-1) -> {AngleParam(q(-1)).theta}")


if __name__ == "__main__":
    main()
