#!/usr/bin/env python3
"""Tour of the limit geometry: ultrametric balls, hulls, and lines.

The coordinatewise limit sum induces a distance that satisfies the strong
triangle inequality d(x, z) <= max(d(x, y), d(y, z)).  Closed balls are
axis-aligned products of points and intervals, two-point hulls are finite
unions of segments, and the "line" through two points is a certificate
family rather than a parametric curve.
"""

from boxlim import (
    HullCombination,
    ball_describe,
    co_contains,
    co_orthant,
    co_p_sample,
    co_point,
    converge,
    dist_boxplus,
    dist_decomposition_check,
    half_lines,
    line2d_form,
    line_contains_nd,
    line_p_sample,
    line_point,
    lower_form,
    p_dist,
    parallel_normal_form,
    q,
    scale,
    upper_form,
    vec,
    vec_boxplus,
)


def _floats(point) -> str:
    return "(" + ", ".join(f"{float(c):.6f}" for c in point) + ")"



def main() -> None:
    x, y = vec("3,1"), vec("1,-2")

    print("== ultrametric distance ==")
    print(f"  d({tuple(map(int, x))}, {tuple(map(int, y))}) = {dist_boxplus(x, y)}")
    z = vec("0,0")
    dxz, dxy, dyz = dist_boxplus(x, z), dist_boxplus(x, y), dist_boxplus(y, z)
    print(f"  strong triangle: d(x,z) = {dxz} <= max(d(x,y), d(y,z)) "
          f"= max({dxy}, {dyz})")
    report = converge(lambda p: p_dist(x, y, p), dist_boxplus(x, y))
    print(f"  oracle: finite-p distance converges ({report.final_error:.2e} final error)")

    print("\n== closed balls: three regimes around center (3, 2) ==")
    for radius in ("1", "5/2", "4"):
        desc = ball_describe(vec("3,2"), q(radius))
        kinds = ", ".join(type(c).__name__.lower() for c in desc.coords)
        print(f"  radius {radius:>3}: coordinates ({kinds})")

    print("\n== two-point hull ==")
    mid = co_point(x, y, HullCombination(q(1, 2), q(0), q(1), q(0)))
    print(f"  hull point at (t,r,s,w) = (1/2,0,1,0): {tuple(str(c) for c in mid)}")
    for p in (2, 8, 32):
        print(f"    deformed hull at t = 1/2, p = {p:>2}: "
              f"{_floats(co_p_sample(x, y, p, q(1, 2)))}")
    for probe in ("3,0", "3/2,-2", "4,0", "0,0"):
        member = co_contains(x, y, vec(probe))
        print(f"  ({probe}) in hull? {member}")
        if member:
            print("    decomposes: d(x,y) = max(d(x,z), d(z,y))? "
                  f"{dist_decomposition_check(x, y, vec(probe))}")
    same = co_orthant([vec("3,1"), vec("1,2")], (q(1, 2), q(1)))
    print(f"  same-orthant hull of (3,1), (1,2) at weights (1/2, 1): "
          f"{tuple(str(c) for c in same)}")

    print("\n== the 2d line through x and y ==")
    form = line2d_form(x, y)
    print(f"  coefficients {tuple(map(int, form.coeffs))}, constant {form.constant}")
    print(f"  membership reads: {form.orientation}")
    for probe in ("3,1", "1,-2", "2,-2", "0,0"):
        zz = vec(probe)
        lo, hi = lower_form(form.coeffs, zz), upper_form(form.coeffs, zz)
        ok = lo <= form.constant <= hi
        print(f"  z = ({probe:>5}): {lo} <= {form.constant} <= {hi}  ->  {ok}")
    on_line = vec_boxplus(scale(q(-1, 2), x), y)
    print(f"  line point with coefficients (-1/2, 1): {tuple(str(c) for c in on_line)}")
    for p in (2, 8, 32):
        print(f"    deformed line at s = -1/2, p = {p:>2}: "
              f"{_floats(line_p_sample(x, y, p, q(-1, 2)))}")

    print("\n== certificate family in dimension 3 ==")
    x3, y3 = vec("3,-2,1"), vec("1,-1,1")
    for delta in (2, 3, -2):
        zd = line_point(x3, y3, q(1), q(delta), q(-delta), q(0))
        hit = line_contains_nd(x3, y3, zd)
        print(f"  delta = {delta:>2}: z = {tuple(map(int, zd))}, "
              f"certificate found = {bool(hit)}")

    print("\n== half-lines and parallels ==")
    for hl in half_lines(x3, y3):
        pt = hl.point(q(2))
        print(f"  sense {hl.sense:+d}: t = 2 gives {tuple(map(int, pt))}")
    a_form, c1, c2 = parallel_normal_form(x, y, vec("-2,4"), vec("-6,1"))
    print(f"  parallel pair shares coefficients {tuple(map(int, a_form))} "
          f"with constants {c1} and {c2}")


if __name__ == "__main__":
    main()
