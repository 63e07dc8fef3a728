#!/usr/bin/env python3
"""Tour of the scalar limit operation.

The binary operation x [+] y keeps whichever argument has the larger
magnitude and returns 0 when the arguments are exact opposites; ties with
equal sign keep the shared value.  The n-ary version is NOT a fold of the
binary one: it cancels signed repetitions of the dominant magnitude and
falls through to the next magnitude level.  Everything here is exact
rational arithmetic; the finite-p oracle shows the same values emerging
as limits of ordinary power sums.
"""

from boxlim import (
    boxplus,
    check_symmetric_space_axioms,
    converge,
    lower_form,
    nary_boxplus,
    p_sum,
    q,
    real_vector_space,
    smile_minus,
    smile_plus,
    upper_form,
)
from boxlim.scalars import residual_index_set, xi


def main() -> None:
    print("== binary limit sum ==")
    for a, b in [(3, 1), (1, -2), (-3, 3), (2, 2), (-5, 0)]:
        print(f"  {a} [+] {b} = {boxplus(a, b)}")

    print("\n== n-ary limit sum is not a fold ==")
    xs = tuple(q(v) for v in (-3, -2, 3, 3, 1, -3))
    print(f"  values           : {tuple(int(v) for v in xs)}")
    print(f"  n-ary sum        : {nary_boxplus(xs)}")
    folded = xs[0]
    for v in xs[1:]:
        folded = boxplus(folded, v)
    print(f"  left fold of [+] : {folded}  (pairwise ties annihilate too early)")
    print(f"  signed counts    : xi(3) = {xi(xs, 3)}, xi(-2) = {xi(xs, -2)}, "
          f"xi(1) = {xi(xs, 1)}")
    residual = residual_index_set(xs)
    print(f"  residual set     : positions {sorted(residual)}, "
          f"whose sum is {nary_boxplus(xs, residual)}")

    print("\n== smiles bracket the sum ==")
    lo, hi = smile_minus(xs), smile_plus(xs)
    print(f"  smile- = {lo}, smile+ = {hi}")
    print(f"  bracket: {lo} <= {nary_boxplus(xs)} <= {hi}")
    print(f"  half-sum bridge on pairs: 3 [+] 1 = {boxplus(3, 1)} "
          f"= (smile- + smile+)/2 = {(smile_minus((q(3), q(1))) + smile_plus((q(3), q(1)))) / 2}")

    print("\n== sandwich forms ==")
    coeffs, zs = (q(-2), q(3)), (q(3), q(1))
    products = tuple(c * z for c, z in zip(coeffs, zs))
    print(f"  lower {lower_form(coeffs, zs)} <= nary {nary_boxplus(products)} "
          f"<= upper {upper_form(coeffs, zs)}")

    print("\n== the symmetric vector-space axioms ==")
    sample = [
        (q(2), q(-1, 2), (q(3), q(-2)), (q(-3), q(1))),
        (q(-1), q(1), (q(1), q(1)), (q(1), q(-1))),
        (q(1, 3), q(1, 3), (q(0), q(5)), (q(-5), q(2))),
    ]
    report = check_symmetric_space_axioms(real_vector_space(2), sample)
    print(f"  {report.name}: every axiom holds on {report.samples} frozen samples? "
          f"{report.passed}")

    print("\n== the finite-p oracle ==")
    print("  at finite p the sum is the odd-power mean "
          "(x_1^(2p+1) + ... + x_n^(2p+1))^(1/(2p+1));")
    print("  as p grows it converges to the exact n-ary value:")
    report = converge(lambda p: p_sum(xs, p), nary_boxplus(xs))
    for p, err in zip(report.p_grid, report.errors):
        print(f"    p = {p:2d}   |error| = {float(err):.3e}")
    print(f"  converged: {report.converged} (tolerance {report.tol})")


if __name__ == "__main__":
    main()
