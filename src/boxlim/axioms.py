"""Axiom harnesses: sampling-based checks, not proofs, that a scalar carrier
is a pseudo-field and a vector carrier a symmetric space over it.

The bundles of the rational carrier live here; ``maxplus`` builds those of
the symmetrized max-plus carrier, and the suites run the checks on both.
"""

from __future__ import annotations

import operator
from typing import Sequence

from ._record import Record
from .linalg import scale, vec_boxplus
from .scalars import ONE, ZERO, boxplus

__all__ = [
    "PseudoFieldOps",
    "SymmetricSpaceOps",
    "AxiomReport",
    "REAL_PSEUDO_FIELD",
    "real_vector_space",
    "check_pseudo_field_axioms",
    "check_symmetric_space_axioms",
]


class PseudoFieldOps(Record):
    """Operation bundle for a scalar carrier to be tested against the axioms;
    ``inv`` inverts a nonzero element."""

    __slots__ = ("name", "add", "mul", "neg", "inv", "zero", "one")


class SymmetricSpaceOps(Record):
    """Operation bundle for a vector carrier over a scalar PseudoFieldOps;
    ``act`` is the scalar action (λ, x) ↦ λ·x."""

    __slots__ = ("name", "field", "vadd", "vneg", "act", "vzero")


class AxiomReport(Record):
    """Outcome of an axiom suite; carries the first counterexample if any."""

    __slots__ = ("name", "passed", "samples", "failed_axiom", "witness")
    _defaults = (None, None)

    def __bool__(self) -> bool:
        return self.passed


REAL_PSEUDO_FIELD = PseudoFieldOps(
    name="reals-with-limit-sum",
    add=boxplus,
    mul=operator.mul,
    neg=operator.neg,
    inv=lambda a: ONE / a,
    zero=ZERO,
    one=ONE,
)


def real_vector_space(dim: int) -> SymmetricSpaceOps:
    """The coordinate space of exact rational vectors with coordinatewise limit sum."""
    return SymmetricSpaceOps(
        name=f"rational-vectors-dim-{dim}",
        field=REAL_PSEUDO_FIELD,
        vadd=vec_boxplus,
        vneg=lambda x: tuple(-v for v in x),
        act=scale,
        vzero=(ZERO,) * dim,
    )


def check_pseudo_field_axioms(
    sample: Sequence[tuple],
    ops: PseudoFieldOps,
) -> AxiomReport:
    """Test the scalar axioms on sampled triples (λ, μ, ν); stop at the first failure.

    Covered: idempotence, commutativity, neutral element, symmetric element,
    weak associativity for mutually non-symmetric triples, commutative and
    associative multiplication with unit and inverses, and distributivity of
    multiplication over the idempotent sum.
    """
    add, mul, neg, inv = ops.add, ops.mul, ops.neg, ops.inv
    zero, one = ops.zero, ops.one

    def fail(axiom: str, witness: tuple) -> AxiomReport:
        return AxiomReport(ops.name, False, len(sample), axiom, witness)

    for triple in sample:
        lam, mu, nu = triple
        if add(lam, lam) != lam:
            return fail("add-idempotent", (lam,))
        if add(lam, mu) != add(mu, lam):
            return fail("add-commutative", (lam, mu))
        if add(lam, zero) != lam:
            return fail("add-neutral", (lam,))
        if add(lam, neg(lam)) != zero:
            return fail("add-symmetric-element", (lam,))
        if add(lam, mu) != zero and add(mu, nu) != zero and add(lam, nu) != zero:
            if add(add(lam, mu), nu) != add(lam, add(mu, nu)):
                return fail("add-weak-associative", triple)
        if mul(lam, mu) != mul(mu, lam):
            return fail("mul-commutative", (lam, mu))
        if mul(mul(lam, mu), nu) != mul(lam, mul(mu, nu)):
            return fail("mul-associative", triple)
        if mul(lam, one) != lam:
            return fail("mul-unit", (lam,))
        if lam != zero and mul(lam, inv(lam)) != one:
            return fail("mul-inverse", (lam,))
        if mul(lam, add(mu, nu)) != add(mul(lam, mu), mul(lam, nu)):
            return fail("distributivity", triple)
    return AxiomReport(ops.name, True, len(sample))


def check_symmetric_space_axioms(
    space: SymmetricSpaceOps,
    sample: Sequence[tuple],
) -> AxiomReport:
    """Test the vector-space axioms on sampled (λ, μ, x, y); stop at first failure.

    Covered: idempotent/commutative sum with neutral and symmetric elements,
    the two distributivities, action associativity, unit action, −x = (−1)·x,
    and the derived identities λ·0 = 0 and 0·x = 0.
    """
    k = space.field
    vadd, vneg, act, vzero = space.vadd, space.vneg, space.act, space.vzero

    def fail(axiom: str, witness: tuple) -> AxiomReport:
        return AxiomReport(space.name, False, len(sample), axiom, witness)

    for item in sample:
        lam, mu, x, y = item
        if vadd(x, x) != x:
            return fail("vadd-idempotent", (x,))
        if vadd(x, y) != vadd(y, x):
            return fail("vadd-commutative", (x, y))
        if vadd(x, vzero) != x:
            return fail("vadd-neutral", (x,))
        if vadd(x, vneg(x)) != vzero:
            return fail("vadd-symmetric-element", (x,))
        if act(lam, vadd(x, y)) != vadd(act(lam, x), act(lam, y)):
            return fail("act-distributes-over-vadd", (lam, x, y))
        if act(k.add(lam, mu), x) != vadd(act(lam, x), act(mu, x)):
            return fail("scalar-add-distributes", (lam, mu, x))
        if act(k.mul(lam, mu), x) != act(lam, act(mu, x)):
            return fail("act-associative", (lam, mu, x))
        if act(k.one, x) != x:
            return fail("act-unit", (x,))
        if vneg(x) != act(k.neg(k.one), x):
            return fail("neg-is-minus-one-action", (x,))
        if act(lam, vzero) != vzero:
            return fail("act-on-zero-vector", (lam,))
        if act(k.zero, x) != vzero:
            return fail("zero-scalar-action", (x,))
    return AxiomReport(space.name, True, len(sample))
