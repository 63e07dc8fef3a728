"""The frozen value types: repr, equality, hashing, immutability, copying and
the checks their constructors make."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from boxlim._record import Record
from boxlim.axioms import REAL_PSEUDO_FIELD, AxiomReport, SymmetricSpaceOps
from boxlim.cplane import BoxComplex
from boxlim.deform import ConvergenceReport
from boxlim.errors import InvalidCombination
from boxlim.hull import HullCombination
from boxlim.lines import HalfLine, LineForm, LineMembership
from boxlim.maxplus import MSym
from boxlim.metric import BallDescriptor, Fixed, Free, ball_describe
from boxlim.scalars import ONE, ZERO, q
from boxlim.suites import CheckResult
from boxlim.trig import AngleParam, OrthogonalPartition

# one value of each record type, built twice so that equal values are
# distinct objects
EXAMPLES = {
    "BoxComplex": lambda: BoxComplex(q(1, 2), q(-3)),
    "ConvergenceReport": lambda: ConvergenceReport((1, 2), (0.5, 0.25), True, 0.25),
    "HullCombination": lambda: HullCombination(1, 0, q(1, 2), 0),
    "PseudoFieldOps": lambda: REAL_PSEUDO_FIELD,
    "SymmetricSpaceOps": lambda: SymmetricSpaceOps(
        "plane", REAL_PSEUDO_FIELD, tuple, tuple, pow, (ZERO, ZERO)
    ),
    "AxiomReport": lambda: AxiomReport("x", False, 3, "assoc", (q(1), q(2))),
    "LineForm": lambda: LineForm((q(1), q(2)), q(3)),
    "HalfLine": lambda: HalfLine((q(1),), (q(2),), -1),
    "LineMembership": lambda: LineMembership(True, (ONE, ZERO, ZERO, ONE)),
    "MSym": lambda: MSym(-1, q(5, 2)),
    "Fixed": lambda: Fixed(q(5)),
    "Free": lambda: Free(q(2)),
    "BallDescriptor": lambda: ball_describe([5, q(1, 2), -1], 2),
    "CheckResult": lambda: CheckResult("a", True, 3, "d", 0.5),
    "OrthogonalPartition": lambda: OrthogonalPartition(((1, 2),), 3),
    "AngleParam": lambda: AngleParam(9),
}

# printed by the dataclass declarations these types replaced
REPRS = [
    (BoxComplex(Fraction(1, 2), -3), "BoxComplex(re=QFraction(1, 2), im=QFraction(-3, 1))"),
    (MSym(-1, Fraction(5, 2)), "MSym(sign=-1, logmag=QFraction(5, 2))"),
    (MSym(0, 3), "MSym(sign=0, logmag=QFraction(0, 1))"),
    (
        ball_describe([5, Fraction(1, 2), -1], 2),
        "BallDescriptor(center=(QFraction(5, 1), QFraction(1, 2), QFraction(-1, 1)), "
        "radius=QFraction(2, 1), coords=(Fixed(value=QFraction(5, 1)), "
        "Free(bound=QFraction(2, 1)), Free(bound=QFraction(2, 1))))",
    ),
    (
        ConvergenceReport((1, 2), (0.5, 0.25), True, 0.25),
        "ConvergenceReport(p_grid=(1, 2), errors=(0.5, 0.25), converged=True, "
        "final_error=0.25, tol=1e-06)",
    ),
    (LineMembership(True, (1, 0, 0, 1)), "LineMembership(found=True, certificate=(1, 0, 0, 1))"),
    (LineMembership(False), "LineMembership(found=False, certificate=None)"),
    (
        HullCombination(1, 0, Fraction(1, 2), 0),
        "HullCombination(t=QFraction(1, 1), r=QFraction(0, 1), s=QFraction(1, 2), "
        "w=QFraction(0, 1))",
    ),
    (AngleParam(9), "AngleParam(theta=QFraction(1, 1))"),
    (OrthogonalPartition(((1, 2),), 3), "OrthogonalPartition(pairs=((1, 2),), leftover=3)"),
    (
        AxiomReport("x", False, 3, "assoc", (1, 2)),
        "AxiomReport(name='x', passed=False, samples=3, failed_axiom='assoc', "
        "witness=(1, 2))",
    ),
    (
        HalfLine((q(1),), (q(2),), -1),
        "HalfLine(offset=(QFraction(1, 1),), direction=(QFraction(2, 1),), sense=-1)",
    ),
    (CheckResult("a", True, 3, "d", 0.5),
     "CheckResult(name='a', passed=True, samples=3, detail='d', elapsed=0.5)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[t.split("(")[0] for _, t in REPRS])
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


def test_every_record_type_has_an_example():
    # every module that declares a record is imported above
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_equal_values_are_equal_with_equal_hashes(name):
    a, b = EXAMPLES[name](), EXAMPLES[name]()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object()


def test_records_of_different_types_are_never_equal():
    assert Fixed(q(1)) != Free(q(1))
    assert not Fixed(q(1)) == Free(q(1))
    assert len({Fixed(q(1)), Free(q(1)), Fixed(q(1))}) == 2


def test_values_that_differ_in_one_field_are_unequal():
    assert MSym(1, 2) != MSym(1, 3) and MSym(1, 2) != MSym(-1, 2)
    assert BoxComplex(1, 2) != BoxComplex(2, 1)
    assert HalfLine((q(1),), (q(2),)) != HalfLine((q(1),), (q(2),), -1)


@pytest.mark.parametrize("name", EXAMPLES)
def test_fields_are_read_only(name):
    value = EXAMPLES[name]()
    field = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


# the operation bundles hold lambdas, which do not pickle
CLONES = [
    pytest.param(name, clone, id=f"{name}-{clone.__name__}")
    for name in EXAMPLES
    for clone in (copy.copy, copy.deepcopy, _pickled)
    if not (name.endswith("Ops") and clone is _pickled)
]


@pytest.mark.parametrize("name, clone", CLONES)
def test_copies_are_equal_values_of_the_same_type(name, clone):
    value = EXAMPLES[name]()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and repr(twin) == repr(value)


def test_keyword_construction_and_defaults():
    assert MSym(sign=1) == MSym(1, ZERO)
    assert HalfLine(offset=(q(1),), direction=(q(2),)).sense == 1
    assert HalfLine.t_min == ONE and "t_min" not in HalfLine.__slots__
    assert "orientation" not in LineForm.__slots__
    assert LineForm(coeffs=(q(1),), constant=q(2)).orientation.startswith("lower_form")
    assert LineMembership(found=False).certificate is None
    assert OrthogonalPartition(pairs=()).leftover is None
    assert ConvergenceReport((1,), (0.0,), True, 0.0).tol == 1e-6
    report = AxiomReport(name="x", passed=True, samples=1)
    assert (report.failed_axiom, report.witness) == (None, None)
    assert BallDescriptor(center=(), radius=q(0), coords=()).coords == ()
    assert HullCombination(t=1, r=0, s=0, w=0).as_tuple() == (1, 0, 0, 0)
    assert BoxComplex(im=2, re=1) == BoxComplex(1, 2)
    assert CheckResult(name="a", passed=False, samples=0, detail="", elapsed=0.0).line() \
        == "FAIL a:  [0.00s]"


_ = inspect.Parameter.empty

# each constructor's parameters, in order, with their defaults (_: none)
CONSTRUCTORS = {
    "BoxComplex": {"re": _, "im": _},
    "ConvergenceReport": {
        "p_grid": _, "errors": _, "converged": _, "final_error": _, "tol": 1e-6,
    },
    "HullCombination": {"t": _, "r": _, "s": _, "w": _},
    "PseudoFieldOps": {
        "name": _, "add": _, "mul": _, "neg": _, "inv": _, "zero": _, "one": _,
    },
    "SymmetricSpaceOps": {
        "name": _, "field": _, "vadd": _, "vneg": _, "act": _, "vzero": _,
    },
    "AxiomReport": {
        "name": _, "passed": _, "samples": _, "failed_axiom": None, "witness": None,
    },
    "LineForm": {"coeffs": _, "constant": _},
    "HalfLine": {"offset": _, "direction": _, "sense": 1},
    "LineMembership": {"found": _, "certificate": None},
    "MSym": {"sign": _, "logmag": ZERO},
    "Fixed": {"value": _},
    "Free": {"bound": _},
    "BallDescriptor": {"center": _, "radius": _, "coords": _},
    "CheckResult": {"name": _, "passed": _, "samples": _, "detail": _, "elapsed": _},
    "OrthogonalPartition": {"pairs": _, "leftover": None},
    "AngleParam": {"theta": _},
}


def test_every_record_type_has_its_constructor_pinned():
    assert set(CONSTRUCTORS) == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_each_constructor_keeps_its_parameters_in_order(name):
    params = inspect.signature(type(EXAMPLES[name]())).parameters
    assert list(params) == list(CONSTRUCTORS[name])
    assert {k: p.default for k, p in params.items()} == CONSTRUCTORS[name]
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("name", EXAMPLES)
def test_each_constructor_rejects_bad_arguments(name):
    value = EXAMPLES[name]()
    cls, fields, values = type(value), value.__slots__, value._values(value)
    assert cls(*values) == value
    with pytest.raises(TypeError, match="missing 1 required"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})


def test_constructors_convert_and_validate():
    z = BoxComplex(Fraction(1, 2), 3)
    assert type(z.re) is type(q(1)) and type(z.im) is type(q(1))
    assert z == BoxComplex(q(1, 2), q(3))
    assert HullCombination(Fraction(1), 0, 0, 0).t == 1
    assert type(HullCombination(Fraction(1), 0, 0, 0).t) is type(q(1))
    with pytest.raises(InvalidCombination, match=r"\[0, 1\]"):
        HullCombination(1, 2, 0, 0)
    with pytest.raises(InvalidCombination, match="exactly 1"):
        HullCombination(q(1, 2), 0, 0, 0)
    with pytest.raises(ValueError, match="sign must be -1, 0, or \\+1, got 2"):
        MSym(2, 1)
    assert MSym(0, 7).logmag == 0 and MSym(0, 7) == MSym(0)
    assert type(MSym(1, Fraction(1, 3)).logmag) is type(q(1))
    assert AngleParam(q(-1, 2)).theta == q(15, 2)
    assert AngleParam(17) == AngleParam(1)


def test_records_have_no_order():
    with pytest.raises(TypeError):
        Fixed(q(1)) < Fixed(q(2))
