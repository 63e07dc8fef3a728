"""Scalar limit arithmetic: the idempotent sum ⊞, its n-ary closure Ϝ, and smiles.

The binary sum keeps whichever argument has strictly larger absolute value;
exact magnitude ties resolve by the midpoint rule, which over an ordered
field means ``a ⊞ a = a`` and ``a ⊞ (−a) = 0``.  The operation is idempotent
and commutative but only weakly associative, so the n-ary version Ϝ is *not*
a fold: it is computed in one pass from signed occurrence counts (cancel
every exactly sign-symmetric group, then keep the dominant survivor).

All scalars are exact rationals.  Magnitude ties decide results, so floating
point would silently corrupt them; floats are rejected at the boundary.  The
carrier is gmpy2's ``mpq`` when gmpy2 is installed, otherwise ``QFraction``
below.  One rule serves both: ``q`` returns a ``fractions.Fraction`` as it
is; a ``Fraction`` is read in place, and only the returned value is a new
carrier, so every result is the carrier under either one.  The kernel
(``boxplus``, Ϝ, the smiles, the symmetric forms) reads each input as its
canonical pair (``_pair``), compares magnitudes as |n_a|·d_b against
|n_b|·d_a, and returns a carrier input as it is or builds the result from
its pair (``_from_pair``), so the same code serves every carrier.  The
symmetric forms compare the products a_i·x_i as unreduced pairs and build
only the survivor, cross-cancelled into its canonical pair (``_times``); the
complex plane and the square angle maps (``cplane``, ``trig``) run on
canonical pairs the same way.

Ϝ's tally is one kernel that every layer calls: ``_levels`` ({level: net
count} of signed items: int magnitudes, canonical pairs or log-magnitudes)
and ``_nary_ints`` (Ϝ over integers at one common scale).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isfinite
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, EmptyIndexSet, EmptyList, TooLarge

_new = object.__new__
# stores into Fraction's slots that bypass QFraction.__setattr__
_set_n = Fraction._numerator.__set__
_set_d = Fraction._denominator.__set__


def _make(n: int, d: int) -> "QFraction":
    """Carrier from a canonical pair (d > 0, gcd 1); no checks."""
    r = _new(QFraction)
    _set_n(r, n)
    _set_d(r, d)
    return r


def _lift(r):
    """A plain Fraction result of an inherited operation, as the carrier."""
    return _make(r._numerator, r._denominator) if type(r) is Fraction else r


def _add(na: int, da: int, nb: int, db: int) -> "QFraction":
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> "QFraction":
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    r = _new(QFraction)
    _set_n(r, na * nb)
    _set_d(r, db * da)
    return r


def _div(na: int, da: int, nb: int, db: int) -> "QFraction":
    if not nb:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    return _mul(na, da, db, nb) if nb > 0 else _mul(-na, da, db, -nb)


class QFraction(Fraction):
    """The fallback carrier: a ``Fraction`` with integer fast paths.

    It adds no slots.  The constructor, ``==``/``!=``, the orderings,
    ``bool``, unary ``-``/``+``, ``abs``, ``+``, ``-``, ``*``, ``/`` and
    integer ``**`` work on the numerator and denominator directly, dispatch
    on ``type(o) is ...`` rather than the ``numbers`` ABCs, and return a
    ``QFraction``.  Everything else is Fraction's own: ``hash`` (equal to
    ``int``'s and ``Fraction``'s), the ``p/q`` string, ``float``/``int``/
    ``floor``, and membership of ``numbers.Rational``.  Other operand types
    fall back to Fraction's operators.  It has no mpmath conversion hook:
    ``deform.converge`` rounds a rational itself, as under any carrier.
    """

    __slots__ = ()

    # Fraction's slots read directly rather than through its Python-level
    # properties: one attribute read instead of a call in the kernel's inner
    # loops.  The slot descriptors are writable, so ``__setattr__`` and
    # ``__delattr__`` keep the two names read-only, as Fraction's properties
    # are; the carrier's own stores go through ``_set_n``/``_set_d``.
    numerator = Fraction._numerator
    denominator = Fraction._denominator

    def __setattr__(self, name, value):
        if name == "numerator" or name == "denominator":
            raise AttributeError(f"{name!r} of a QFraction is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name == "numerator" or name == "denominator":
            raise AttributeError(f"{name!r} of a QFraction is read-only")
        object.__delattr__(self, name)

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                self = _new(cls)
                _set_n(self, numerator)
                _set_d(self, 1)
                return self
            if type(denominator) is int:
                if not denominator:
                    raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                g = gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                self = _new(cls)
                _set_n(self, numerator // g)
                _set_d(self, denominator // g)
                return self
        return Fraction.__new__(cls, numerator, denominator)

    __hash__ = Fraction.__hash__

    # comparisons (canonical pairs: equal values have equal pairs)

    def __eq__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    def __ne__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator != b._numerator or a._denominator != b._denominator
        if t is int:
            return a._denominator != 1 or a._numerator != b
        eq = Fraction.__eq__(a, b)
        return eq if eq is NotImplemented else not eq

    def __lt__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if t is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if t is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if t is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if t is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)

    def __bool__(a):
        return a._numerator != 0

    # sign and magnitude

    def __neg__(a):
        r = _new(QFraction)
        _set_n(r, -a._numerator)
        _set_d(r, a._denominator)
        return r

    def __pos__(a):
        return a

    def __abs__(a):
        if a._numerator >= 0:
            return a
        r = _new(QFraction)
        _set_n(r, -a._numerator)
        _set_d(r, a._denominator)
        return r

    # arithmetic; the reflected forms serve int and plain Fraction left operands

    def __add__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _make(a._numerator + b * a._denominator, a._denominator)
        return _lift(Fraction.__add__(a, b))

    def __radd__(b, a):
        t = type(a)
        if t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _make(a * b._denominator + b._numerator, b._denominator)
        return _lift(Fraction.__radd__(b, a))

    def __sub__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _make(a._numerator - b * a._denominator, a._denominator)
        return _lift(Fraction.__sub__(a, b))

    def __rsub__(b, a):
        t = type(a)
        if t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _make(a * b._denominator - b._numerator, b._denominator)
        return _lift(Fraction.__rsub__(b, a))

    def __mul__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a._numerator, a._denominator, b, 1)
        return _lift(Fraction.__mul__(a, b))

    def __rmul__(b, a):
        t = type(a)
        if t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a, 1, b._numerator, b._denominator)
        return _lift(Fraction.__rmul__(b, a))

    def __truediv__(a, b):
        t = type(b)
        if t is QFraction or t is Fraction:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _div(a._numerator, a._denominator, b, 1)
        return _lift(Fraction.__truediv__(a, b))

    def __rtruediv__(b, a):
        t = type(a)
        if t is Fraction:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _div(a, 1, b._numerator, b._denominator)
        return _lift(Fraction.__rtruediv__(b, a))

    def __pow__(a, b):
        if type(b) is int:
            if b >= 0:
                return _make(a._numerator ** b, a._denominator ** b)
            return _div(1, 1, a._numerator ** -b, a._denominator ** -b)
        return _lift(Fraction.__pow__(a, b))


try:  # gmpy2's rationals are exact and considerably faster
    from gmpy2 import mpq as _Q
except ImportError:  # fallback carrier
    _Q = QFraction

__all__ = [
    "QFraction",
    "ScalarQ",
    "ScalarLike",
    "ZERO",
    "ONE",
    "q",
    "boxplus",
    "boxminus",
    "xi",
    "residual_index_set",
    "nary_boxplus",
    "smile_minus",
    "smile_plus",
    "lower_form",
    "upper_form",
]

ScalarQ = _Q
ScalarLike = Union[ScalarQ, int, str, Fraction]

ZERO = _Q(0)
ONE = _Q(1)

# what q() returns unchanged: the carrier, and under the fallback any Fraction
# (a caller that keeps its Fractions and calls q on each would otherwise hold
# every scalar twice)
_EXACT = Fraction if _Q is QFraction else _Q
# the carrier from a canonical pair
_from_pair = _make if _Q is QFraction else _Q
# the exponent of a decimal literal, as ``Fraction`` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def q(value: ScalarLike, den: int | None = None) -> ScalarQ:
    """Coerce ``value`` to an exact rational.

    Accepts rationals, ints, ``fractions.Fraction``, and strings: ``"7"``,
    ``"3/4"``, ``"-0.25"``, ``"1e-3"`` (finite decimals convert exactly).
    ``q(p, q)`` builds a quotient directly.  Floats are rejected — ties must
    be exact.  A ``Fraction`` comes back as it is; the operations read it in
    place and return the carrier.  A literal whose exponent has a larger
    magnitude than Python's int/str digit limit (4300 by default) raises
    ``TooLarge`` before any power of ten is built.
    """
    if den is not None:
        return _Q(value, den)
    if type(value) is _Q or isinstance(value, _EXACT):
        return value
    if isinstance(value, int):
        return _Q(value)
    if isinstance(value, str):
        m = _EXPONENT.search(value)
        if m:
            # Python's int/str digit limit (none before 3.10.7 or when set to 0)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            if abs(int(m.group(1))) > limit:
                raise TooLarge(f"decimal exponent limited to {limit} in magnitude")
        return _Q(Fraction(value.strip()))
    if isinstance(value, Fraction):
        return _Q(value)
    raise TypeError(f"no exact rational from {type(value).__name__}: {value!r}")


def _carrier(v: ScalarLike) -> ScalarQ:
    """The carrier for a scalar that is stored: a vector entry or a field of
    a value type.  The kernel operations read their inputs with ``_pair``.

    A carrier is returned as it is, a ``Fraction`` (already in lowest terms)
    is rebuilt from its pair without a gcd, and anything else goes through
    ``q``.
    """
    if type(v) is _Q:
        return v
    if isinstance(v, Fraction):
        return _from_pair(v._numerator, v._denominator)
    return q(v)


def _pair(v: ScalarLike) -> tuple:
    """The canonical ``(numerator, denominator)`` of a scalar input, read in
    place: no carrier is built for a carrier, a ``Fraction`` or an int.

    The carrier is tested first; a ``Fraction`` is read through its slots,
    which every ``Fraction`` has under either carrier, and an int is n/1;
    anything else goes through ``q``, so a float, a bad string or an
    oversized literal raises as it does there.  The hot loops below test
    ``type(v) is _Q`` themselves and call this only for other inputs.
    """
    if type(v) is _Q:
        return v.numerator, v.denominator
    if isinstance(v, Fraction):
        return v._numerator, v._denominator
    if type(v) is int:
        return v, 1
    v = q(v)
    return v.numerator, v.denominator


def _as_exact(value: Union[ScalarLike, float]) -> ScalarQ:
    """``q``, except that a float (a tolerance or a sampling parameter) is the
    binary rational it stores; a float ±inf or nan raises ValueError."""
    if not isinstance(value, float):
        return q(value)
    if not isfinite(value):
        raise ValueError(f"no exact rational from {value!r}")
    return q(*value.as_integer_ratio())


# ---------------------------------------------------------------------------
# binary operation


def boxplus(a: ScalarLike, b: ScalarLike) -> ScalarQ:
    """Binary limit sum: the argument of strictly larger magnitude survives.

    Exact ties: ``a ⊞ a = a`` and ``a ⊞ (−a) = 0`` (the midpoint rule for
    ``|a| = |b|`` has no other cases over an ordered field).
    """
    if type(a) is _Q:
        na = a.numerator
        da = a.denominator
    else:
        na, da = _pair(a)
    if type(b) is _Q:
        nb = b.numerator
        db = b.denominator
    else:
        nb, db = _pair(b)
    # magnitudes |n_a|/d_a against |n_b|/d_b, cross-multiplied over integers
    ma = (na if na >= 0 else -na) * db
    mb = (nb if nb >= 0 else -nb) * da
    if mb > ma:
        return b if type(b) is _Q else _from_pair(nb, db)
    # a survives a larger magnitude, or a tie with b = a (equal magnitudes of
    # canonical pairs have equal denominators, so a = b or a = -b)
    if ma > mb or na == nb:
        return a if type(a) is _Q else _from_pair(na, da)
    return ZERO


def boxminus(a: ScalarLike, b: ScalarLike) -> ScalarQ:
    """Limit difference ``a ⊟ b = a ⊞ (−b)``; zero iff ``a = b``."""
    na, da = _pair(a)
    nb, db = _pair(b)
    ma = (na if na >= 0 else -na) * db
    mb = (nb if nb >= 0 else -nb) * da
    if mb > ma:
        return _from_pair(-nb, db)
    # a survives a larger magnitude, or a tie with -b = a
    if ma > mb or na != nb:
        return a if type(a) is _Q else _from_pair(na, da)
    return ZERO


# ---------------------------------------------------------------------------
# n-ary extension via symmetry counts


def _positions(index_set: Iterable[int], n: int) -> frozenset:
    """The 1-based positions of an index set of a length-n tuple.

    Raises ValueError for a position that is not an int (a bool, float or
    string included) and IndexError for one outside 1..n.
    """
    pos = set()
    for j in index_set:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ValueError(f"a position must be an integer, got {j!r}")
        if not 1 <= j <= n:
            raise IndexError(f"position {j} outside 1..{n}")
        pos.add(j)
    return frozenset(pos)


def _coerce_indexed(
    x: Sequence[ScalarLike],
    index_set: Iterable[int] | None,
) -> tuple[tuple, tuple[int, ...]]:
    """Normalize input to (values, sorted 1-based positions).

    Each value goes through ``q``, which returns a carrier or a ``Fraction``
    as it is, so ``==`` and ``.numerator``/``.denominator`` work on all of
    them.
    """
    vals = tuple(map(q, x))
    if index_set is None:
        return vals, tuple(range(1, len(vals) + 1))
    return vals, tuple(sorted(_positions(index_set, len(vals))))


def xi(
    x: Sequence[ScalarLike],
    alpha: ScalarLike,
    index_set: Iterable[int] | None = None,
) -> int:
    """Occurrence-symmetry count ξ: #{i: x_i = α} − #{i: x_i = −α} over the index set."""
    vals, pos = _coerce_indexed(x, index_set)
    a = _carrier(alpha)
    na = -a
    plus = sum(1 for j in pos if vals[j - 1] == a)
    minus = sum(1 for j in pos if vals[j - 1] == na)
    return plus - minus


def _levels(items: Iterable[tuple]) -> dict:
    """Ϝ's tally: {level: net count} of ``(level, ±1)`` items, without the
    levels that cancel; any ordered, hashable levels, and Ϝ's top is ``max``."""
    net: dict = {}
    for level, sign in items:
        if c := net.get(level, 0) + sign:
            net[level] = c
        else:  # the level was there with count −sign
            del net[level]
    return net


def _nary_ints(ints: Sequence[int]) -> int:
    """Ϝ over integers at one common scale: one pass finds the top magnitude
    and its signed count, which decides unless the top level cancels; only
    then does ``_levels`` tally every magnitude."""
    top = net = 0
    for v in ints:
        m = v if v >= 0 else -v
        if m > top:
            top, net = m, (1 if v > 0 else -1)
        elif m == top:  # zeros count at level 0 until a nonzero resets it
            net += 1 if v > 0 else -1
    if top and not net:
        tally = _levels([(v, 1) if v > 0 else (-v, -1) for v in ints if v])
        top = max(tally, default=0)
        net = tally.get(top, 0)
    return top if net > 0 else -top


def residual_index_set(
    x: Sequence[ScalarLike],
    index_set: Iterable[int] | None = None,
) -> frozenset:
    """Positions whose value group does not cancel: {j: ξ(x_j) ≠ 0} (1-based)."""
    vals, pos = _coerce_indexed(x, index_set)
    keyed = {j: ((n, v.denominator), 1) if n > 0 else ((-n, v.denominator), -1)
             for j in pos if (n := (v := vals[j - 1]).numerator)}
    net = _levels(keyed.values())
    return frozenset(j for j, (level, _) in keyed.items() if level in net)


def _nary(vals: Sequence[ScalarLike]) -> ScalarQ:
    """Ϝ over a sequence of scalar inputs (hot path, no bookkeeping).

    Magnitudes are compared as |n_a|·d_b against |n_b|·d_a over integers.
    One pass finds the top magnitude and its signed count; that decides the
    result unless the top level cancels exactly, and only then does
    ``_levels`` tally the canonical pairs (never one common scale).
    """
    top = None
    top_n, top_m, top_d, top_net = 0, 0, 1, 0
    for v in vals:
        if type(v) is _Q:
            n = v.numerator
            d = v.denominator
        else:
            n, d = _pair(v)
        if n:
            m = n if n > 0 else -n
            x = m * top_d
            y = top_m * d
            if x > y:
                top, top_n, top_m, top_d, top_net = v, n, m, d, (1 if n > 0 else -1)
            elif x == y:
                top_net += 1 if n > 0 else -1
    if top_net:
        if (top_net > 0) == (top_n > 0):
            return top if type(top) is _Q else _from_pair(top_n, top_d)
        return _from_pair(-top_n, top_d)
    if not top_m:
        return ZERO
    net = _levels([((n, d), 1) if n > 0 else ((-n, d), -1) for n, d in map(_pair, vals) if n])
    top_n, top_d = 0, 1
    for n, d in net:
        if n * top_d > top_n * d:
            top_n, top_d = n, d
    return _from_pair(top_n if net[top_n, top_d] > 0 else -top_n, top_d) if net else ZERO


def nary_boxplus(
    x: Sequence[ScalarLike],
    index_set: Iterable[int] | None = None,
) -> ScalarQ:
    """n-ary limit sum Ϝ: cancel sign-symmetric groups, keep the dominant survivor.

    Equals ``boxplus`` on pairs, but is *not* a fold of it — the whole
    multiset is consumed at once.  Raises :class:`EmptyIndexSet` when there
    is nothing to evaluate.
    """
    if index_set is None:
        vals = tuple(x)
    else:
        values, pos = _coerce_indexed(x, index_set)
        vals = [values[j - 1] for j in pos]
    if not vals:
        raise EmptyIndexSet("n-ary limit sum over an empty index set")
    return _nary(vals)


# ---------------------------------------------------------------------------
# smile operations (associative regularizations) and symmetric forms


def _smile(values: Sequence[ScalarLike], lower: bool) -> ScalarQ:
    """The value of maximal magnitude; on a tie ±m, ``lower`` picks the sign."""
    best, best_n, best_m, best_d = None, 0, 0, 1
    for v in values:
        if type(v) is _Q:
            n = v.numerator
            d = v.denominator
        else:
            n, d = _pair(v)
        m = n if n >= 0 else -n
        x = m * best_d
        y = best_m * d
        if x > y or (x == y and (n < 0 if lower else n > 0)) or best is None:
            best, best_n, best_m, best_d = v, n, m, d
    if best is None:
        raise EmptyList("smile of an empty list")
    if not best_m:
        return ZERO
    return best if type(best) is _Q else _from_pair(best_n, best_d)


def smile_minus(values: Sequence[ScalarLike]) -> ScalarQ:
    """Lower smile ⌣⁻: the value of maximal magnitude, minimum on ties.

    Associative, so the n-ary value is order-independent.  The all-zero
    list returns 0 (the unique consistent extension).
    """
    return _smile(values, True)


def smile_plus(values: Sequence[ScalarLike]) -> ScalarQ:
    """Upper smile ⌣⁺: the value of maximal magnitude, maximum on ties."""
    return _smile(values, False)


def _times(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """The canonical pair of (na/da)·(nb/db) for canonical pairs: each
    numerator is cross-cancelled against the other denominator first."""
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return (na // g1) * (nb // g2), (da // g2) * (db // g1)


def _form(a: Sequence[ScalarLike], x: Sequence[ScalarLike], lower: bool) -> ScalarQ:
    """⌣ over the products a_i·x_i, compared as unreduced pairs; only the
    survivor is built."""
    av = [(v.numerator, v.denominator) if type(v) is _Q else _pair(v) for v in a]
    xv = [(v.numerator, v.denominator) if type(v) is _Q else _pair(v) for v in x]
    if len(av) != len(xv):
        raise DimensionMismatch(f"coefficients dim {len(av)} vs vector dim {len(xv)}")
    best, best_m, best_d = -1, 0, 1
    for i, ((na, da), (nb, db)) in enumerate(zip(av, xv)):
        n = na * nb
        d = da * db
        m = n if n >= 0 else -n
        u = m * best_d
        w = best_m * d
        if u > w or (u == w and (n < 0 if lower else n > 0)) or best < 0:
            best, best_m, best_d = i, m, d
    if best < 0:
        raise EmptyList("smile of an empty list")
    if not best_m:
        return ZERO
    return _from_pair(*_times(*av[best], *xv[best]))


def lower_form(a: Sequence[ScalarLike], x: Sequence[ScalarLike]) -> ScalarQ:
    """Lower symmetric form: ⌣⁻ over the products a_i·x_i."""
    return _form(a, x, True)


def upper_form(a: Sequence[ScalarLike], x: Sequence[ScalarLike]) -> ScalarQ:
    """Upper symmetric form: ⌣⁺ over the products a_i·x_i."""
    return _form(a, x, False)
