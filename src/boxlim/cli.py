"""Command-line front end.

One subcommand per invocation: evaluate scalar/vector operations, describe
balls, test hull and line membership, run the square trigonometry and
complex/max-plus arithmetic, drive the finite-p convergence oracle, run the
verification suites, and render the planar figures as SVG.

Exit codes: 0 success, 1 domain error (a single JSON object
``{"error": code, "detail": text}`` on stderr), 2 usage error.  Identical
argv produce byte-identical output.  Rationals print as ``p/q`` (integers
plainly); vectors are comma-separated rational literals, point lists are
semicolon-separated; ``--file data.json`` supplies the same inputs as JSON
arrays of rational strings.  A ``--format`` the result has no form in is a
usage error; an oracle error too large for a float prints as JSON ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from numbers import Rational
from typing import NamedTuple, Sequence

from .errors import (
    MAX_FIGURE_P,
    MAX_P,
    DimensionMismatch,
    LimitAlgebraError,
    NotParallel,
    TooLarge,
)
from .linalg import det_infty, inner_infty, mat, norm_infty, vec
from .scalars import (
    ScalarQ,
    boxminus,
    boxplus,
    nary_boxplus,
    q,
    smile_minus,
    smile_plus,
)

# Only the modules above load with the parser, and a call builds the parser
# of its own subcommand alone (``build_parser``); each handler imports its own
# layer.  No handler builds an mpf, so none loads mpmath.

__all__ = ["main"]


# One hull point per sample, so the count is capped; the library caps every
# p at MAX_P.
MAX_HULL_SAMPLES = 8192

# The option choices, without importing suites, svgfig or deform; a test
# pins them to suites.SUITES, svgfig.FIGURES and deform._ORACLE.
SUITE_NAMES = (
    "worked-values", "scalar-laws", "convergence", "exact-cancellation",
    "ultrametric", "pythagoras", "square-trig", "complex-product", "lines",
    "maxplus-bridge",
)
FIGURE_NAMES = ("hull", "ball", "line", "unit-square", "pcos")
_ORACLE_OPS = ("sum", "inner", "norm", "dist", "det", "cos", "sin")


# ---------------------------------------------------------------------------
# input and output: main reads --file once, and renders and writes each
# handler's result once


def _points(text: str) -> list:
    return [vec(part) for part in text.split(";")]


def _two(items: list, expected: str) -> list:
    """``items`` if it holds two values; else ``ValueError`` naming the input
    that was expected."""
    if len(items) != 2:
        raise ValueError(f"expected {expected}")
    return items


def _printable(r: ScalarQ) -> ScalarQ:
    """``r``, or ``TooLarge`` if it has more digits than Python's int/str
    limit lets it print; every exact value the CLI prints is checked here."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = max(abs(r.numerator), r.denominator)
    # below 3·limit bits an integer has fewer than limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise TooLarge(f"result has more than {limit} digits, the int/str digit limit")
    return r


def _sj(v) -> int | str:
    """JSON encoding of an exact rational: plain integer or "p/q" string."""
    r = _printable(q(v))
    if r.denominator == 1:
        return int(r)
    return f"{r.numerator}/{r.denominator}"


def _vj(v: Sequence) -> list:
    return [_sj(c) for c in v]


def _dump(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), allow_nan=False)


class _Doc(NamedTuple):
    """Output a handler renders itself: an SVG figure, the hull sample table
    or a suite report, in ``format``, with the exit status it implies."""

    format: str
    text: str
    status: int = 0


def _first(args: argparse.Namespace, names: Sequence[str], default=None):
    """The first of the flags ``names`` that is set, in a handler's order."""
    return next((name for name in names if getattr(args, name) is not None), default)


def _forms(args: argparse.Namespace) -> tuple | None:
    """The formats the handler's result will have, read from the flags alone,
    or None when it has every ``--format`` choice of its subcommand.

    ``main`` checks ``--format`` against this before the handler runs, so a
    format the result has no form in costs no work.  A call that chooses no
    branch keeps every format and fails in its handler."""
    command = args.command
    if command == "hull" and args.contains is not None:
        return ("json",)
    if command == "line":
        return ("svg",) if args.action == "plot" else ("json",)
    if command == "trig":
        branch = _first(args, ("pcos", "psin", "angle_of", "point_of"), args.op)
        return ("json",) if branch in ("point_of", "pythagoras") else None
    if command == "complex":
        branch = _first(args, ("times", "plus", "mod", "conj", "inv", "polar", "from_polar"))
        return None if branch in (None, "mod") else ("json",)
    return None


def _render(result, fmt: str | None) -> str:
    """``result`` as text in ``fmt``, which ``_forms`` has already admitted.

    With no ``--format`` a result takes its own form: a document as it is,
    anything else as JSON."""
    if isinstance(result, _Doc):
        return result.text
    if isinstance(result, Rational):
        if fmt == "csv":
            return str(_sj(result))
        result = _sj(result)
    return _dump(result)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _apply_file(args: argparse.Namespace) -> None:
    """Fill missing vector/matrix flags from a JSON file of rational strings."""
    if not getattr(args, "file", None):
        return
    with open(args.file, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--file must hold a JSON object of named inputs")
    for key, value in data.items():
        name = key.replace("-", "_")
        # these options default to None too, but they are not inputs
        if name in ("p_grid", "tol", "op", "format", "out", "file"):
            continue
        if getattr(args, name, None) is None and hasattr(args, name):
            if isinstance(value, list):
                if value and isinstance(value[0], list):
                    setattr(args, name, ";".join(",".join(map(str, r)) for r in value))
                else:
                    setattr(args, name, ",".join(map(str, value)))
            else:
                setattr(args, name, str(value))


def _need(args: argparse.Namespace, what: str, *names: str) -> list:
    """The values of the flags ``names``; ``ValueError`` if one is missing."""
    values = [getattr(args, name) for name in names]
    if any(v is None for v in values):
        flags = [f"--{name}" for name in names]
        listed = flags[0] if len(flags) == 1 else f"{', '.join(flags[:-1])} and {flags[-1]}"
        raise ValueError(f"{what} needs {listed}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its result and writes nothing


def _cmd_eval(args):
    if args.nary is not None:
        result = nary_boxplus(vec(args.nary))
    elif args.boxplus is not None:
        result = boxplus(*_two(vec(args.boxplus), "--boxplus 'a,b'"))
    elif args.boxminus is not None:
        result = boxminus(*_two(vec(args.boxminus), "--boxminus 'a,b'"))
    elif args.smile_minus is not None:
        result = smile_minus(vec(args.smile_minus))
    elif args.smile_plus is not None:
        result = smile_plus(vec(args.smile_plus))
    elif args.inner is not None:
        result = inner_infty(*_two(_points(args.inner), "--inner 'x;y'"))
    elif args.norm is not None:
        result = norm_infty(vec(args.norm))
    else:
        raise ValueError("choose one operation for eval")
    return result


def _cmd_det(args):
    if args.matrix is None:
        raise ValueError("det needs --matrix or --file")
    return det_infty(mat(args.matrix.split(";")))


def _cmd_dist(args):
    from .metric import dist_boxplus

    x, y = _need(args, "dist", "x", "y")
    return dist_boxplus(vec(x), vec(y))


def _cmd_ball(args):
    from .metric import Fixed, ball_contains, ball_describe

    center, radius = _need(args, "ball", "center", "radius")
    if args.format == "svg":
        from .svgfig import render_figure

        return _Doc("svg", render_figure("ball", center=center, radius=radius))
    desc = ball_describe(vec(center), q(radius))
    coords = [
        {"kind": "fixed", "value": _sj(t.value)}
        if isinstance(t, Fixed)
        else {"kind": "free", "bound": _sj(t.bound)}
        for t in desc.coords
    ]
    payload = {
        "center": _vj(desc.center),
        "radius": _sj(desc.radius),
        "coords": coords,
    }
    if args.z is not None:
        payload["contains"] = ball_contains(desc, vec(args.z))
    return payload


def _cmd_hull(args):
    from .hull import HullCombination, co_contains, co_point

    x, y = (vec(v) for v in _need(args, "hull", "x", "y"))
    if args.contains is not None:
        z = vec(args.contains)
        return {"contains": co_contains(x, y, z)}
    if args.format == "svg":
        if len(x) != 2:
            raise DimensionMismatch("hull figures need dimension-2 inputs")
        from .svgfig import render_figure

        return _Doc("svg", render_figure("hull", x=args.x, y=args.y, p=args.p))
    n = args.samples
    if n < 1:
        raise ValueError(f"hull samples must be at least 1, got {n}")
    if n > MAX_HULL_SAMPLES:
        raise TooLarge(f"hull samples limited to {MAX_HULL_SAMPLES}, got {n}")
    rows = []
    for i in range(n):
        t = q(i, n - 1) if n > 1 else q(1)
        z = co_point(x, y, HullCombination(t, 0, 1, 0))
        rows.append((t, z))
    if args.format == "csv":
        header = "t," + ",".join(f"z{i + 1}" for i in range(len(x)))
        lines = [",".join(str(_sj(c)) for c in (t, *z)) for t, z in rows]
        return _Doc("csv", "\n".join([header, *lines]))
    return [{"t": _sj(t), "point": _vj(z)} for t, z in rows]


def _cmd_line(args):
    from .lines import (
        half_lines,
        hyperplane_form,
        line2d_form,
        line_contains_2d,
        line_contains_nd,
        parallel_ratio,
    )

    action = args.action
    if action == "equation":
        if args.points is not None:
            pts = _points(args.points)
        elif args.x is not None and args.y is not None:
            pts = [vec(args.x), vec(args.y)]
        else:
            raise ValueError("line equation needs --points or --x/--y")
        form = hyperplane_form(pts) if len(pts) != 2 else line2d_form(*pts)
        return {
            "coeffs": _vj(form.coeffs),
            "constant": _sj(form.constant),
            "orientation": form.orientation,
        }
    if action == "contains":
        x, y, z = (vec(v) for v in _need(args, "line contains", "x", "y", "z"))
        member = line_contains_nd(x, y, z)
        payload = {
            "contains": bool(member),
            "certificate": _vj(member.certificate) if member.certificate else None,
        }
        if len(x) == 2:
            payload["form_check"] = line_contains_2d(line2d_form(x, y), z)
        return payload
    if action == "parallel":
        a, b, c, d = (vec(v) for v in _need(args, "line parallel", "a", "b", "c", "d"))
        try:
            ratio = parallel_ratio(a, b, c, d)
        except NotParallel:
            return {"parallel": False}
        return {"parallel": True, "ratio": _sj(ratio)}
    if action == "halflines":
        x, y = _need(args, "line halflines", "x", "y")
        return [
            {
                "offset": _vj(h.offset),
                "direction": _vj(h.direction),
                "t_min": _sj(h.t_min),
                "sense": h.sense,
            }
            for h in half_lines(vec(x), vec(y))
        ]
    # plot
    x, y = _need(args, "line plot", "x", "y")
    from .svgfig import render_figure

    return _Doc("svg", render_figure("line", x=x, y=y, p=args.p))


def _cmd_trig(args):
    from .trig import (
        alpha,
        alpha_inv,
        cos_infty,
        inner3_limit,
        pcos,
        psin,
        pythagoras_check,
        sin_infty,
    )

    if args.pcos is not None:
        return pcos(q(args.pcos))
    if args.psin is not None:
        return psin(q(args.psin))
    if args.angle_of is not None:
        return alpha(vec(args.angle_of)).theta
    if args.point_of is not None:
        return _vj(alpha_inv(q(args.point_of)))
    if args.op in ("cos", "sin"):
        x, y = _need(args, f"trig --op {args.op}", "x", "y")
        fn = cos_infty if args.op == "cos" else sin_infty
        return fn(vec(x), vec(y))
    if args.op is None:
        raise ValueError("choose a trig operation")
    x, y, z = (vec(v) for v in _need(args, f"trig --op {args.op}", "x", "y", "z"))
    if args.op == "inner3":
        return inner3_limit(x, y, z)
    return {"pythagoras": pythagoras_check(x, y, z, p_grid=args.p_grid)}


def _cmd_complex(args):
    from .cplane import cconj, cinv, cmod_infty, cplus, cplx, ctimes, from_polar, polar

    def number(text: str):
        parts = vec(text)
        if len(parts) > 2:
            raise ValueError("expected a complex number 're,im'")
        return cplx(*parts)

    def pair(text: str):
        a, b = _two(text.split(";"), "two complex numbers 'a,b;c,d'")
        return number(a), number(b)

    def cj(z) -> dict:
        return {"re": _sj(z.re), "im": _sj(z.im)}

    if args.times is not None:
        return cj(ctimes(*pair(args.times)))
    if args.plus is not None:
        return cj(cplus(*pair(args.plus)))
    if args.mod is not None:
        return cmod_infty(number(args.mod))
    if args.conj is not None:
        return cj(cconj(number(args.conj)))
    if args.inv is not None:
        return cj(cinv(number(args.inv)))
    if args.polar is not None:
        m, theta = polar(number(args.polar))
        return {"modulus": _sj(m), "theta": _sj(theta.theta)}
    if args.from_polar is not None:
        m, theta = _two(args.from_polar.split(";"), "--from-polar 'modulus;theta'")
        return cj(from_polar(q(m), q(theta)))
    raise ValueError("choose a complex operation")


def _cmd_maxplus(args):
    from .maxplus import (
        mp_boxplus,
        mp_dist,
        mp_format,
        mp_inv,
        mp_nary,
        mp_neg,
        mp_otimes,
        mp_parse,
    )

    def elems(text: str) -> list:
        return [mp_parse(part.strip()) for part in text.split(",")]

    if args.add is not None:
        z = mp_boxplus(*_two(elems(args.add), "--add 'z,w'"))
    elif args.mul is not None:
        z = mp_otimes(*_two(elems(args.mul), "--mul 'z,w'"))
    elif args.neg is not None:
        z = mp_neg(mp_parse(args.neg))
    elif args.inv is not None:
        z = mp_inv(mp_parse(args.inv))
    elif args.nary is not None:
        z = mp_nary(elems(args.nary))
    elif args.dist is not None:
        zs, ws = _two(args.dist.split(";"), "--dist 'z1,z2;w1,w2'")
        z = mp_dist(elems(zs), elems(ws))
    else:
        raise ValueError("choose a max-plus operation")
    _printable(z.logmag)
    return mp_format(z)


def _cmd_oracle(args):
    # the raw kernels of the p_* and converge's error loop: no mpf is built
    from .deform import _oracle

    op = args.op
    names = {"sum": ("values",), "norm": ("x",), "det": ("matrix",)}.get(op, ("x", "y"))
    texts = _need(args, f"oracle --op {op}", *names)
    inputs = tuple(mat(t.split(";")) if op == "det" else vec(t) for t in texts)
    report = _oracle(op, inputs, args.p_grid, args.tol).as_dict()
    # an error too large for a float is inf, which JSON does not have
    report["error"] = [e if math.isfinite(e) else None for e in report["error"]]
    return report


def _cmd_suite(args):
    from .suites import run_suite

    names = list(SUITE_NAMES) if args.name == "all" else [args.name]
    results = [run_suite(name, quick=args.quick, seed=args.seed) for name in names]
    status = 0 if all(results) else 1
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "samples": r.samples,
                "detail": r.detail,
            }
            for r in results
        ]
        return _Doc("json", _dump(payload), status)
    text = "\n".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    )
    return _Doc("text", text, status)


def _cmd_plot(args):
    from .svgfig import render_figure

    if args.figure in ("hull", "line"):
        x, y = _need(args, f"plot {args.figure}", "x", "y")
        kwargs = {"x": x, "y": y, "p": args.p}
    elif args.figure == "ball":
        center, radius = _need(args, "plot ball", "center", "radius")
        kwargs = {"center": center, "radius": radius}
    elif args.figure == "unit-square":
        kwargs = {"theta": args.theta}
    else:
        kwargs = {"lo": q(args.lo), "hi": q(args.hi)}
    return _Doc("svg", render_figure(args.figure, **kwargs))


# ---------------------------------------------------------------------------
# parser assembly


def _p_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(","))
    except ValueError:
        grid = ()
    if not grid or any(p < 0 for p in grid):
        raise argparse.ArgumentTypeError("p-grid must be nonnegative integers")
    return grid


def _add_common(sp: argparse.ArgumentParser, formats=("json", "csv", "svg"),
                inputs: bool = True) -> None:
    sp.add_argument("--format", choices=formats,
                    help="output format (default: the result's own, "
                    "JSON unless it is a figure or a suite report)")
    sp.add_argument("--out", metavar="FILE", help="write output to FILE")
    if inputs:
        sp.add_argument("--file", metavar="DATA.json",
                        help="read missing vector/matrix inputs from a JSON object")


def _args_eval(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--nary", metavar="CSV", help="n-ary limit sum of a list")
    sp.add_argument("--boxplus", metavar="A,B", help="binary limit sum")
    sp.add_argument("--boxminus", metavar="A,B", help="limit difference")
    sp.add_argument("--smile-minus", metavar="CSV", help="lower smile of a list")
    sp.add_argument("--smile-plus", metavar="CSV", help="upper smile of a list")
    sp.add_argument("--inner", metavar="X;Y", help="limit inner product")
    sp.add_argument("--norm", metavar="CSV", help="limit norm")
    _add_common(sp, formats=("json", "csv"))


def _args_det(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--matrix", metavar="R1;R2;...", help="rows, comma-separated")
    _add_common(sp, formats=("json", "csv"))


def _args_dist(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    _add_common(sp, formats=("json", "csv"))


def _args_ball(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--center", metavar="CSV")
    sp.add_argument("--radius", metavar="Q")
    sp.add_argument("--z", metavar="CSV", help="also test membership of z")
    _add_common(sp, formats=("json", "svg"))


def _args_hull(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    sp.add_argument("--contains", metavar="CSV", help="test membership of a point")
    sp.add_argument("--samples", type=int, default=512,
                    help="sample count (default %(default)s, at most "
                    f"{MAX_HULL_SAMPLES})")
    sp.add_argument("--p", type=int, default=6,
                    help="deformation level for SVG (default %(default)s, at most "
                    f"{MAX_FIGURE_P})")
    _add_common(sp)


def _args_line(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("action",
                    choices=("equation", "contains", "parallel", "halflines",
                             "plot"))
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    sp.add_argument("--z", metavar="CSV")
    sp.add_argument("--points", metavar="P1;P2;...", help="hyperplane points")
    sp.add_argument("--a", metavar="CSV")
    sp.add_argument("--b", metavar="CSV")
    sp.add_argument("--c", metavar="CSV")
    sp.add_argument("--d", metavar="CSV")
    sp.add_argument("--p", type=int, default=6,
                    help="deformation level for SVG (default %(default)s, at most "
                    f"{MAX_FIGURE_P})")
    _add_common(sp)


def _args_trig(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pcos", metavar="THETA")
    sp.add_argument("--psin", metavar="THETA")
    sp.add_argument("--angle-of", metavar="CSV", dest="angle_of",
                    help="angle of a unit-square boundary point")
    sp.add_argument("--point-of", metavar="THETA", dest="point_of",
                    help="boundary point of an angle")
    sp.add_argument("--op", choices=("cos", "sin", "inner3", "pythagoras"))
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    sp.add_argument("--z", metavar="CSV")
    sp.add_argument("--p-grid", type=_p_grid, dest="p_grid", metavar="CSV",
                    help=f"deformation levels, each at most {MAX_P}")
    _add_common(sp, formats=("json", "csv"))


def _args_complex(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--times", metavar="A,B;C,D")
    sp.add_argument("--plus", metavar="A,B;C,D")
    sp.add_argument("--mod", metavar="A,B")
    sp.add_argument("--conj", metavar="A,B")
    sp.add_argument("--inv", metavar="A,B")
    sp.add_argument("--polar", metavar="A,B")
    sp.add_argument("--from-polar", metavar="M;THETA", dest="from_polar")
    _add_common(sp, formats=("json", "csv"))


def _args_maxplus(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--add", metavar="Z,W")
    sp.add_argument("--mul", metavar="Z,W")
    sp.add_argument("--neg", metavar="Z")
    sp.add_argument("--inv", metavar="Z")
    sp.add_argument("--nary", metavar="Z1,Z2,...")
    sp.add_argument("--dist", metavar="Z1,Z2;W1,W2")
    _add_common(sp, formats=("json",))


def _args_oracle(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--op", required=True, choices=_ORACLE_OPS)
    sp.add_argument("--values", metavar="CSV")
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    sp.add_argument("--matrix", metavar="R1;R2;...")
    sp.add_argument("--p-grid", type=_p_grid, dest="p_grid", metavar="CSV",
                    help=f"deformation levels, each at most {MAX_P}")
    sp.add_argument("--tol", type=float)
    _add_common(sp, formats=("json",))


def _args_suite(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("name", choices=SUITE_NAMES + ("all",))
    sp.add_argument("--seed", type=int, help="override the sampling seed")
    sp.add_argument("--quick", action="store_true",
                    help="reduced sample sizes for a fast smoke run")
    _add_common(sp, formats=("text", "json"), inputs=False)


def _args_plot(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--figure", required=True, choices=FIGURE_NAMES)
    sp.add_argument("--x", metavar="CSV")
    sp.add_argument("--y", metavar="CSV")
    sp.add_argument("--center", metavar="CSV")
    sp.add_argument("--radius", metavar="Q")
    sp.add_argument("--theta", metavar="Q")
    sp.add_argument("--lo", default="-4", metavar="Q")
    sp.add_argument("--hi", default="4", metavar="Q")
    sp.add_argument("--p", type=int, default=6,
                    help="deformation level (default %(default)s, at most "
                    f"{MAX_FIGURE_P})")
    _add_common(sp, formats=("svg",))


# name -> (help, the function that adds its arguments, handler), in the
# order that the help and the usage line list them
_COMMANDS = {
    "eval": ("scalar limit operations", _args_eval, _cmd_eval),
    "det": ("limit determinant", _args_det, _cmd_det),
    "dist": ("limit ultrametric distance", _args_dist, _cmd_dist),
    "ball": ("closed-ball descriptor", _args_ball, _cmd_ball),
    "hull": ("two-point hull: sample, test, draw", _args_hull, _cmd_hull),
    "line": ("limit lines and hyperplanes", _args_line, _cmd_line),
    "trig": ("square trigonometry", _args_trig, _cmd_trig),
    "complex": ("limit complex arithmetic", _args_complex, _cmd_complex),
    "maxplus": ("symmetrized max-plus arithmetic "
                "(literals: '-inf', '3/2', '3/2+ipi')", _args_maxplus, _cmd_maxplus),
    "oracle": ("finite-p convergence report", _args_oracle, _cmd_oracle),
    "suite": ("verification suites", _args_suite, _cmd_suite),
    "plot": ("render a figure as SVG", _args_plot, _cmd_plot),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone if it names one.

    A subcommand's argv parses to the same namespace, and writes the same
    help and errors, under either parser.  The parser of one subcommand
    names the full choice list as its metavar, so the top-level usage line
    that its errors print stays the same.  The full parser sets none: argparse
    names the action by its metavar in the "required" and "invalid choice"
    errors, which only the full parser writes.
    """
    chosen = [command] if command in _COMMANDS else list(_COMMANDS)
    parser = argparse.ArgumentParser(
        prog="boxlim",
        description="Exact limit algebra: idempotent sums, ultrametric "
        "geometry, square trigonometry, and their finite-p oracles.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(chosen) == 1 else None,
    )
    for name in chosen:
        text, add_arguments, handler = _COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        add_arguments(sp)
        sp.set_defaults(handler=handler)
    return parser


# Values such as "-3,-2,3" or "-inf" start with a dash; glue them to their
# flag so argparse does not mistake them for options.
_NEG_VALUE = re.compile(r"^-(\d|\.\d|inf)")


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and _NEG_VALUE.match(nxt)
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        _apply_file(args)
        forms = _forms(args)
        if args.format is not None and forms is not None and args.format not in forms:
            parser.error(f"argument --format: this {args.command} result has "
                         f"no {args.format} form")
        result = args.handler(args)
        _emit(_render(result, args.format), args.out)
    except LimitAlgebraError as exc:
        sys.stderr.write(_dump({"error": exc.code, "detail": exc.detail}) + "\n")
        return 1
    except (ValueError, ZeroDivisionError, OverflowError, KeyError, OSError) as exc:
        sys.stderr.write(
            _dump({"error": type(exc).__name__, "detail": str(exc)}) + "\n"
        )
        return 1
    return result.status if isinstance(result, _Doc) else 0


if __name__ == "__main__":
    raise SystemExit(main())
