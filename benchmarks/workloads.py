"""The four workloads: carrier conversion, one query, and its output check.

A query calls the library only through ``lib``, a namespace holding either
the library's own functions (untraced runs) or span-recording wrappers of
them (traced runs), so the untraced path times the library's functions
with nothing in between.  Checks run outside the timed interval and compare
against the benchmark's own reference arithmetic where one exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import inputs

HERE = Path(__file__).resolve().parent

# library function -> span name; several functions may share one layer span
SPANS = {
    "boxplus": "scalars.boxplus",
    "nary_boxplus": "scalars.nary_boxplus",
    "smile_minus": "scalars.smile",
    "smile_plus": "scalars.smile",
    "lower_form": "scalars.forms",
    "upper_form": "scalars.forms",
    "dist_boxplus": "metric.dist_boxplus",
    "ball_describe": "metric.ball",
    "ball_contains": "metric.ball",
    "ctimes": "cplane",
    "cconj": "cplane",
    "cmod_infty": "cplane",
    "polar": "cplane",
    "from_polar": "cplane",
    "on_unit_square": "cplane",
    "pcos": "trig",
    "psin": "trig",
    "alpha": "trig",
    "alpha_inv": "trig",
    "mp_boxplus": "maxplus.ops",
    "mp_otimes": "maxplus.ops",
    "mp_neg": "maxplus.ops",
    "psi_exp": "maxplus.ops",
    "mp_hull_contains": "maxplus.mp_hull_contains",
    "co_contains": "hull.co_contains",
    "line_contains_nd": "lines.line_contains_nd",
    "converge": "deform.converge",
    "p_sum": "deform.p_eval.sum",
    "p_inner": "deform.p_eval.inner",
    "p_norm": "deform.p_eval.norm",
    "p_dist": "deform.p_eval.dist",
    "p_det": "deform.p_eval.det",
    "p_cos": "deform.p_eval.cos",
    "p_sin": "deform.p_eval.sin",
}

# spans whose result also records an outcome (found / converged)
OUTCOMES = {
    "hull.co_contains": bool,
    "lines.line_contains_nd": bool,
    "deform.converge": lambda report: report.converged,
}

# functions used only as exact limits inside oracle queries (no own span)
RAW = ("inner_infty", "norm_infty", "cos_infty", "sin_infty", "line_point")


def library(boxlim) -> SimpleNamespace:
    """Every library function the workloads call, untraced."""
    from boxlim import maxplus

    fns = {}
    for name in list(SPANS) + list(RAW) + ["det_infty"]:
        fns[name] = getattr(boxlim, name, None) or getattr(maxplus, name)
    fns["limit"] = lambda fn, *args: fn(*args)
    return SimpleNamespace(**fns)


def traced_library(raw: SimpleNamespace, tracer) -> SimpleNamespace:
    """The same namespace with every spanned function recording a span."""
    lib = SimpleNamespace(**vars(raw))
    for name, span in SPANS.items():
        setattr(lib, name, tracer.wrap(span, getattr(raw, name), OUTCOMES.get(span)))
    lib.det_infty = tracer.wrap(
        lambda args: f"linalg.det_infty.n{len(args[0])}", raw.det_infty
    )
    lib.limit = tracer.wrap("deform.limit", raw.limit)
    return lib


def F(v) -> Fraction:
    """A library scalar as a Fraction, whatever the carrier."""
    return Fraction(int(v.numerator), int(v.denominator))


# ---------------------------------------------------------------------------
# laws


def laws_convert(boxlim, pool: list) -> list:
    q, cplx, msym = boxlim.q, boxlim.cplx, boxlim.msym

    def vq(v):
        return tuple(q(c) for c in v)

    out = []
    for (a, b, c, x, y, z, radius, probe, cz, cw, turns, theta, period,
         boundary, mps) in pool:
        out.append((
            q(a), q(b), q(c), vq(x), vq(y), vq(z), q(radius), vq(probe),
            cplx(*vq(cz)), cplx(*vq(cw)), vq(turns), q(theta), period,
            vq(boundary), tuple(msym(s, q(lm)) for s, lm in mps),
        ))
    return out


def laws_query(L, inp):
    (a, b, c, x, y, z, radius, probe, cz, cw, turns, theta, period,
     boundary, (mz, mw, mv)) = inp
    ab = L.boxplus(a, b)
    bc = L.boxplus(b, c)
    ac = L.boxplus(a, c)
    a_bc = L.boxplus(a, bc)
    sm_ab = L.smile_minus((a, b))
    sp_ab = L.smile_plus((a, b))
    scalar = (
        ab, L.boxplus(a, a), L.boxplus(b, a), L.boxplus(a, -a), bc, ac,
        L.boxplus(ab, c), a_bc, L.nary_boxplus((a, b, c)),
        L.boxplus(c * a, c * b),
        L.nary_boxplus((a_bc, L.boxplus(b, ac), L.boxplus(c, ab))),
        (a_bc, L.boxplus(b, ac), L.boxplus(c, ab)),
        sm_ab, L.smile_minus((sm_ab, c)), L.smile_minus((a, b, c)),
        sp_ab, L.smile_plus((sp_ab, c)), L.smile_plus((a, b, c)),
        L.nary_boxplus((a * b, b * c, c * a)),
        L.lower_form((a, b, c), (b, c, a)), L.upper_form((a, b, c), (b, c, a)),
    )
    metric = (
        L.dist_boxplus(x, y), L.dist_boxplus(y, x), L.dist_boxplus(x, z),
        L.dist_boxplus(y, z), L.dist_boxplus(x, x),
        L.ball_contains(L.ball_describe(x, radius), probe),
        L.dist_boxplus(x, probe),
    )
    zw = L.ctimes(cz, cw)
    mod_z = L.cmod_infty(cz)
    u, v = L.from_polar(1, turns[0]), L.from_polar(1, turns[1])
    plane = (
        L.cmod_infty(zw), mod_z, L.cmod_infty(cw), L.ctimes(cz, L.cconj(cz)),
        L.from_polar(*L.polar(cz)) if mod_z else None,
        L.on_unit_square(u), L.on_unit_square(L.ctimes(u, v)),
    )
    trig = (
        L.pcos(theta), L.psin(theta),
        L.pcos(theta + 8 * period), L.psin(theta + 8 * period),
        L.alpha(L.alpha_inv(theta)), L.alpha_inv(L.alpha(boundary)),
    )
    zxw = L.mp_otimes(mz, mw)
    zpw = L.mp_boxplus(mz, mw)
    maxplus = (
        zpw, L.mp_boxplus(mw, mz), zxw, L.mp_otimes(mw, mz),
        L.mp_otimes(mz, L.mp_boxplus(mw, mv)),
        L.mp_boxplus(zxw, L.mp_otimes(mz, mv)),
        L.mp_otimes(zxw, mv), L.mp_otimes(mz, L.mp_otimes(mw, mv)),
        L.mp_boxplus(mz, L.mp_neg(mz)), L.psi_exp(zpw),
    )
    return scalar, metric, plane, trig, maxplus


def _ref_dist(x, y) -> Fraction:
    return max((max(abs(a), abs(b)) for a, b in zip(x, y) if a != b), default=Fraction(0))


def _float_boxplus(u: float, v: float) -> float:
    if abs(u) > abs(v):
        return u
    if abs(v) > abs(u):
        return v
    return u if u == v else 0.0


def laws_check(ctx, raw, inp, out) -> bool:
    (a, b, c, x, y, z, radius, probe, cz, cw, turns, theta, period,
     boundary, mps) = raw
    scalar, metric, plane, trig, maxplus = out
    (ab, aa, ba, a_na, bc, ac, left, right, f3, hom, rec, brackets,
     sm_ab, sm_l, sm_r, sp_ab, sp_l, sp_r, fprod, low, up) = (
        F(v) if not isinstance(v, tuple) else tuple(F(w) for w in v) for v in scalar
    )
    ok = (
        aa == a and ab == ba == inputs.ref_nary((a, b)) and a_na == 0
        and (ab == 0 or bc == 0 or ac == 0 or left == right == f3)
        and f3 == inputs.ref_nary((a, b, c))
        and c * ab == hom
        and abs(f3) <= max(abs(a), abs(b), abs(c))
        and all(br in (0, f3) for br in brackets) and rec == f3
        and sm_l == sm_r and sp_l == sp_r
        and ab == (sm_ab + sp_ab) / 2
        and fprod == inputs.ref_nary((a * b, b * c, c * a))
        and low <= fprod <= up
    )
    dxy, dyx, dxz, dyz, dxx, inside, dprobe = metric
    dxy, dyx, dxz, dyz, dxx, dprobe = (F(d) for d in (dxy, dyx, dxz, dyz, dxx, dprobe))
    top = sorted((dxy, dxz, dyz))
    ok = ok and (
        dxy == dyx == _ref_dist(x, y) and dxx == 0 and (dxy == 0) == (x == y)
        and top[1] == top[2]
        and dprobe == _ref_dist(x, probe) and inside == (dprobe <= radius)
    )
    m_zw, m_z, m_w, zz, back, on_u, on_uv = plane
    ok = ok and (
        F(m_zw) == F(m_z) * F(m_w)
        and F(zz.re) == F(m_z) ** 2 and zz.im == 0
        and (back is None or (F(back.re), F(back.im)) == cz)
        and on_u is True and on_uv is True
    )
    pc, ps, pc8, ps8, angle, bz = trig
    ok = ok and (
        max(abs(F(pc)), abs(F(ps))) == 1 and pc8 == pc and ps8 == ps
        and F(angle.theta) == theta - 8 * math.floor(theta / 8)
        and tuple(F(v) for v in bz) == boundary
    )
    zpw, wpz, zxw, wxz, dist_l, dist_r, assoc_l, assoc_r, cancel, bridge = maxplus
    (sz, lz), (sw, lw), _ = mps
    expected = _float_boxplus(
        sz * math.exp(lz) if sz else 0.0, sw * math.exp(lw) if sw else 0.0
    )
    return ok and (
        zpw == wpz and zxw == wxz and dist_l == dist_r and assoc_l == assoc_r
        and cancel.sign == 0 and abs(bridge - expected) <= 1e-9 * max(1.0, abs(expected))
    )


# ---------------------------------------------------------------------------
# geometry


def load_found() -> frozenset:
    with open(HERE / "geometry_found.json", encoding="utf-8") as fh:
        return frozenset(json.load(fh)["found_nf_indices"])


def geometry_convert(boxlim, pool: list) -> list:
    q, msym = boxlim.q, boxlim.msym
    out = []
    for kind, index, payload in pool:
        if kind.startswith("det"):
            out.append((kind, tuple(tuple(q(v) for v in row) for row in payload)))
        elif kind == "mp":
            out.append((kind, tuple(tuple(msym(s, q(lm)) for s, lm in v) for v in payload)))
        else:
            out.append((kind, tuple(tuple(q(c) for c in v) for v in payload)))
    return out


def geometry_query(L, inp):
    kind, payload = inp
    if kind.startswith("det"):
        return L.det_infty(payload)
    if kind.startswith("co"):
        return L.co_contains(*payload)
    if kind == "mp":
        return L.mp_hull_contains(*payload)
    return L.line_contains_nd(*payload)


def geometry_check(ctx, raw, inp, out) -> bool:
    kind, index, payload = raw
    if kind.startswith("det"):
        return F(out) == inputs.ref_det(payload)
    if kind.startswith("co") or kind == "mp":
        return out is True
    x, y, z = inp[1]
    if out.found and ctx.lib.line_point(x, y, *out.certificate) != z:
        return False
    if kind.startswith("ln"):
        return out.found
    return out.found or index not in ctx.found


# ---------------------------------------------------------------------------
# oracle


def oracle_convert(boxlim, pool: list) -> list:
    q = boxlim.q

    def conv(v):
        return tuple(conv(w) for w in v) if isinstance(v, tuple) else q(v)

    return [(op, grid, conv(data)) for op, grid, data in pool]


def oracle_query(L, inp):
    op, grid, d = inp
    if op == "sum":
        lim = L.limit(L.nary_boxplus, d)
        return lim, L.converge(lambda p: L.p_sum(d, p), lim, grid)
    if op == "norm":
        lim = L.limit(L.norm_infty, d)
        return lim, L.converge(lambda p: L.p_norm(d, p), lim, grid)
    if op == "det":
        lim = L.limit(L.det_infty, d)
        return lim, L.converge(lambda p: L.p_det(d, p), lim, grid)
    x, y = d
    limit_fn, p_fn = {
        "inner": (L.inner_infty, L.p_inner),
        "dist": (L.dist_boxplus, L.p_dist),
        "cos": (L.cos_infty, L.p_cos),
        "sin": (L.sin_infty, L.p_sin),
    }[op]
    lim = L.limit(limit_fn, x, y)
    return lim, L.converge(lambda p: p_fn(x, y, p), lim, grid)


def oracle_check(ctx, raw, inp, out) -> bool:
    op, grid, d = raw
    lim, report = out
    reference = {
        "sum": lambda: inputs.ref_nary(d),
        "inner": lambda: inputs.ref_nary([a * b for a, b in zip(*d)]),
        "norm": lambda: max(abs(v) for v in d),
        "dist": lambda: _ref_dist(*d),
        "det": lambda: inputs.ref_det(d),
    }.get(op)
    if reference is not None and F(lim) != reference():
        return False
    if report.p_grid != grid:
        return False
    if not report.converged and tail_noise_only(report, lim):
        ctx.tail_noise += 1
        return True
    return report.converged is True


def tail_noise_only(report, lim) -> bool:
    """The known `converge` defect: a sample whose finite-p value equals the
    limit at every p (the errors are rounding noise, e.g. 0, 1.2e-178, 0)
    fails the non-increasing-tail rule.  True when every tail error is
    below 2^-(16(2p+1)) of the limit's scale, far under any real error the
    gap filter admits; such reports are counted and printed, not hidden."""
    scale = max(1.0, abs(float(F(lim))))
    return report.final_error <= report.tol and all(
        err <= scale * 2.0 ** (-16 * (2 * p + 1))
        for p, err in zip(report.p_grid[-3:], report.errors[-3:])
    )


# ---------------------------------------------------------------------------
# cli: one fresh `python -m boxlim` process per query


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # children start from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, env: dict, cwd: Path) -> tuple:
    """Run one child to completion; (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout = proc.stdout.read()
        proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def in_process_cli(boxlim_cli, argv: list) -> tuple:
    """The library answer for argv: boxlim.cli.main with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = boxlim_cli.main(list(argv))
    return code, buf.getvalue().encode()


def cli_convert(boxlim, pool: list) -> list:
    return [tuple(argv) for argv in pool]


def cli_query(L, argv):
    return L.run_cli(argv)


def cli_check(ctx, raw, argv, out) -> bool:
    code, stdout, _ = out
    return code == 0 and stdout == ctx.expected[argv]


WORKLOADS = {
    "laws": (laws_convert, laws_query, laws_check),
    "geometry": (geometry_convert, geometry_query, geometry_check),
    "oracle": (oracle_convert, oracle_query, oracle_check),
    "cli": (cli_convert, cli_query, cli_check),
}

# one small query per workload, answered in the fresh interpreter that
# set-up time is measured on
WARMUP = {
    "laws": "boxlim.nary_boxplus((3, -2, 3, 1)); boxlim.dist_boxplus((3, 1), (1, -2))",
    "geometry": (
        "boxlim.det_infty(((3, 1), (1, -2)));"
        " boxlim.line_contains_nd((3, -2, 1), (1, -1, 1), (6, -4, 1))"
    ),
    "oracle": (
        "boxlim.converge(lambda p: boxlim.p_sum((3, -2, 1), p),"
        " boxlim.nary_boxplus((3, -2, 1)))"
    ),
    "cli": (
        "import boxlim.cli, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    boxlim.cli.main(['det', '--matrix', '3,1;1,-2'])"
    ),
}


def setup_program(workload: str) -> str:
    """Child program: time `import boxlim` and the warm-up query, print both."""
    return (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import boxlim\n"
        "t1 = time.perf_counter()\n"
        f"{WARMUP[workload]}\n"
        "t2 = time.perf_counter()\n"
        "print(t1 - t0, t2 - t1)\n"
    )


def cli_argv(argv) -> list:
    return [sys.executable, "-m", "boxlim", *argv]
