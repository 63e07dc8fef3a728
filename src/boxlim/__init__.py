"""Exact arithmetic for the idempotent limit sum ⊞ and its geometry.

The carrier is the exact rationals.  ``boxplus``/``nary_boxplus`` implement
the limit sum (dominant magnitude, zero on a symmetric tie), and the derived
layers build on it: ultrametric distance and balls, limit inner products and
determinants, two-point hulls, limit lines, square trigonometry, complex
products, and the symmetrized max-plus bridge.  Every limit operation has a
finite-p deformation in :mod:`boxlim.deform` whose convergence the oracle
certifies numerically.

``import boxlim`` loads no submodule: each public name and each submodule is
imported on first access (PEP 562).  Inside the package every finite-p
value stays a raw integer tuple, so mpmath loads only when a public
``mpmath.mpf`` is built, by a ``p_*`` or sampler of ``deform``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "axioms": (
        "AxiomReport", "check_pseudo_field_axioms", "check_symmetric_space_axioms",
        "real_vector_space",
    ),
    "cplane": (
        "BoxComplex", "cconj", "cinv", "cmod_infty", "cplus", "cplx", "ctimes",
        "from_polar", "on_unit_square", "polar",
    ),
    "deform": (
        "DEFAULT_P_GRID", "DEFAULT_TOL", "ConvergenceReport", "co_p_sample", "converge",
        "exact_power_sum_is_zero", "line_p_sample", "p_cos", "p_det", "p_dist",
        "p_inner", "p_norm", "p_sin", "p_sum",
    ),
    "errors": (
        "DegenerateConfiguration", "DegeneratePair", "DimensionMismatch", "EmptyList",
        "InvalidCoefficients", "InvalidCombination", "LimitAlgebraError", "NotParallel",
    ),
    "hull": (
        "HullCombination", "co_contains", "co_orthant", "co_point",
        "dist_decomposition_check",
    ),
    "linalg": (
        "det_infty", "inner_infty", "mat", "nary_vec_boxplus", "norm_infty", "scale",
        "vec", "vec_boxplus",
    ),
    "lines": (
        "HalfLine", "LineForm", "LineMembership", "half_lines", "hyperplane_form",
        "line2d_form", "line_contains_2d", "line_contains_nd", "line_point",
        "parallel_normal_form", "parallel_ratio",
    ),
    "maxplus": (
        "MAXPLUS_PSEUDO_FIELD", "MSym", "MONE", "MZERO", "maxplus_vector_space",
        "mp_boxplus", "mp_dist", "mp_dist_std", "mp_format", "mp_nary", "mp_otimes",
        "mp_parse", "msym", "psi_exp", "psi_ln",
    ),
    "metric": (
        "BallDescriptor", "Fixed", "Free", "ball_contains", "ball_describe",
        "dist_boxplus",
    ),
    "scalars": (
        "boxminus", "boxplus", "lower_form", "nary_boxplus", "q", "smile_minus",
        "smile_plus", "upper_form",
    ),
    "suites": ("SUITES", "CheckResult", "run_suite"),
    "svgfig": ("FIGURES", "render_figure"),
    "trig": (
        "AngleParam", "alpha", "alpha_inv", "cos_infty", "inner3_limit",
        "is_f_right_angled", "orthogonal_pairing", "pcos", "psin", "pythagoras_check",
        "sin_infty",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_certify", "cli", "sampling"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
