"""The lazy package namespace, the import graph of the CLI subcommands, and
the package's dependence on its carrier."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxlim
import strategies
from boxlim import cli

SRC = Path(boxlim.__file__).resolve().parents[1]
ROOT = SRC.parent
TESTS = Path(__file__).resolve().parent

# `boxlim.__all__` when every submodule was imported eagerly
EAGER_ALL = set("""
    AngleParam AxiomReport BallDescriptor BoxComplex CheckResult ConvergenceReport
    DEFAULT_P_GRID DEFAULT_TOL DegenerateConfiguration DegeneratePair
    DimensionMismatch EmptyList FIGURES Fixed Free HalfLine HullCombination
    InvalidCoefficients InvalidCombination LimitAlgebraError LineForm
    LineMembership MAXPLUS_PSEUDO_FIELD MSym MONE MZERO NotParallel SUITES
    alpha alpha_inv ball_contains ball_describe boxminus boxplus cconj
    check_pseudo_field_axioms check_symmetric_space_axioms cinv
    cmod_infty co_contains co_orthant co_p_sample co_point converge cos_infty
    cplus cplx ctimes det_infty dist_boxplus dist_decomposition_check
    exact_power_sum_is_zero from_polar half_lines hyperplane_form inner3_limit
    inner_infty is_f_right_angled line2d_form line_contains_2d
    line_contains_nd line_p_sample line_point lower_form mat maxplus_vector_space
    mp_boxplus mp_dist mp_dist_std mp_format mp_nary mp_otimes mp_parse msym
    nary_boxplus nary_vec_boxplus norm_infty on_unit_square orthogonal_pairing
    p_cos p_det p_dist p_inner p_norm p_sin p_sum parallel_normal_form
    parallel_ratio pcos polar psi_exp psi_ln psin pythagoras_check q
    real_vector_space render_figure run_suite scale sin_infty
    smile_minus smile_plus upper_form vec vec_boxplus
""".split())

# the submodules that the eager `import boxlim` bound on the package
EAGER_SUBMODULES = {
    "_certify", "axioms", "cplane", "deform", "errors", "hull", "linalg", "lines", "maxplus",
    "metric", "sampling", "scalars", "suites", "svgfig", "trig",
}


def _python(program: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return done.stdout


def test_every_public_name_is_its_submodule_object():
    for name in boxlim.__all__:
        module = importlib.import_module(f"boxlim.{boxlim._HOME[name]}")
        assert getattr(boxlim, name) is getattr(module, name), name


def test_star_import_binds_the_eager_names():
    namespace: dict = {}
    exec("from boxlim import *", namespace)
    assert set(namespace) - {"__builtins__"} == EAGER_ALL
    assert set(boxlim.__all__) == EAGER_ALL


def test_dir_lists_every_eager_name():
    assert EAGER_ALL | EAGER_SUBMODULES | {"__version__"} <= set(dir(boxlim))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        boxlim.no_such_name
    assert getattr(boxlim, "no_such_name", None) is None


def test_submodule_attribute_after_a_bare_import():
    assert _python("import boxlim; print(boxlim.scalars.ONE)").strip() == "1"


def test_bare_import_loads_no_submodule_and_no_mpmath():
    loaded = json.loads(_python(
        "import json, sys; import boxlim; print(json.dumps(sorted("
        "m for m in sys.modules if m == 'mpmath' or m.startswith('boxlim.'))))"
    ))
    assert loaded == []


def test_cli_choices_match_the_registries():
    from boxlim.deform import _ORACLE
    from boxlim.suites import SUITES
    from boxlim.svgfig import FIGURES

    assert cli.SUITE_NAMES == tuple(SUITES)
    assert cli.FIGURE_NAMES == tuple(FIGURES)
    assert cli._ORACLE_OPS == tuple(_ORACLE)


# Run one subcommand in a fresh interpreter; print its exit code and which of
# the finite-p modules it loaded.
_PROBE = """
import contextlib, io, json, sys
from boxlim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
heavy = ("mpmath", "boxlim.deform", "boxlim.suites", "boxlim.svgfig")
print(json.dumps([code, [m for m in heavy if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv", [
    ["eval", "--nary", "-3,-2,3,3,1,-3"],
    ["dist", "--x", "3,1", "--y", "1,-2"],
    ["det", "--matrix", "3,1;1,-2"],
    ["hull", "--x", "3,1", "--y", "1,-2", "--contains", "3,0"],
    ["line", "contains", "--x", "3,-2,1", "--y", "1,-1,1", "--z", "6,-4,1"],
    ["trig", "--pcos", "13/4"],
    ["trig", "--op", "cos", "--x", "3,1", "--y", "1,-2"],
    ["complex", "--times", "3,1;1,-2"],
    ["maxplus", "--add", "3/2,3/2+ipi"],
])
def test_exact_subcommands_load_no_finite_p_module(argv):
    assert json.loads(_python(_PROBE, json.dumps(argv))) == [0, []]


def test_a_scalar_call_makes_no_record_type():
    # a record type compiles its constructor when its class is made, and no
    # CLI path reads the axiom bundles
    code, loaded = json.loads(_python(
        "import contextlib, io, json, sys\n"
        "from boxlim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['eval', '--boxplus', '3,1'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('boxlim'))]))"
    ))
    assert code == 0
    assert "boxlim.linalg" in loaded
    assert not {"boxlim.axioms", "boxlim._record"} & set(loaded)


@pytest.mark.parametrize("argv", [
    ["--op", "sum", "--values", "3,-2,1"],
    ["--op", "inner", "--x", "3,1", "--y", "1,-2"],
    ["--op", "norm", "--x", "3,-2,1"],
    ["--op", "dist", "--x", "3,1", "--y", "1,-2"],
    ["--op", "det", "--matrix", "3,1;1,-2"],
    ["--op", "cos", "--x", "3,1", "--y", "1,-2"],
    ["--op", "sin", "--x", "8,-4", "--y", "2,4"],
], ids=lambda argv: argv[1])
def test_every_oracle_op_loads_deform_but_no_mpmath(argv):
    # the oracle runs deform's raw kernels through converge's error loop and
    # builds no mpf
    code, loaded = json.loads(_python(_PROBE, json.dumps(["oracle", *argv])))
    assert code == 0
    assert loaded == ["boxlim.deform"]


def test_a_suite_without_mpf_arithmetic_loads_no_mpmath():
    code, loaded = json.loads(_python(_PROBE, json.dumps(["suite", "scalar-laws", "--quick"])))
    assert code == 0
    assert "mpmath" not in loaded


@pytest.mark.parametrize("argv", [
    ["trig", "--op", "pythagoras", "--x", "2,0", "--y", "0,-3", "--z", "0,0"],
    ["plot", "--figure", "hull", "--x", "3,1", "--y", "1,-2"],
    ["plot", "--figure", "line", "--x", "3,1", "--y", "1,-2"],
    ["suite", "pythagoras", "--quick"],
    ["suite", "convergence", "--quick"],
    ["suite", "lines", "--quick"],
    ["suite", "all", "--quick"],
], ids=lambda argv: "-".join(argv[:2]))
def test_the_finite_p_consumers_read_raw_values_and_load_no_mpmath(argv):
    # the Pythagoras check compares integer power sums, and the figures and
    # the oracle, square-trig and lines suites read deform's raw kernels
    code, loaded = json.loads(_python(_PROBE, json.dumps(argv)))
    assert code == 0
    assert "boxlim.deform" in loaded
    assert "mpmath" not in loaded


def _importers(module: str) -> set:
    """(module, enclosing function or None) for each import of ``module``
    in the package."""
    found = set()
    for path in sorted((SRC / "boxlim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {
            id(n): f.name
            for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            for n in ast.walk(f) if n is not f
        }
        for n in ast.walk(tree):
            names = (
                [a.name for a in n.names] if isinstance(n, ast.Import)
                else [n.module or ""] if isinstance(n, ast.ImportFrom) else []
            )
            if any(name.split(".")[0] == module for name in names):
                found.add((path.stem, enclosing.get(id(n))))
    return found


def test_only_deform_mpmath_imports_mpmath():
    # no other module builds or reads an mpf: the square-trig check reads the
    # raw kernels, converge passes an infinite or nan value on as a float and
    # rounds any other non-mpf value itself, so the carrier has no mpmath hook
    assert _importers("mpmath") == {("deform", "_mpmath")}


def test_every_module_level_import_is_used():
    # no linter is a dependency; a name imported at the top of a module must
    # be read somewhere in it, or be re-exported through its __all__
    for path in sorted((SRC / "boxlim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(
                    n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)
                )
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert imported <= used | exported, (path.name, sorted(imported - used - exported))


def test_no_module_imports_dataclasses():
    # the value types share boxlim._record; `import dataclasses` would cost
    # every CLI call about 9 ms, most of it `inspect`
    found = []
    for path in sorted((SRC / "boxlim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            if "dataclasses" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_cli_and_its_handler_modules_load_neither_dataclasses_nor_inspect():
    # compared with the modules loaded before, so that a site hook that
    # loads them does not count
    added = json.loads(_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import boxlim.cli, boxlim.metric, boxlim.hull, boxlim.lines, boxlim.trig\n"
        "import boxlim.cplane, boxlim.maxplus, boxlim.suites\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted(added & {'dataclasses', 'inspect'})))"
    ))
    assert added == []


def _test_calls(name: str):
    """(file, line, call) for each call of ``name`` or ``<anything>.name``
    in the test files."""
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                yield path.name, node.lineno, node


def test_only_the_strategy_module_calls_hypothesis_fractions():
    # st.fractions is slow to draw from; tests/strategies.py lists each finite
    # support once, and keeps the one support too large to list
    calls = [f"{name}:{line}" for name, line, _ in _test_calls("fractions")
             if name != "strategies.py"]
    assert calls == []


def test_every_test_support_lists_its_reduced_fractions_once_simplest_first():
    used = {tuple(ast.literal_eval(a) for a in call.args)
            for _, _, call in _test_calls("rationals")}
    assert used
    for lo, hi, den in sorted(used):
        values = strategies.support(lo, hi, den)
        assert len(set(values)) == len(values)
        assert set(values) == {
            Fraction(k, d) for d in range(1, den + 1) for k in range(lo * d, hi * d + 1)
        }
        assert list(values) == sorted(values, key=lambda v: (v.denominator, abs(v), v < 0))
        assert (values[0] == 0) == (lo <= 0 <= hi)


def test_every_public_name_is_read_outside_the_tests():
    # a public name earns its place by a reader in the package, a demo or the
    # benchmark harness: an AST load of the name, an attribute access or an
    # import; the lazy export table in __init__.py and test files do not count
    read = set()
    for folder in (SRC / "boxlim", ROOT / "demos", ROOT / "benchmarks"):
        for path in sorted(folder.rglob("*.py")):
            if path == SRC / "boxlim" / "__init__.py" or path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    read.update(a.name.split(".")[-1] for a in node.names)
    assert sorted(set(boxlim.__all__) - read) == []


def test_every_cap_is_read_by_the_package_and_named_by_too_large():
    # a MAX_* constant in errors.py caps an entry point: another module reads
    # it, the TooLarge docstring names it, and that docstring names no cap
    # that is gone
    from boxlim import errors

    caps = {name for name in vars(errors) if name.startswith("MAX_")}
    read = set()
    for path in sorted((SRC / "boxlim").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    assert caps
    assert sorted(caps - read) == []
    assert set(re.findall(r"\bMAX_[A-Z_]+", errors.TooLarge.__doc__)) == caps


def test_only_the_scalar_kernel_reads_the_private_fraction_slots():
    # the pair reader in scalars.py may read Fraction's _numerator and
    # _denominator slots; every other module reads .numerator/.denominator,
    # which every carrier has
    found = []
    for path in sorted((SRC / "boxlim").glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls(node, names) -> list:
    """The line numbers of the calls under node to a function in names."""
    return [
        n.lineno for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", getattr(n.func, "attr", None)) in names
    ]


def test_the_finite_p_layer_reads_its_inputs_in_place():
    # deform reads vectors and matrices through linalg._integer_rows, which
    # builds the integer rows and no carrier per entry
    tree = ast.parse((SRC / "boxlim" / "deform.py").read_text(encoding="utf-8"))
    assert _calls(tree, {"vec", "_vecs", "mat"}) == []


def test_the_finite_p_root_runs_on_ints_up_to_the_result():
    # _root rounds the quotient (_quotient) and _nthroot builds the raw value
    # on ints alone: no mpmath libmp call between the power sum and the result
    tree = ast.parse((SRC / "boxlim" / "deform.py").read_text(encoding="utf-8"))
    names = {"_root", "_quotient", "_nthroot"}
    found = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in names}
    for name, f in found.items():
        assert _calls(f, {"from_rational", "mpf_div", "from_man_exp", "mpf_neg"}) == [], name
    assert set(found) == names


def test_the_certificate_searches_run_on_integer_rows():
    # _certify works on integer rows and candidate pairs: it builds no
    # carrier and reads no carrier's parts, except the four carriers of a
    # returned certificate in Certifier.quad; co_contains reads its points
    # straight into integer rows
    tree = ast.parse((SRC / "boxlim" / "_certify.py").read_text(encoding="utf-8"))
    assert _calls(tree, {"vec", "_vecs", "mat", "_carrier", "q"}) == []
    assert [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("numerator", "denominator")
    ] == []
    quad = next(
        f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Certifier"
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "quad"
    )
    assert _calls(tree, {"_from_pair"}) == _calls(quad, {"_from_pair"}) != []
    hull = ast.parse((SRC / "boxlim" / "hull.py").read_text(encoding="utf-8"))
    co_contains = next(
        f for f in hull.body if isinstance(f, ast.FunctionDef) and f.name == "co_contains"
    )
    assert _calls(co_contains, {"_vecs"}) == []


def test_the_complex_plane_and_the_square_angle_run_on_pairs():
    # ⊠, the modulus, conjugation, the polar form and its inverse, the square
    # angle maps and the symmetric forms decide on canonical pairs and build
    # a carrier only for what they return: they and the private helpers they
    # call (the input reader _pair aside) make no carrier-level kernel call
    # and build no record through its converting __init__
    defs = {}
    for module in ("cplane", "trig", "scalars"):
        tree = ast.parse((SRC / "boxlim" / f"{module}.py").read_text(encoding="utf-8"))
        defs.update((f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef))
    todo = ["ctimes", "cmod_infty", "on_unit_square", "cconj", "polar", "from_polar",
            "alpha", "alpha_inv", "pcos", "psin", "lower_form", "upper_form"]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen and name != "_pair":
            seen.add(name)
            todo += [n.func.id for n in ast.walk(defs[name])
                     if isinstance(n, ast.Call) and getattr(n.func, "id", None) in defs]
    assert {"_times", "_segment", "_form", "_sum_of_products", "_box", "_angle"} <= seen
    forbidden = {"boxplus", "boxminus", "_carrier", "vec", "q", "smile_minus",
                 "smile_plus", "BoxComplex", "AngleParam"}
    assert {name: _calls(defs[name], forbidden) for name in seen} == dict.fromkeys(seen, [])


def test_every_layer_tallies_with_the_one_kernel():
    # Ϝ's tally is scalars._levels and scalars._nary_ints: the certificate
    # check, the max-plus mirror, the gap filter and the residual set call
    # them rather than keep a tally of their own
    kernel = {"_levels", "_nary_ints"}
    found = {}
    for module, names in (("_certify", {"matches"}), ("maxplus", {"mp_nary"}),
                          ("sampling", {"gap_ok"}),
                          ("scalars", {"residual_index_set", "_net_by_magnitude"})):
        tree = ast.parse((SRC / "boxlim" / f"{module}.py").read_text(encoding="utf-8"))
        found.update(
            (f.name, f) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in names
        )
    assert "_net_by_magnitude" not in found
    for name in ("matches", "mp_nary", "gap_ok", "residual_index_set"):
        assert _calls(found[name], kernel), name
    # no loop of its own in mp_nary, and no carrier per level in gap_ok
    assert not any(isinstance(n, ast.For) for n in ast.walk(found["mp_nary"]))
    assert _calls(found["gap_ok"], {"q", "_carrier"}) == []


# a module named gmpy2 whose mpq is fractions.Fraction: the package takes its
# gmpy2 branch, with a carrier that is not QFraction
_STAND_IN = (
    "import fractions, sys, types\n"
    "gmpy2 = types.ModuleType('gmpy2')\n"
    "gmpy2.mpq = fractions.Fraction\n"
    "sys.modules['gmpy2'] = gmpy2\n"
    "import boxlim.scalars\n"
    "assert boxlim.scalars.ScalarQ is fractions.Fraction\n"
    "import pytest\n"
    "sys.exit(pytest.main(sys.argv[1:]))\n"
)


def test_the_carrier_and_metric_tests_pass_under_a_stand_in_gmpy2():
    # the pair reader and _from_pair are carrier-generic: a result built by
    # QFraction's _make would fail the carrier type checks of test_carrier;
    # the search pins and the exact-check tests show that the searches'
    # integer tables, read through _common_rows, are too; converge and the
    # sampling parameters read a carrier value on ints, under any carrier;
    # the finite-p values keep their bits; and the CLI and the quick suite
    # runs write the same bytes; the complex plane and the square angle
    # maps read .numerator under mpq too (of test_deform and test_trig only
    # those tests run: -k keeps every test of the other files)
    done = subprocess.run(
        [sys.executable, "-c", _STAND_IN, "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_carrier.py"), str(TESTS / "test_metric.py"),
         str(TESTS / "test_search_pins.py"), str(TESTS / "test_certify.py"),
         str(TESTS / "test_deform.py"), str(TESTS / "test_cli_bytes.py"),
         str(TESTS / "test_suites.py"), str(TESTS / "test_cplane.py"),
         str(TESTS / "test_trig.py"),
         "-k", "not (test_deform.py or test_trig.py) "
               "or (test_deform.py and (converge or carrier or parameter "
               "or keep_their_bits)) "
               "or (test_trig.py and (reduction or pcos or unit_square or period "
               "or roundtrip or mod_eight or alpha or segment))"],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
