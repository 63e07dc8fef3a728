"""Command-line interface: worked invocations, formats, exit codes, determinism."""

import json
import sys

import pytest

from boxlim import cli
from boxlim.cli import MAX_FIGURE_P, MAX_HULL_SAMPLES, MAX_P, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_nary_worked_example(capsys):
    code, out, err = run(capsys, "eval", "--nary", "-3,-2,3,3,1,-3")
    assert code == 0
    assert out.strip() == "-2"
    assert err == ""


def test_line_parallel_worked_example(capsys):
    code, out, _ = run(
        capsys, "line", "parallel",
        "--a", "3,1", "--b", "1,-2", "--c", "-2,4", "--d", "-6,1",
    )
    assert code == 0
    assert json.loads(out) == {"parallel": True, "ratio": "1/2"}


def test_line_parallel_answers_false_only_for_independent_directions(capsys):
    code, out, _ = run(
        capsys, "line", "parallel", "--a", "3,1", "--b", "1,-2", "--c", "0,0", "--d", "1,1",
    )
    assert code == 0
    assert json.loads(out) == {"parallel": False}


@pytest.mark.parametrize("argv, error", [
    (("--a", "3,1", "--b", "1,-2", "--c", "1,1", "--d", "1,1"), "DegeneratePair"),
    (("--a", "1,2", "--b", "3,4", "--c", "1,2,3", "--d", "4,5,6"), "DimensionMismatch"),
])
def test_line_parallel_domain_errors_exit_one_with_json(capsys, argv, error):
    code, out, err = run(capsys, "line", "parallel", *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error


def test_rationals_print_as_quotients(capsys):
    code, out, _ = run(capsys, "eval", "--boxplus", "1/2,-1/4")
    assert code == 0
    assert json.loads(out) == "1/2"
    code, out, _ = run(capsys, "eval", "--boxplus", "1/2,-1/4", "--format", "csv")
    assert out.strip() == "1/2"


def test_det_json_and_csv(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "3,1;1,-2")
    assert code == 0 and out.strip() == "-6"
    code, out, _ = run(capsys, "det", "--matrix", "-2,-6;4,1", "--format", "csv")
    assert code == 0 and out.strip() == "24"


def test_dist_and_inner(capsys):
    code, out, _ = run(capsys, "dist", "--x", "3,-2,1", "--y", "1,-1,1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "eval", "--inner", "3,-2,1;1,-1,1")
    assert code == 0 and out.strip() == "3"


def test_ball_descriptor_with_membership(capsys):
    code, out, _ = run(
        capsys, "ball", "--center", "3,2", "--radius", "5/2", "--z", "3,-2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coords"] == [
        {"kind": "fixed", "value": 3},
        {"kind": "free", "bound": "5/2"},
    ]
    assert payload["contains"] is True


def test_hull_membership_and_sampling(capsys):
    code, out, _ = run(capsys, "hull", "--x", "3,1", "--y", "1,-2",
                       "--contains", "3,0")
    assert code == 0
    assert json.loads(out) == {"contains": True}
    code, out, _ = run(capsys, "hull", "--x", "3,1", "--y", "1,-2",
                       "--samples", "3", "--format", "csv")
    assert out.splitlines() == ["t,z1,z2", "0,1,-2", "1/2,3/2,-2", "1,3,-2"]


def test_line_equation_and_contains(capsys):
    code, out, _ = run(capsys, "line", "equation", "--x", "3,1", "--y", "1,-2")
    payload = json.loads(out)
    assert payload["coeffs"] == [-2, 3]
    assert payload["constant"] == -6
    code, out, _ = run(capsys, "line", "contains",
                       "--x", "3,-2,1", "--y", "1,-1,1", "--z", "6,-4,1")
    payload = json.loads(out)
    assert payload["contains"] is True
    assert payload["certificate"] == [1, 2, -2, 0]


def test_trig_values(capsys):
    code, out, _ = run(capsys, "trig", "--pcos", "3/2")
    assert json.loads(out) == "1/2"
    code, out, _ = run(capsys, "trig", "--op", "cos", "--x", "3,1", "--y", "1,-2")
    assert json.loads(out) == "1/2"


def test_complex_product(capsys):
    code, out, _ = run(capsys, "complex", "--times", "3,1;1,-2")
    assert json.loads(out) == {"re": 3, "im": -6}


@pytest.mark.parametrize("argv", [
    ("--mod", "1,2,3"), ("--conj", "1,2,3"), ("--inv", "1,2,3"), ("--polar", "1,2,3"),
    ("--times", "1,2,3;4,5"), ("--plus", "1,2;4,5,6"),
])
def test_complex_literals_of_three_parts_exit_one_with_json(capsys, argv):
    code, out, err = run(capsys, "complex", *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "detail": "expected a complex number 're,im'"}


@pytest.mark.parametrize("argv, expected", [
    (("--boxplus", "1,2,3"), "--boxplus 'a,b'"),
    (("--boxplus", "1"), "--boxplus 'a,b'"),
    (("--boxminus", "1,2,3"), "--boxminus 'a,b'"),
    (("--inner", "1,2"), "--inner 'x;y'"),
    (("--inner", "1,2;3,4;5,6"), "--inner 'x;y'"),
])
def test_eval_pairs_of_the_wrong_length_name_the_expected_input(capsys, argv, expected):
    code, out, err = run(capsys, "eval", *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "detail": f"expected {expected}"}


def test_line_equation_names_the_point_count_and_the_dimension_found(capsys):
    code, out, err = run(capsys, "line", "equation", "--points", "1,2")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "DimensionMismatch",
        "detail": "got 1 point(s) with one of dimension 2; "
        "a hyperplane form needs n points of dimension n",
    }


def test_maxplus_literals(capsys):
    code, out, _ = run(capsys, "maxplus", "--add", "3/2,3/2+ipi")
    assert json.loads(out) == "-inf"
    code, out, _ = run(capsys, "maxplus", "--mul", "2+ipi,1/2")
    assert json.loads(out) == "5/2+ipi"


def test_oracle_report_shape(capsys):
    code, out, _ = run(capsys, "oracle", "--op", "sum", "--values", "3,-2,1",
                       "--p-grid", "1,2,4,8", "--tol", "1e-2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p", "error", "converged"}
    assert payload["p"] == [1, 2, 4, 8]
    assert payload["converged"] is True


def test_suite_quick_run(capsys):
    code, out, _ = run(capsys, "suite", "worked-values")
    assert code == 0
    assert out.startswith("PASS worked-values:")


def test_domain_errors_exit_one_with_json(capsys):
    code, out, err = run(capsys, "det", "--matrix", "3,1")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "DimensionMismatch"
    assert "square" in payload["detail"]


@pytest.mark.parametrize("argv", [
    ("hull", "--x", "3,1", "--y", "1,-2", "--samples", str(MAX_HULL_SAMPLES + 1)),
    ("oracle", "--op", "sum", "--values", "3,-2,1", "--p-grid", f"1,{MAX_P + 1}"),
    ("trig", "--op", "pythagoras", "--x", "2,0", "--y", "0,-3", "--z", "0,0",
     "--p-grid", str(MAX_P + 1)),
    ("plot", "--figure", "hull", "--x", "3,1", "--y", "1,-2", "--p", str(MAX_P + 1)),
    ("plot", "--figure", "line", "--x", "3,1", "--y", "1,-2",
     "--p", str(MAX_FIGURE_P + 1)),
])
def test_cost_caps_exit_one_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "TooLarge"


def test_a_huge_decimal_exponent_exits_one_with_json(capsys):
    code, out, err = run(capsys, "eval", "--boxplus", "1e10000000,2")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "TooLarge"
    assert "exponent" in payload["detail"]


_NINES = "9" * 3000


@pytest.mark.parametrize("argv", [
    ("eval", "--boxplus", "1e4300,2"),
    ("eval", "--inner", f"{_NINES},1;{_NINES},1"),
    ("det", "--matrix", f"{_NINES},1;1,{_NINES}"),
    ("maxplus", "--mul", "1e4300,1"),
])
def test_results_past_the_digit_limit_exit_one_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "TooLarge"
    assert f"{sys.get_int_max_str_digits()} digits" in payload["detail"]


def test_a_result_at_the_digit_limit_prints(capsys):
    code, out, _ = run(capsys, "eval", "--boxplus", "99e4298,2")
    assert code == 0
    assert out.strip() == "99" + "0" * 4298


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_hull_samples_below_one_exit_one_with_json(capsys, samples):
    code, out, err = run(capsys, "hull", "--x", "3,1", "--y", "1,-2", "--samples", samples)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "at least 1" in payload["detail"]


_PYTHAGORAS = ("trig", "--op", "pythagoras", "--x", "1,1", "--y", "1,-1", "--z", "0,0")
_ORACLE = ("oracle", "--op", "sum", "--values", "3,-2,1")


# the oracle cases keep the id they had beside the dropped trig --tol cases
@pytest.mark.parametrize("command", [pytest.param(_ORACLE, id="command1")])
@pytest.mark.parametrize(
    "setting", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf")]
)
def test_bad_oracle_settings_exit_one_with_json(capsys, command, setting):
    code, out, err = run(capsys, *command, *setting)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "tol" in payload["detail"]


@pytest.mark.parametrize("argv, error", [
    (("--op", "det", "--matrix", "1,2;3,4,5", "--p-grid", "5000"),
     {"error": "DimensionMismatch", "detail": "matrix must be square"}),
    (("--op", "det", "--matrix", "1,2;3,4", "--p-grid", "5000"),
     {"error": "TooLarge", "detail": f"p limited to p <= {MAX_P}, got 5000"}),
    (("--op", "sin", "--x", "1,2,3", "--y", "1,0,0", "--tol", "-1"),
     {"error": "DimensionMismatch", "detail": "limit sine lives in dimension 2"}),
], ids=["limit-before-grid", "grid", "limit-before-tol"])
def test_the_oracle_checks_the_limit_then_the_settings(capsys, argv, error):
    # the limit is taken before the p-grid and tol are checked, and those
    # before the first finite-p value
    code, out, err = run(capsys, "oracle", *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err) == error


def test_trig_takes_no_tol(capsys):
    # the deformed Pythagoras identity is compared exactly: --tol is not an
    # option of trig, so it is a usage error
    with pytest.raises(SystemExit) as exc:
        main([*_PYTHAGORAS, "--tol", "1e9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1,x", "", "1,,2"], ids=["word", "empty", "gap"])
@pytest.mark.parametrize("command", [_ORACLE, _PYTHAGORAS], ids=["oracle", "trig"])
def test_a_malformed_p_grid_is_a_usage_error(capsys, command, grid):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--p-grid", grid])
    assert exc.value.code == 2
    assert "p-grid must be nonnegative integers" in capsys.readouterr().err


def test_value_errors_exit_one(capsys):
    code, _, err = run(capsys, "eval", "--nary", "not-a-number")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line", "orthogonal"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_byte_identical_reruns(capsys):
    first = run(capsys, "suite", "scalar-laws", "--quick")
    second = run(capsys, "suite", "scalar-laws", "--quick")
    assert first == second
    one = run(capsys, "plot", "--figure", "pcos")
    two = run(capsys, "plot", "--figure", "pcos")
    assert one == two


def test_out_writes_the_file(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "plot", "--figure", "unit-square",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_file_supplies_missing_inputs(tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"x": ["3", "-2", "1"], "y": ["1", "-1", "1"]}))
    code, out, _ = run(capsys, "dist", "--file", str(data))
    assert code == 0 and out.strip() == "3"
    mdata = tmp_path / "m.json"
    mdata.write_text(json.dumps({"matrix": [["3", "1"], ["1", "-2"]]}))
    code, out, _ = run(capsys, "det", "--file", str(mdata))
    assert code == 0 and out.strip() == "-6"


def test_file_leaves_the_oracle_settings_alone(tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"values": ["3", "-2", "1"], "p-grid": ["1", "2"],
                                "tol": "1e-300"}))
    code, out, _ = run(capsys, "oracle", "--op", "sum", "--file", str(data))
    assert code == 0
    assert json.loads(out)["p"] == [1, 2, 4, 8, 16, 32]


def test_file_does_not_choose_the_trig_operation(tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"x": "3,1", "y": "1,-2", "z": "0,0", "op": "bogus"}))
    code, out, err = run(capsys, "trig", "--file", str(data))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "detail": "choose a trig operation"}


@pytest.mark.parametrize("fmt", ["xml", "csv"])
def test_file_does_not_choose_the_format(tmp_path, capsys, fmt):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"boxplus": "1/2,-1/4", "format": fmt}))
    code, out, _ = run(capsys, "eval", "--file", str(data))
    assert code == 0
    assert json.loads(out) == "1/2"


def test_file_does_not_choose_the_output_path(tmp_path, capsys):
    target = tmp_path / "out.txt"
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"x": "3,1", "y": "1,-2", "out": str(target)}))
    code, out, _ = run(capsys, "dist", "--file", str(data))
    assert code == 0 and out.strip() == "3"
    assert not target.exists()


def test_flag_values_starting_with_a_dash(capsys):
    code, out, _ = run(capsys, "eval", "--norm", "-4,1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "maxplus", "--neg", "-inf")
    assert json.loads(out) == "-inf"


@pytest.mark.parametrize("argv", [
    ("ball", "--center", "1e400,1", "--radius", "1", "--format", "svg"),
    ("plot", "--figure", "ball", "--center", "1e400,1", "--radius", "1"),
    ("plot", "--figure", "hull", "--x", "1e400,1", "--y", "1,-2"),
    ("plot", "--figure", "line", "--x", "3,1", "--y", "1e400,-2"),
    ("plot", "--figure", "pcos", "--lo", "0", "--hi", "1e400"),
])
def test_figures_past_float_range_exit_one_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "OverflowError"
    assert err.count("\n") == 1


def _no_constants(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ("oracle", "--op", "sum", "--values", "1e400,1"),
    ("oracle", "--op", "norm", "--x", "1e400,1"),
])
def test_oracle_errors_past_float_range_print_as_null(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out, parse_constant=_no_constants)
    assert payload["error"][:3] == [None, None, None]


@pytest.mark.parametrize("argv", [
    ("ball", "--center", "3,2", "--radius", "5/2", "--format", "csv"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--contains", "3,0", "--format", "csv"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--contains", "3,0", "--format", "svg"),
    ("line", "equation", "--x", "3,1", "--y", "1,-2", "--format", "csv"),
    ("line", "equation", "--x", "3,1", "--y", "1,-2", "--format", "svg"),
    ("line", "contains", "--x", "3,1", "--y", "1,-2", "--z", "3,0", "--format", "csv"),
    ("line", "contains", "--x", "3,1", "--y", "1,-2", "--z", "3,0", "--format", "svg"),
    ("line", "parallel", "--a", "3,1", "--b", "1,-2", "--c", "-2,4", "--d", "-6,1",
     "--format", "csv"),
    ("line", "parallel", "--a", "3,1", "--b", "1,-2", "--c", "-2,4", "--d", "-6,1",
     "--format", "svg"),
    ("line", "halflines", "--x", "3,1", "--y", "1,-2", "--format", "csv"),
    ("line", "halflines", "--x", "3,1", "--y", "1,-2", "--format", "svg"),
    ("line", "plot", "--x", "3,1", "--y", "1,-2", "--p", "2", "--format", "json"),
    ("line", "plot", "--x", "3,1", "--y", "1,-2", "--p", "2", "--format", "csv"),
    ("trig", "--point-of", "5/2", "--format", "csv"),
    ("trig", "--op", "pythagoras", "--x", "2,0", "--y", "0,-3", "--z", "0,0",
     "--p-grid", "1,2", "--format", "csv"),
    ("complex", "--times", "3,1;1,-2", "--format", "csv"),
    ("complex", "--plus", "3,1;1,-2", "--format", "csv"),
    ("complex", "--conj", "3,1", "--format", "csv"),
    ("complex", "--inv", "2,1", "--format", "csv"),
    ("complex", "--polar", "1,2", "--format", "csv"),
    ("complex", "--from-polar", "2;3/2", "--format", "csv"),
    ("maxplus", "--add", "1,2", "--format", "csv"),
])
def test_a_format_the_result_has_no_form_in_exits_two(capsys, monkeypatch, argv):
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--format" in err


def _forbid_handlers(monkeypatch):
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args, name=name: pytest.fail(f"{name} ran"))


def test_a_format_is_rejected_before_the_figure_is_built(capsys, monkeypatch):
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["line", "plot", "--x", "3,1", "--y", "1,-2", "--p", "256", "--format", "json"])
    assert exc.value.code == 2
    assert "no json form" in capsys.readouterr().err


def test_line_plot_prints_svg_without_a_format(capsys):
    code, out, _ = run(capsys, "line", "plot", "--x", "3,1", "--y", "1,-2", "--p", "2")
    assert code == 0
    assert out.startswith("<svg")


def test_suite_takes_no_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "worked-values", "--file", "data.json"])
    assert exc.value.code == 2
    assert "--file" in capsys.readouterr().err
