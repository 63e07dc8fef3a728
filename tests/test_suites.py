"""The suite registry: one declaration per suite, running by name, and the
pinned output of every suite at its quick sizes."""

import hashlib
import inspect

import pytest

from boxlim import lines, suites
from boxlim.cli import main
from boxlim.errors import DegenerateConfiguration
from boxlim.suites import SUITES, check_lines, check_maxplus_bridge, run_suite


# sha256 of the stdout of `boxlim suite all --quick`, without and with
# `--seed 7`: any change to a suite's draws, sizes, checks or details shows
@pytest.mark.parametrize("seed, digest", [
    ((), "0801a13810e1568b1e5b4b046280f58ea1a7ed8483268220a289ff82b3281468"),
    (("--seed", "7"),
     "071b5f9a5875b5b3277962a96b393b94eb3915efb1888e8210fc78822d79b77c"),
], ids=["default-seed", "seed-7"])
def test_every_suite_at_its_quick_sizes_is_pinned(capsys, seed, digest):
    assert main(["suite", "all", "--quick", *seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_each_declaration_matches_its_check():
    for name, check in SUITES.items():
        params = inspect.signature(check).parameters
        assert set(check.quick) <= set(params) - {"seed"}, name
        if check.seed is None:
            assert "seed" not in params, name
        else:
            assert list(params)[-1] == "seed", name
            assert params["seed"].default == check.seed, name


def test_checks_keep_their_sizes_and_seed_in_order():
    params = inspect.signature(check_lines).parameters
    assert {k: p.default for k, p in params.items()} == {
        "pairs": 10_000, "hull_samples": 10_000, "nd_samples": 2_000,
        "line_samples": 300, "seed": 1209,
    }
    by_position = check_maxplus_bridge(40, 5)
    by_name = check_maxplus_bridge(samples=40, seed=5)
    assert by_position.detail == by_name.detail
    assert by_position.detail != check_maxplus_bridge(samples=40).detail


def test_run_suite_takes_a_name_quick_and_seed():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")
    # worked-values draws nothing, so a seed leaves it as it is
    assert run_suite("worked-values", seed=7).detail == run_suite("worked-values").detail


def test_the_lines_suite_reports_a_form_that_fails_a_generator(monkeypatch):
    # a form whose generator fails its own equation raises
    # DegenerateConfiguration, as a zero determinant does; only the second
    # is a degenerate draw
    def fails_a_generator(x, y):
        lines.line2d_form(x, y)
        raise DegenerateConfiguration("a generator fails its own equation")

    monkeypatch.setattr(suites, "line2d_form", fails_a_generator)
    result = check_lines(pairs=3, hull_samples=0, nd_samples=0, line_samples=0)
    assert not result.passed
    assert result.detail.startswith("1 failure(s); first: generator self-membership")
