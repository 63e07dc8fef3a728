"""The CLI's bytes, pinned: one sha256 over (argv, exit status, stdout,
stderr) for a corpus of invocations, and a second one over the help texts
and usage errors.

The corpus holds every ``boxlim …`` command in README.md, each handler
branch in every format it prints, each missing-input error, one ``--out``
call and one ``--file`` call. The README's full-size suite runs (``suite
all``, ``suite all --seed 7``, ``suite ultrametric --format json``) take
10–30 s each, so the corpus runs them with ``--quick``: the same handler
and rendering, smaller samples. A change to any byte the CLI writes for
these invocations changes the digest.
"""

import argparse
import hashlib
import json

import pytest

from boxlim.cli import _merge_negative_values, build_parser, main

README = [
    ("eval", "--nary", "-3,-2,3,3,1,-3"),
    ("eval", "--boxplus", "3,1"),
    ("dist", "--x", "3,1", "--y", "1,-2"),
    ("det", "--matrix", "3,1;1,-2"),
    ("ball", "--center", "3,2", "--radius", "5/2"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--contains", "3,0"),
    ("line", "equation", "--x", "3,1", "--y", "1,-2"),
    ("line", "contains", "--x", "3,-2,1", "--y", "1,-1,1", "--z", "6,-4,1"),
    ("line", "parallel", "--a", "3,1", "--b", "1,-2", "--c", "-2,4", "--d", "-6,1"),
    ("trig", "--pcos", "13/4"),
    ("trig", "--op", "cos", "--x", "3,1", "--y", "1,-2"),
    ("complex", "--times", "3,1;1,-2"),
    ("maxplus", "--add", "3/2,3/2+ipi"),
    ("oracle", "--op", "det", "--matrix", "3,1;1,-2", "--p-grid", "1,2,4,8",
     "--tol", "1e-2"),
    ("suite", "all", "--quick"),
    ("suite", "all", "--quick", "--seed", "7"),
    ("suite", "ultrametric", "--quick", "--format", "json"),
]

# Scalar results print in both json and csv.
_SCALARS = [
    ("eval", "--nary", "1/2,-1/4,3"),
    ("eval", "--boxplus", "1/2,-1/4"),
    ("eval", "--boxminus", "3,3"),
    ("eval", "--smile-minus", "3,-2,1"),
    ("eval", "--smile-plus", "3,-2,1"),
    ("eval", "--inner", "3,-2,1;1,-1,1"),
    ("eval", "--norm", "-4,1"),
    ("det", "--matrix", "-2,-6;4,1"),
    ("dist", "--x", "3,-2,1", "--y", "1,-1,1"),
    ("trig", "--pcos", "3/2"),
    ("trig", "--psin", "-5/2"),
    ("trig", "--angle-of", "1,1/2"),
    ("trig", "--op", "sin", "--x", "3,1", "--y", "1,-2"),
    ("trig", "--op", "inner3", "--x", "3,1", "--y", "1,-2", "--z", "2,2"),
    ("complex", "--mod", "3,-4"),
]

BRANCHES = [fmt_argv for argv in _SCALARS
            for fmt_argv in (argv, argv + ("--format", "csv"))] + [
    ("ball", "--center", "3,2", "--radius", "5/2", "--z", "3,-2"),
    ("ball", "--center", "3,2", "--radius", "5/2", "--format", "svg"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--contains", "1,1"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--samples", "3"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--samples", "3", "--format", "csv"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--format", "svg"),
    ("hull", "--x", "3,1,1", "--y", "1,-2,1", "--format", "svg"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--samples", "0"),
    ("line", "equation", "--points", "3,1,0;1,-2,1;0,0,2"),
    ("line", "contains", "--x", "3,1", "--y", "1,-2", "--z", "2,5"),
    ("line", "parallel", "--a", "3,1", "--b", "1,-2", "--c", "1,1", "--d", "1,1"),
    ("line", "halflines", "--x", "3,1", "--y", "1,-2"),
    ("line", "plot", "--x", "3,1", "--y", "1,-2", "--format", "svg"),
    ("trig", "--point-of", "5/2"),
    ("trig", "--op", "pythagoras", "--x", "2,0", "--y", "0,-3", "--z", "0,0",
     "--p-grid", "1,2,4"),
    ("trig", "--angle-of", "1/2,1/2"),
    ("complex", "--plus", "3,1;1,-2"),
    ("complex", "--conj", "3,1"),
    ("complex", "--inv", "2,-1/2"),
    ("complex", "--polar", "1,2"),
    ("complex", "--from-polar", "2;3/2"),
    ("complex", "--times", "3,1"),
    ("complex", "--from-polar", "2"),
    ("maxplus", "--mul", "2+ipi,1/2"),
    ("maxplus", "--neg", "-inf"),
    ("maxplus", "--inv", "3/2+ipi"),
    ("maxplus", "--nary", "1,1+ipi,1/2"),
    ("maxplus", "--dist", "1,2;2,1+ipi"),
    ("maxplus", "--add", "1"),
    ("maxplus", "--mul", "1,2,3"),
    ("maxplus", "--dist", "1,2"),
    ("oracle", "--op", "sum", "--values", "3,-2,1", "--p-grid", "1,2,4"),
    ("oracle", "--op", "norm", "--x", "3,-2,1", "--p-grid", "1,2,4"),
    ("oracle", "--op", "inner", "--x", "3,1", "--y", "1,-2", "--p-grid", "1,2,4"),
    ("oracle", "--op", "dist", "--x", "3,1", "--y", "1,-2", "--p-grid", "1,2,4"),
    ("oracle", "--op", "cos", "--x", "3,1", "--y", "1,-2", "--p-grid", "1,2,4"),
    ("oracle", "--op", "sin", "--x", "3,1", "--y", "1,-2", "--p-grid", "1,2,4"),
    ("suite", "worked-values"),
    ("suite", "worked-values", "--format", "json"),
    ("plot", "--figure", "hull", "--x", "3,1", "--y", "1,-2", "--p", "4"),
    ("plot", "--figure", "line", "--x", "3,1", "--y", "1,-2", "--p", "4"),
    ("plot", "--figure", "ball", "--center", "3,2", "--radius", "5/2"),
    ("plot", "--figure", "unit-square", "--theta", "3/2"),
    ("plot", "--figure", "pcos", "--lo", "-2", "--hi", "2"),
    ("det", "--matrix", "3,1"),
    ("eval", "--nary", "not-a-number"),
]

# Every "needs" message, and the ones that keep their own text.
MISSING = [
    ("eval",),
    ("det",),
    ("dist", "--x", "1"),
    ("ball", "--center", "1,2"),
    ("hull", "--y", "1,2"),
    ("line", "equation", "--x", "1,2"),
    ("line", "contains", "--x", "1,2", "--y", "2,1"),
    ("line", "parallel", "--a", "1,2", "--b", "2,1", "--c", "1,1"),
    ("line", "halflines"),
    ("line", "plot", "--x", "1,2", "--format", "svg"),
    ("trig",),
    ("trig", "--op", "cos", "--x", "1,2"),
    ("trig", "--op", "sin"),
    ("trig", "--op", "inner3", "--x", "1,2", "--y", "2,1"),
    ("trig", "--op", "pythagoras", "--x", "1,2"),
    ("complex",),
    ("maxplus",),
    ("oracle", "--op", "sum"),
    ("oracle", "--op", "norm"),
    ("oracle", "--op", "det"),
    ("oracle", "--op", "inner", "--x", "1,2"),
    ("oracle", "--op", "dist", "--y", "1,2"),
    ("oracle", "--op", "cos"),
    ("oracle", "--op", "sin"),
    ("plot", "--figure", "hull", "--x", "1,2"),
    ("plot", "--figure", "line"),
    ("plot", "--figure", "ball", "--radius", "1"),
]

OUT = ("plot", "--figure", "hull", "--x", "3,1", "--y", "1,-2", "--out", "hull.svg")
FILE = ("dist", "--file", "data.json")

CORPUS = README + BRANCHES + MISSING + [OUT, FILE]

# computed when the square-trig suite began to bound the deformed circle
# identity by n*2^(1-prec) at deform's working precision instead of 1e-9 (its
# detail line went from "deformed circle within 5.92e-34 <= 1e-09" to
# "deformed circle |E| <= 0.257 x n*2^(1-prec)", and under --seed 7 from
# 4.79e-34 to 0.237); every other record is as it was when `line parallel`
# began to exit 1 on a degenerate pair
DIGEST = "273dcdc5da2100989940e21e578182b740e52008eadf6ff9442ab1f3a1e833ea"


def corpus_digest(capsys) -> str:
    h = hashlib.sha256()
    for argv in CORPUS:
        code = main(list(argv))
        record = [list(argv), code, *capsys.readouterr()]
        if argv is OUT:
            with open("hull.svg", encoding="utf-8") as fh:
                record.append(fh.read())
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_the_corpus_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.json").write_text(
        json.dumps({"x": ["3", "-2", "1"], "y": ["1", "-1", "1"]})
    )
    assert corpus_digest(capsys) == DIGEST


# Every help text, and each kind of usage error: the ones argparse writes
# while it picks the subcommand, the ones a subcommand's own parser writes,
# and main's --format check, which prints the top-level usage line.
COMMANDS = ("eval", "det", "dist", "ball", "hull", "line", "trig", "complex",
            "maxplus", "oracle", "suite", "plot")
USAGE = [
    (),
    ("--help",),
    *((name, "--help") for name in COMMANDS),
    ("nosuch",),
    ("--",),
    ("--", "det", "--matrix", "3,1;1,-2"),
    ("det", "--matrix", "3,1;1,-2", "extra"),
    ("det", "--matrix", "3,1;1,-2", "--format", "svg"),
    ("hull", "--x", "3,1", "--y", "1,-2", "--contains", "3,0", "--format", "svg"),
    ("line", "orthogonal"),
    ("oracle", "--values", "3,1"),
]

# computed when each call began to build only its own subcommand's parser,
# from the parser that built all twelve
USAGE_DIGEST = "6f946de59480f64cb86158184eb36e6bc0ab2bb3a29460ed78d8347b59d2b792"


def usage_digest(capsys) -> str:
    h = hashlib.sha256()
    for argv in USAGE:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        record = [list(argv), exc.value.code, *capsys.readouterr()]
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_the_help_and_usage_error_bytes_are_pinned(monkeypatch, capsys):
    # argparse wraps its text at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_digest(capsys) == USAGE_DIGEST


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", COMMANDS)
def test_a_subcommand_parser_built_alone_matches_the_full_build(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    full, alone = build_parser(), build_parser(name)
    assert tuple(_subparsers(full)) == COMMANDS
    assert list(_subparsers(alone)) == [name]
    assert _subparsers(alone)[name].format_help() == _subparsers(full)[name].format_help()
    assert alone.format_usage() == full.format_usage()
    argv = _merge_negative_values(next(a for a in CORPUS if a[0] == name))
    assert alone.parse_args(argv) == full.parse_args(argv)
