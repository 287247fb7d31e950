"""The command line's surface: exit statuses, result text, help and error messages."""

import io
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import morphcalc
from morphcalc import cli
from morphcalc.quantity import MorphError

_GOLDEN = json.loads(
    (Path(__file__).parent / "cli_surface_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _GOLDEN["cases"],
                         ids=[" ".join(case["argv"]) or "(none)" for case in _GOLDEN["cases"]])
def test_cli_surface_golden(case, tmp_path, monkeypatch, capsys):
    for name, text in _GOLDEN["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    shutil.copy(morphcalc.corpus_path(), tmp_path / "shipped.morph")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.get("stdin", "")))
    out = io.StringIO()
    status = cli.run(list(case["argv"]), out=out)
    stdout, stderr = capsys.readouterr()
    assert (status, out.getvalue(), stdout, stderr) == (
        case["status"], case["out"], case["stdout"], case["stderr"])


# exit status and stderr prefix of every error class, pinned from the command
# line's reports before the classes stated them
_USAGE, _DIVISION = (2, "error"), (3, "inexact division")
_PRECONDITION = (4, "precondition violated")
_STATUS_TABLE = {
    "MorphError": _PRECONDITION,
    "UsageError": _USAGE,
    "ExprSyntaxError": _USAGE,
    "UnknownName": _USAGE,
    "UnknownEntry": _USAGE,
    "BadParams": _USAGE,
    "FormatError": _USAGE,
    "DuplicateName": _USAGE,
    "InexactDivision": _DIVISION,
    "NonZeroRemainder": _DIVISION,
    "DivisionByZero": _DIVISION,
    "InternalDivisionFailed": _DIVISION,
    "InvalidComplex": _PRECONDITION,
    "NotIntegerType": _PRECONDITION,
    "ZeroQuantity": _PRECONDITION,
    "MixedFormUnavailable": _PRECONDITION,
    "NotSemiIntegrable": _PRECONDITION,
    "BoundExceeded": _PRECONDITION,
    "SizeLimitExceeded": _PRECONDITION,
}


def _morph_error_classes():
    found, todo = [], [MorphError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__.startswith("morphcalc.")]


def test_every_error_class_states_the_status_the_command_line_gave_it():
    assert {cls.__name__: (cls.exit_status, cls.kind)
            for cls in _morph_error_classes()} == _STATUS_TABLE


class _FreshError(MorphError):
    """A subclass that no part of the command line names."""


def _raise_fresh(*args):
    raise _FreshError("a fresh failure")


def test_a_new_error_class_exits_4_from_a_command(monkeypatch, capsys):
    monkeypatch.setattr(cli, "dimension", _raise_fresh)
    out = io.StringIO()
    assert cli.run(["dim", "R"], out=out) == 4
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "precondition violated: a fresh failure\n"


def test_a_new_error_class_is_reported_by_the_repl(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_eval_source", _raise_fresh)
    monkeypatch.setattr(sys, "stdin", io.StringIO("R\n:quit\n"))
    out = io.StringIO()
    assert cli.run(["repl"], out=out) == 0
    assert out.getvalue() == "morphcalc repl; :help for commands\n"
    assert capsys.readouterr().err == "precondition violated: a fresh failure\n"


_NAMES = [name for name, *_ in cli._COMMANDS]
_TOKENS = sorted(
    {*_NAMES, "-h", "--help", "--", "-", "-1", "--fo", "--js", "--form=p", "03", ""}
    | {argument for *_, arguments, _ in cli._COMMANDS for argument in arguments}
    | {str(choice) for *_, arguments, _ in cli._COMMANDS for options in arguments.values()
       for choice in options.get("choices", ())})


def _argparse_reading(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(st.builds(lambda head, tail: head + tail,
                 st.lists(st.sampled_from(_NAMES), max_size=1),
                 st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=3)), max_size=5)))
@example(["eval", "R", "--form", "mixed"])
@example(["eval", "--form", "p", "R"])
@example(["verify", "f", "--json"])
@example(["catalog", "show", "S"])
@example(["audit", "03"])
@example(["eval", "R", "--form", "p", "--form", "r"])
@example(["eval", "-1"])
def test_the_plain_reader_reads_what_argparse_reads(argv):
    # a namespace only where argparse gives the same one; None wherever argparse exits
    plain = cli._read_plain(argv)
    assert plain is None or vars(plain) == _argparse_reading(argv)


_PLAIN_TAILS = {"eval": ["R", "--form", "p"], "divide": ["R", "R"], "verify": ["f", "--json"],
                "catalog": ["show", "S"], "audit": ["3"], "repl": []}


@pytest.mark.parametrize("name", _NAMES)
def test_every_command_has_a_plain_command_line(name):
    argv = [name, *_PLAIN_TAILS.get(name, ["R"])]
    assert vars(cli._read_plain(argv)) == _argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["eval", "--help"], ["eval", "--form=p", "R"], ["eval", "--fo", "p", "R"],
    ["eval", "--", "R"], ["eval", "-1"], ["eval", "R", "--form", "p", "--form", "r"],
    ["eval", "R", "--bogus"], ["eval", "R", "--form"], ["audit", "6"], ["catalog", "add"],
])
def test_every_other_spelling_is_left_to_argparse(argv):
    assert cli._read_plain(argv) is None


def test_a_plain_command_line_builds_no_parser(monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", _raise_fresh)
    out = io.StringIO()
    assert cli.run(["eval", "R", "--form", "p"], out=out) == 0
    assert out.getvalue() == "2*Rp + 1\n"


@pytest.mark.parametrize("arguments", [
    {"items": {"nargs": "*"}},
    {"--count": {"type": int}},
    {"--level": {"choices": ["a", "b"], "type": str}},
    {"id": {"nargs": "?"}, "name": {}},
    {"--all": {"action": "store_true"}, "id": {"nargs": "?"}},
])
def test_an_argument_kind_the_plain_reader_does_not_know_leaves_the_row_to_argparse(arguments):
    assert cli._plain_plan(arguments) is None


@pytest.mark.parametrize("tail, status, text", [
    (["dim", "R^2"], 0, "2\n"), (["dim", "--bogus"], 2, "")])
def test_run_none_reads_sys_argv(tail, status, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["morphcalc", *tail])
    assert cli.run(None) == status
    assert capsys.readouterr().out == text
