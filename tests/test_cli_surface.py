"""The command line's surface: exit statuses, result text, help and error messages."""

import io
import json
import shutil
import sys
from pathlib import Path

import pytest

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
