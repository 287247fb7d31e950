import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import morphcalc
from morphcalc.cli import run
from morphcalc.corpus import (
    DuplicateName,
    FormatError,
    bivector_audit,
    load_corpus,
    verify_corpus,
)
from morphcalc.lang import ExprSyntaxError, eval_expr, parse
from morphcalc.quantity import MorphError, MorphPoly, SizeLimitExceeded, render

R = MorphPoly.line()


def _shipped_text():
    return morphcalc.corpus_path().read_text(encoding="utf-8")


# -- corpus loading -----------------------------------------------------------

def test_load_corpus_example_line():
    recs = load_corpus("hopf-s7 ; S(7) ; == ; (R^4+1)*S(3) ; hopf factorization\n")
    assert len(recs) == 1
    rec = recs[0]
    assert rec.name == "hopf-s7"
    assert rec.expect == "equal"
    assert rec.citation == "hopf factorization"


def test_load_corpus_skips_comments_and_blanks():
    recs = load_corpus("# nothing\n\nx ; 1 ; == ; 1 ; one\n")
    assert [r.name for r in recs] == ["x"]


def test_load_corpus_field_count_error():
    with pytest.raises(FormatError) as err:
        load_corpus("bad ; 1 ; == ; 1\n")
    assert err.value.line_no == 1


def test_load_corpus_bad_relation():
    with pytest.raises(FormatError):
        load_corpus("bad ; 1 ; = ; 1 ; tag\n")


def test_load_corpus_duplicate_name():
    text = "a ; 1 ; == ; 1 ; t\na ; 2 ; == ; 2 ; t\n"
    with pytest.raises(DuplicateName):
        load_corpus(text)


def test_load_corpus_parse_error_becomes_format_error():
    with pytest.raises(FormatError) as err:
        load_corpus("first ; 1 ; == ; 1 ; t\nbad ; R^-1 ; == ; 1 ; t\n")
    assert err.value.line_no == 2


_DIGIT_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                  reason="this Python has no int/str digit limit")


@_DIGIT_LIMIT
def test_a_literal_over_the_digit_limit_is_a_syntax_error():
    literal = "9" * 5000
    with pytest.raises(ExprSyntaxError) as err:
        parse("R + " + literal)
    assert err.value.position == 4
    with pytest.raises(FormatError) as err:
        load_corpus(f"first ; 1 ; == ; 1 ; t\nbig ; {literal} ; == ; 1 ; t\n")
    assert err.value.line_no == 2


@_DIGIT_LIMIT
def test_a_result_over_the_digit_limit_raises_size_limit_exceeded():
    with pytest.raises(SizeLimitExceeded, match="digit limit"):
        render(MorphPoly.constant(7) ** 6000)


@_DIGIT_LIMIT
def test_a_record_over_the_digit_limit_fails_on_its_own():
    # rendering fails like evaluating: the record fails, the report survives
    report = verify_corpus(load_corpus("a ; 7^6000 ; == ; 7^6000 + 1 ; t\nb ; 1 ; == ; 1 ; t"))
    big, small = report.outcomes
    assert big.outcome == "fail" and "digit limit" in big.error
    assert (big.lhs, big.rhs, big.difference) == ("7^6000", "7^6000 + 1", None)
    assert small.outcome == "pass"
    assert report.exit_status == 1


def test_load_corpus_accepts_bytes_and_streams(tmp_path):
    text = "x ; 1 ; == ; 1 ; t\n"
    assert len(load_corpus(text.encode())) == 1
    assert len(load_corpus(io.StringIO(text))) == 1
    path = tmp_path / "c.morph"
    path.write_text(text)
    assert len(load_corpus(path)) == 1


# -- verification -------------------------------------------------------------

def test_verify_corpus_passes_and_fails():
    text = (
        "good ; S(3) ; == ; SS(2)*S(1) ; first hopf fibration\n"
        "unequal ; R^2-R+1 ; != ; R^2+1 ; phantom plane is not a sphere\n"
        "wrong ; R ; == ; R + 1 ; off by a point\n"
        "error ; (R^2+1)/(R+1) ; == ; 1 ; inexact\n"
    )
    report = verify_corpus(load_corpus(text))
    outcomes = {o.name: o for o in report.outcomes}
    assert outcomes["good"].outcome == "pass"
    assert outcomes["unequal"].outcome == "pass"
    assert outcomes["wrong"].outcome == "fail"
    assert outcomes["wrong"].difference == "0 - 1"
    assert outcomes["error"].outcome == "fail"
    assert "remainder" in outcomes["error"].error
    assert report.passed == 2 and report.failed == 2
    assert report.exit_status == 1


def test_every_failing_record_renders_both_sides():
    text = (
        "wrong ; R ; == ; R + 1 ; off by a point\n"
        "same ; 1 + R ; != ; R + 1 ; equal sides where unequal ones are expected\n"
        "half ; Rp ; == ; R/2 ; off by a half\n"
    )
    outcomes = verify_corpus(load_corpus(text)).outcomes
    assert [(o.outcome, o.lhs, o.rhs, o.difference) for o in outcomes] == [
        ("fail", "R", "R + 1", "0 - 1"),
        ("fail", "R + 1", "R + 1", None),
        ("fail", "1/2*R - 1/2", "1/2*R", "0 - 1/2"),
    ]


def test_the_verify_report_renders_each_side_of_every_record():
    code, text = _run(["verify", str(morphcalc.corpus_path()), "--json"])
    records = load_corpus(_shipped_text())
    rows = json.loads(text)["records"]
    assert code == 0 and len(rows) == len(records)
    for row, record in zip(rows, records):
        assert row["lhs"] == render(eval_expr(record.lhs), "r"), record.name
        assert row["rhs"] == render(eval_expr(record.rhs), "r"), record.name


def test_verify_klein_record():
    report = verify_corpus(load_corpus(
        "klein ; (RP(2)-1)+(R+1) ; == ; (R+1)*(R+1) ; klein bottle blow-up\n"
    ))
    assert report.exit_status == 0


def test_report_determinism():
    recs = load_corpus(_shipped_text())
    a = verify_corpus(recs).to_text()
    b = verify_corpus(load_corpus(_shipped_text())).to_text()
    assert a == b
    assert verify_corpus(recs).to_json() == verify_corpus(recs).to_json()


def test_shipped_corpus_all_pass():
    report = verify_corpus(load_corpus(_shipped_text()))
    assert report.failed == 0
    assert len(report.outcomes) >= 40


# -- bivector audit -----------------------------------------------------------

def test_bivector_audit_n3():
    partition, whole, gap = bivector_audit(3)
    assert whole == R ** 3 - 1
    assert partition == whole
    assert gap.is_zero()


def test_bivector_audit_n4():
    partition, whole, gap = bivector_audit(4)
    assert partition == (R ** 3 + R + 2) * (R ** 3 - 1)
    assert whole == R ** 6 - 1
    assert gap == (R + 1) * (R ** 3 - 1)


def test_bivector_audit_n5():
    partition, whole, gap = bivector_audit(5)
    assert partition == (R ** 5 - 1) * (R ** 5 + R ** 3 + 2 * R ** 2 + 2 * R + 2)
    assert whole == R ** 10 - 1
    assert gap == (R ** 5 - 1) * ((R + 1) * (R ** 2 + R + 1))


def test_bivector_audit_bad_n():
    from morphcalc.catalog import BadParams

    with pytest.raises(BadParams):
        bivector_audit(6)


# -- command line ---------------------------------------------------------------

def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_cli_eval_forms():
    code, text = _run(["eval", "S(2)"])
    assert code == 0 and text.strip() == "2*R^2 + 2*R + 2"
    code, text = _run(["eval", "S(2)", "--form", "p"])
    assert code == 0 and text.strip() == "8*Rp^2 + 12*Rp + 6"
    code, text = _run(["eval", "RPh(4)", "--form", "mixed"])
    assert code == 0 and text.strip() == "2*Rp*R^3 + 2*Rp*R + 1"


def test_cli_eval_mixed_degree_5():
    # the exhaustive search did not finish on this input in 60 s
    assert _run(["eval", "3*Rp^2*R^2 + 2*R^5", "--form", "mixed"]) == (
        0, "3*Rp^2*R^2 + 2*R^5\n")


def test_cli_eval_g73():
    code, text = _run(["eval", "G(7,3)", "--form", "r"])
    assert code == 0
    code2, expanded = _run(["eval", "RP(6)*RP(4)*RPh(2)"])
    assert text == expanded


def test_cli_exit_codes():
    assert _run(["eval", "(R^2+1)/(R+1)"])[0] == 3
    assert _run(["eval", "R^-1"])[0] == 2
    assert _run(["eval", "Nope(2)"])[0] == 2
    assert _run(["nosuchcommand"])[0] == 2
    assert _run(["normal", "R - 2"])[0] == 4
    assert _run(["factor", "Rp"])[0] == 4
    assert _run(["dim", "0"])[0] == 4
    assert _run(["eval", "R - 2", "--form", "mixed"])[0] == 4


@pytest.mark.parametrize("expr", [
    "R^99999999999", "S(999999999)", "Rp^3000000", "O(10000)",
    "G(20000000,10000000)", "Gh(20000000,10000000)", "O(1000000000)",
    "SOpq(100,100)", "T(500000,500000)", "NC(1000000)", "U(100)", "Sp(80)",
    "NGs(200000,20,20)", "NGcs(200000,20,20)", "NGs(400000,8,8)", "NGcs(100000,20,20)",
    "S(300000)*S(300000)", "(2*R)^5000000", "R^2100000*R^2100000",
])
def test_cli_results_over_the_size_budget_exit_4(capsys, expr):
    t0 = time.monotonic()
    assert _run(["eval", expr]) == (4, "")
    assert time.monotonic() - t0 < 1
    assert "over the size budget" in capsys.readouterr().err


def test_cli_deep_expressions_are_usage_errors(capsys):
    for expr in ["(" * 3000 + "R" + ")" * 3000, "R" + "-0" * 3000, "R" + "/1" * 3000]:
        assert _run(["eval", expr])[0] == 2
        assert "expression nested too deeply" in capsys.readouterr().err
    with pytest.raises(FormatError):
        load_corpus("deep ; " + "(" * 3000 + "R" + ")" * 3000 + " ; == ; R ; nesting\n")


def test_cli_divide():
    code, text = _run(["divide", "S(5)*S(4)*S(3)", "S(2)*S(1)*S(0)"])
    assert code == 0
    code2, expected = _run(["eval", "G(6,3)"])
    assert text == expected
    assert _run(["divide", "R^2+1", "R+1"])[0] == 3


# stdout, stderr and exit status of `divide`, recorded from the Fraction-backed
# implementation that the integer representation replaced
_DIVIDE_GOLDEN = [
    # remainders with half-integral Rp coefficients
    ("Rp^3 + Rp", "2*Rp^2 + 1", 3, "", "inexact division: non-zero remainder 1/2*Rp\n"),
    ("R^3 + Rp", "4*Rp^2 + 2", 3, "", "inexact division: non-zero remainder 3*Rp - 5\n"),
    # negative leading coefficients
    ("R", "0 - 2", 0, "0 - 1/2*R\n", ""),
    ("R^2 + 1", "0 - 2*R + 1", 3, "", "inexact division: non-zero remainder 5/4\n"),
    ("R^2 - 1", "0 - R - 1", 0, "0 - R + 1\n", ""),
    # quotients and remainders that are not dyadic
    ("1", "3", 3, "",
     "inexact division: quotient needs non power-of-two denominators; no quantity solution\n"),
    ("R^3", "3*R", 3, "",
     "inexact division: quotient needs non power-of-two denominators; no quantity solution\n"),
    ("Rp", "3*Rp + 1", 3, "", "inexact division: non-zero remainder 0 - 1/3\n"),
    # zero
    ("R", "0", 3, "", "inexact division: division by the zero quantity\n"),
    ("0", "R", 0, "0\n", ""),
    # exact and inexact divisions with even leading coefficients
    ("R^2 + 1", "R + 1", 3, "", "inexact division: non-zero remainder 2\n"),
    ("S(5)*S(4)*S(3)", "S(2)*S(1)*S(0)", 0,
     "R^9 + R^8 + 2*R^7 + 3*R^6 + 3*R^5 + 3*R^4 + 3*R^3 + 2*R^2 + R + 1\n", ""),
    ("6*R^2", "4*R", 0, "3/2*R\n", ""),
    ("R +", "R", 2, "", "error: unexpected 'end of input' (at position 3)\n"),
]


@pytest.mark.parametrize("num,den,code,stdout,stderr", _DIVIDE_GOLDEN)
def test_cli_divide_golden(capsys, num, den, code, stdout, stderr):
    assert _run(["divide", num, den]) == (code, stdout)
    assert capsys.readouterr().err == stderr


# stdout, stderr and exit status of `classify`, `normal` and `verify --json`,
# recorded from the implementation with hand-written flag lists, term casing
# and JSON rows that the dataclass fields and `render` replaced
_FLAGS = ("is_object={} integrable={} semi_integrable={} integer_type={} "
          "half_integer_type={} just_another_type={}\n")
_CLASSIFY_GOLDEN = [
    ("1 - R", 0, "label: NotAnObject\n" + _FLAGS.format(*["no"] * 6), ""),
    ("Rp", 0,
     "label: HalfIntegerType\n" + _FLAGS.format("yes", "no", "yes", "no", "yes", "no"), ""),
    ("R^2 + 2*R", 0,
     "label: Integrable\n" + _FLAGS.format("yes", "yes", "yes", "yes", "no", "no"), ""),
    ("RPh(2)", 0,
     "label: SemiIntegrableIntegerType\n" + _FLAGS.format("yes", "no", "yes", "yes", "no", "no"),
     ""),
]


@pytest.mark.parametrize("expr,code,stdout,stderr", _CLASSIFY_GOLDEN)
def test_cli_classify_golden(capsys, expr, code, stdout, stderr):
    assert _run(["classify", expr]) == (code, stdout)
    assert capsys.readouterr().err == stderr


_NORMAL_GOLDEN = [
    # n = 0: count 1 and above
    ("1", 0, "1\n", ""),
    ("3", 0, "3\n", ""),
    # n = 1: a*R, then R + b
    ("R", 0, "R\n", ""),
    ("2*R + 1", 0, "R\n", ""),
    ("3*R", 0, "3*R\n", ""),
    ("R + 1", 0, "R + 1\n", ""),
    ("R + 3", 0, "R + 3\n", ""),
    # n = 2
    ("R^2", 0, "R^2\n", ""),
    ("R^2 + 2*R + 2", 0, "R^2\n", ""),
    ("3*R^2 + R", 0, "2*R^2\n", ""),
    ("R^2 + R", 0, "R^2 + R\n", ""),
    ("R^2 + 3*R", 0, "R^2 + 3*R\n", ""),
    # n = 3
    ("R^3", 0, "R^3\n", ""),
    ("R^3 + 2*R^2 + R", 0, "R^3 + R^2\n", ""),
    ("R^3 + 3", 0, "R^3 + 3*R^2\n", ""),
    ("2*R^3 + R^2", 0, "R^3\n", ""),
    ("2*R^3 + R", 0, "3*R^3\n", ""),
    # not cell complexes
    ("1 - R", 4, "",
     "precondition violated: a cell complex needs non-negative integer R-coefficients "
     "with positive leading coefficient\n"),
    ("0", 4, "", "precondition violated: the zero quantity is not a cell complex\n"),
]


@pytest.mark.parametrize("expr,code,stdout,stderr", _NORMAL_GOLDEN)
def test_cli_normal_golden(capsys, expr, code, stdout, stderr):
    assert _run(["normal", expr]) == (code, stdout)
    assert capsys.readouterr().err == stderr


_VERIFY_JSON_GOLDEN = """{
  "summary": {
    "pass": 1,
    "fail": 2
  },
  "records": [
    {
      "name": "good",
      "expect": "equal",
      "outcome": "pass",
      "lhs": "2*R^3 + 2*R^2 + 2*R + 2",
      "rhs": "2*R^3 + 2*R^2 + 2*R + 2"
    },
    {
      "name": "wrong",
      "expect": "equal",
      "outcome": "fail",
      "lhs": "R^2",
      "rhs": "R^2 + 1/2*R - 1/2",
      "difference": "0 - 1/2*R + 1/2"
    },
    {
      "name": "broken",
      "expect": "equal",
      "outcome": "fail",
      "lhs": "R/(R+1)",
      "rhs": "1",
      "error": "non-zero remainder 0 - 1"
    }
  ]
}
"""


def test_cli_verify_json_golden(tmp_path, capsys):
    path = tmp_path / "three.morph"
    path.write_text("good ; S(3) ; == ; (R^2+1)*S(1) ; hopf\n"
                    "wrong ; R^2 ; == ; C + Rp ; nothing\n"
                    "broken ; R/(R+1) ; == ; 1 ; division\n")
    assert _run(["verify", str(path), "--json"]) == (1, _VERIFY_JSON_GOLDEN)
    assert capsys.readouterr().err == ""


def test_cli_parser_carries_nothing_between_calls(capsys):
    assert _run(["eval", "R^2 - 1", "--form", "mixed"]) == (0, "2*Rp*R + 2*Rp\n")
    assert _run(["eval", "R^2 - 1"]) == (0, "R^2 - 1\n")
    assert _run(["eval"])[0] == 2
    assert _run(["--help"])[0] == 0
    assert "usage: morphcalc" in capsys.readouterr().out
    assert _run(["eval", "R^2 - 1", "--form", "p"]) == (0, "4*Rp^2 + 4*Rp\n")
    assert _run(["eval", "R^2 - 1"]) == (0, "R^2 - 1\n")


def test_cli_classify_euler_dim_normal():
    code, text = _run(["classify", "1 - R"])
    assert code == 0 and "NotAnObject" in text
    code, text = _run(["euler", "RPh(2)"])
    assert code == 0 and text.strip() == "3"
    code, text = _run(["dim", "G(4,2)"])
    assert code == 0 and text.strip() == "4"
    code, text = _run(["normal", "3*R + 4"])
    assert code == 0 and text.strip() == "R + 2"


def test_cli_factor():
    code, text = _run(["factor", "G(7,3)"])
    assert code == 0
    assert "RP(6) * RP(4) * RPh(2)" in text
    assert "residual: 1" in text


def test_cli_catalog():
    code, text = _run(["catalog", "list"])
    assert code == 0
    assert any(line.startswith("G ") for line in text.splitlines())
    code, text = _run(["catalog", "show", "Spin"])
    assert code == 0 and "m in 3..6" in text
    assert _run(["catalog", "show", "Nope"])[0] == 2
    assert _run(["catalog", "show"])[0] == 2


def test_cli_audit():
    code, text = _run(["audit", "3"])
    assert code == 0 and "gap:       0" in text
    code, text = _run(["audit", "4"])
    assert code == 0 and "gap:       R^4 + R^3 - R - 1" in text


def test_cli_verify_shipped_corpus():
    code, text = _run(["verify", str(morphcalc.corpus_path())])
    assert code == 0
    assert "failed 0" in text


def test_cli_verify_json_schema():
    code, text = _run(["verify", str(morphcalc.corpus_path()), "--json"])
    assert code == 0
    data = json.loads(text)
    assert set(data) == {"summary", "records"}
    assert set(data["summary"]) == {"pass", "fail"}
    assert data["summary"]["fail"] == 0
    for row in data["records"]:
        assert {"name", "expect", "outcome", "lhs", "rhs"} <= set(row)


def test_cli_verify_detects_perturbation(tmp_path):
    text = _shipped_text().replace(
        "hopf-s3 ; S(3) ; == ; (R^2+1)*S(1) ; hopf factorization",
        "hopf-s3 ; S(3) ; == ; (R^2+1)*S(1) + 1 ; hopf factorization",
    )
    assert text != _shipped_text()
    path = tmp_path / "perturbed.morph"
    path.write_text(text)
    code, out = _run(["verify", str(path)])
    assert code == 1
    assert "FAIL hopf-s3" in out


def test_cli_verify_missing_file():
    assert _run(["verify", "/nonexistent/corpus.morph"])[0] == 2


def test_cli_verify_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.morph"
    path.write_bytes(b"x ; 1 ; == ; 1 ; one\ny ; 1 ; == ; 1 ; caf\xe9\n")
    assert _run(["verify", str(path)])[0] == 2
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8 (byte 0xe9)\n"
    with pytest.raises(FormatError, match="line 1: "):
        load_corpus(b"\xff ; 1 ; == ; 1 ; c\n")


def test_cli_verify_bom_before_a_comment(tmp_path, capsys):
    path = tmp_path / "bom.morph"
    path.write_bytes("# saved with a byte-order mark\nx ; 1 ; == ; 1 ; one\n".encode("utf-8-sig"))
    assert _run(["verify", str(path)]) == (0, "ok   x\npassed 1  failed 0\n")
    assert capsys.readouterr().err == ""


def test_load_corpus_bom_is_not_part_of_the_first_name():
    text = "sph ; S(1) ; == ; 2*R + 2 ; circle\n"
    assert [r.name for r in load_corpus("\ufeff" + text)] == ["sph"]
    assert [r.name for r in load_corpus(text.encode("utf-8-sig"))] == ["sph"]
    assert [r.name for r in load_corpus("\ufeff\ufeff" + text)] == ["\ufeffsph"]  # only one


def test_cli_output_determinism():
    assert _run(["eval", "G(6,3)"]) == _run(["eval", "G(6,3)"])
    assert _run(["verify", str(morphcalc.corpus_path()), "--json"]) == _run(
        ["verify", str(morphcalc.corpus_path()), "--json"]
    )


def _run_process(*argv):
    """Run `python -m morphcalc.cli` as its own process: (exit code, stdout, stderr)."""
    src = str(Path(morphcalc.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "morphcalc.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv,code", [
    (["factor", "S(20000)"], 0),
    (["eval", "7^6000"], 0),  # over one buffer, so the handler's own write fails
    (["verify", "{corpus}"], 1),
    (["verify", "{corpus}", "--json"], 1),
    (["repl"], 0),
    (["--help"], 0),
])
def test_a_reader_that_closed_stdout_changes_neither_stderr_nor_the_status(
        tmp_path, argv, code, unbuffered):
    # the read end is closed before the command starts, so its first write to stdout fails,
    # in the handler when unbuffered or over one buffer, else in the flush at exit
    corpus = tmp_path / "two.morph"
    corpus.write_text("good ; S(3) ; == ; SS(2)*S(1) ; hopf\nwrong ; R ; == ; R + 1 ; off\n")
    src = str(Path(morphcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "morphcalc.cli", *(a.format(corpus=corpus) for a in argv)],
            input="R + 1\n", stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")


def test_the_repl_stops_reading_once_its_reader_has_gone():
    # each line costs a dense 2001 x 2001 multiply; with stdout's read end closed
    # before the REPL starts, not one of them should be evaluated
    line, lines = "S(2000)*S(2000)", 60
    start = time.perf_counter()
    eval_expr(parse(line))
    one_line = time.perf_counter() - start
    src = str(Path(morphcalc.__file__).resolve().parent.parent)
    read, write = os.pipe()
    os.close(read)
    try:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "morphcalc.cli", "repl"], input=f"{line}\n" * lines,
            stdout=write, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        elapsed = time.perf_counter() - start
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    assert elapsed < lines * one_line / 6, (elapsed, one_line)


def test_importing_the_command_line_loads_no_code_generator():
    # dataclasses generates each record's methods by exec at import, and imports
    # inspect; argparse (with gettext), json and importlib.resources are loaded
    # only by the paths that use them; -S keeps site's own imports out of the count
    src = str(Path(morphcalc.__file__).resolve().parent.parent)
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "json", "importlib.resources"}
    probe = f"import sys, morphcalc.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_process_prints_every_digit_of_a_large_result():
    code, out, err = _run_process("eval", "7^6000")
    digits = out.strip()
    assert (code, err) == (0, "")
    assert digits.isdigit() and len(digits) == 5071
    assert int(digits[-30:]) == pow(7, 6000, 10 ** 30)


def test_cli_run_prints_every_digit_in_process():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = _run(["eval", "7^6000"])
    digits = out.strip()
    assert code == 0
    assert digits.isdigit() and len(digits) == 5071
    assert int(digits[-30:]) == pow(7, 6000, 10 ** 30)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cli_process_echoes_a_5000_digit_literal():
    literal = "9" * 5000
    assert _run_process("eval", literal) == (0, f"{literal}\n", "")


def test_cli_repl(monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("S(1)\n:form p\nS(1)\nR^-1\n:quit\n")
    )
    code, text = _run(["repl"])
    assert code == 0
    lines = text.splitlines()
    assert "2*R + 2" in lines
    assert "4*Rp + 4" in lines


def test_cli_repl_mixed_form(monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO(":form mixed\n3*Rp^2*R^2 + 2*R^5\n:quit\n")
    )
    code, text = _run(["repl"])
    assert code == 0
    assert "3*Rp^2*R^2 + 2*R^5" in text.splitlines()


# -- fuzzing: every input ends in a value, a MorphError or an exit code 0-4 ----


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
@example("9" * 5000)
@example("a ; 1 ; == ; " + "9" * 5000 + " ; over the digit limit")
def test_any_text_evaluates_loads_or_raises_a_morph_error(source):
    for attempt in (lambda: eval_expr(parse(source)), lambda: load_corpus(source)):
        try:
            attempt()
        except MorphError:
            pass


_TOKENS = st.one_of(
    st.sampled_from(["R", "Rp", "C", "H", "S", "SS", "CP", "G", "RPh", "O",
                     "+", "-", "*", "/", "^", "(", ")", ","]),
    st.integers(0, 40).map(str),
)


_SOURCES = st.lists(_TOKENS, max_size=40).map(" ".join)  # spaces keep numbers <= 40


@settings(max_examples=300, deadline=None)
@given(_SOURCES, _SOURCES)
@example("7 ^ 6000", "7 ^ 6000 + 1")
def test_any_token_sequence_exits_0_to_4(source, other):
    # no "--form mixed": its search over halfline bounds may run for minutes
    for argv in (["eval", source], ["eval", source, "--form", "p"], ["divide", source, other],
                 ["classify", source], ["normal", source], ["factor", source]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, out=io.StringIO())
        assert code in range(5), (argv, err.getvalue())
    # the library verifier: only a MorphError leaves load_corpus, and
    # verify_corpus gives the record an outcome instead of raising
    try:
        records = load_corpus(f"fz ; {source} ; == ; {other} ; fuzz")
    except MorphError:
        return
    assert len(verify_corpus(records).outcomes) == 1


_REPORTS = ("error: ", "inexact division: ", "precondition violated: ")


# no ":form mixed": its search over halfline bounds may run for minutes
@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_SOURCES, st.sampled_from([":form r", ":form p", ":form x", ":help"])),
                max_size=6))
def test_the_repl_reads_on_after_every_line(lines):
    err = io.StringIO()
    with (mock.patch.object(sys, "stdin", io.StringIO("".join(f"{line}\n" for line in lines))),
          contextlib.redirect_stderr(err)):
        assert run(["repl"], out=io.StringIO()) == 0
    for line in err.getvalue().splitlines():
        assert line.startswith(_REPORTS) or line == "usage: :form r|p|mixed", line


_NO_FLAGS = ("is_object=no integrable=no semi_integrable=no integer_type=no "
             "half_integer_type=no just_another_type=no")


@pytest.mark.parametrize("argv,code,out,err", [
    (("factor", "S(20000)"), 0, "factors: RP(20000)\nresidual: 2\n", ""),
    (("divide", "S(12000)", "S(5999)"), 3, "", "inexact division: non-zero remainder 2\n"),
    (("classify", "0-R^20000"), 0, f"label: NotAnObject\n{_NO_FLAGS}\n", ""),
    (("eval", "R^20000", "--form", "p"), 4, "", "precondition violated: the halfline form "
     "would hold about 800360016 bits, over the view budget of 33554432\n"),
    (("eval", "S(60000)/S(30000)"), 3, "", "inexact division: non-zero remainder of degree 29999\n"),
    (("eval", "S(20000)", "--form", "mixed"), 4, "", "precondition violated: the halfline form "
     "would hold about 800380017 bits, over the view budget of 33554432\n"),
    (("factor", "(S(20000))"), 0, "factors: RP(20000)\nresidual: 2\n", ""),
    (("eval", "Rp^5*R^4 + R^9", "--form", "mixed"), 4, "", "precondition violated: the mixed-form "
     "search tried 8388702 values, over the search budget of 8388608\n"),
    (("eval", "Rp^6*R^100 + R^106", "--form", "mixed"), 4, "", "precondition violated: the "
     "mixed-form search tried 3089940673 values, over the search budget of 8388608\n"),
    (("eval", "Rp^3*R^10 + R^13", "--form", "mixed"), 0, "Rp^3*R^10 + R^13\n", ""),
    (("eval", "0-R^20000", "--form", "mixed"), 4, "",
     "precondition violated: 0 - R^20000 is not semi-integrable\n"),
])
def test_large_inputs_answer_within_a_deadline(argv, code, out, err):
    t0 = time.monotonic()
    assert _run_process(*argv) == (code, out, err)
    assert time.monotonic() - t0 < 10
