"""Command-line front end: evaluate, classify, divide, factor, verify, audit, repl.

Exit codes: 0 success (or all records pass), 1 verification failures,
2 parse or usage errors, 3 inexact division, 4 violated preconditions
(not a cell complex, not integer type, zero quantity, no mixed form, a result
over the size budget).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import cache

from . import corpus as corpus_mod
from . import factorize
from . import stability
from .catalog import (
    BadParams,
    InternalDivisionFailed,
    UnknownEntry,
    lookup,
    registry_table,
)
from .lang import ExprSyntaxError, UnknownName, eval_expr, parse
from .quantity import (
    DivisionByZero,
    MixedFormUnavailable,
    MorphPoly,
    NonZeroRemainder,
    NotSemiIntegrable,
    SizeLimitExceeded,
    ZeroQuantity,
    classify,
    dimension,
    div_exact,
    euler,
    render,
)

_USAGE_ERRORS = (ExprSyntaxError, UnknownName, UnknownEntry, BadParams,
                 corpus_mod.FormatError, corpus_mod.DuplicateName)
_DIVISION_ERRORS = (NonZeroRemainder, DivisionByZero, InternalDivisionFailed)
_PRECONDITION_ERRORS = (stability.InvalidComplex, factorize.NotIntegerType,
                        ZeroQuantity, MixedFormUnavailable, NotSemiIntegrable,
                        stability.BoundExceeded, SizeLimitExceeded)
# Python's int/str digit limit, absent before Python 3.10.7
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _eval_source(source: str) -> MorphPoly:
    return eval_expr(parse(source))


def _print_classification(q: MorphPoly, out):
    c = classify(q)
    print(f"label: {c.label}", file=out)
    flags = [f.name for f in fields(c) if f.name != "label"]
    print(" ".join(f"{name}={'yes' if getattr(c, name) else 'no'}" for name in flags), file=out)


@cache  # parse_args returns a fresh namespace, so one parser serves every call
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="morphcalc",
        description="exact calculator for quantity polynomials in R and Rp",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--form", choices=["r", "p", "mixed"], default="r")

    p = sub.add_parser("classify", help="object-hood and hierarchy flags")
    p.add_argument("expr")

    p = sub.add_parser("euler", help="Euler characteristic (value at R = -1)")
    p.add_argument("expr")

    p = sub.add_parser("dim", help="dimension (degree in R)")
    p.add_argument("expr")

    p = sub.add_parser("normal", help="stability normal form of a cell complex")
    p.add_argument("expr")

    p = sub.add_parser("divide", help="exact division of two expressions")
    p.add_argument("numerator")
    p.add_argument("denominator")

    p = sub.add_parser("factor", help="factor into catalog irreducibles")
    p.add_argument("expr")

    p = sub.add_parser("verify", help="verify an identity corpus file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?")

    p = sub.add_parser("audit", help="bivector partition audit")
    p.add_argument("n", type=int, choices=[3, 4, 5])

    sub.add_parser("repl", help="interactive line-at-a-time calculator")
    return ap


def _cmd_eval(args, out):
    q = _eval_source(args.expr)
    print(render(q, args.form), file=out)
    return 0


def _cmd_classify(args, out):
    _print_classification(_eval_source(args.expr), out)
    return 0


def _cmd_euler(args, out):
    print(euler(_eval_source(args.expr)), file=out)
    return 0


def _cmd_dim(args, out):
    print(dimension(_eval_source(args.expr)), file=out)
    return 0


def _cmd_normal(args, out):
    c = stability.CellComplex(_eval_source(args.expr))
    nf = stability.stable_normal_form(c)
    print(nf.describe(), file=out)
    return 0


def _cmd_divide(args, out):
    q = div_exact(_eval_source(args.numerator), _eval_source(args.denominator))
    print(render(q, "r"), file=out)
    return 0


def _cmd_factor(args, out):
    result = factorize.factor_into_catalog(_eval_source(args.expr))
    print(f"factors: {' * '.join(f.display() for f in result.factors) or '1'}", file=out)
    print(f"residual: {render(result.residual, 'r')}", file=out)
    return 0


def _cmd_verify(args, out):
    with open(args.file, "rb") as handle:
        records = corpus_mod.load_corpus(handle)
    report = corpus_mod.verify_corpus(records)
    print(report.to_json() if args.json else report.to_text(), file=out)
    return report.exit_status


def _cmd_catalog(args, out):
    if args.action == "list":
        rows = registry_table()
        id_w = max(len(r[0]) for r in rows)
        ar_w = max(len(r[1]) for r in rows)
        va_w = max(len(r[2]) for r in rows)
        for entry_id, arity, validity, citation in rows:
            print(
                f"{entry_id.ljust(id_w)}  {arity.ljust(ar_w)}  "
                f"{validity.ljust(va_w)}  {citation}",
                file=out,
            )
        return 0
    if not args.id:
        print("catalog show needs an entry id", file=sys.stderr)
        return 2
    spec = lookup(args.id)
    print(f"id: {spec.id}", file=out)
    print(f"parameters: {spec.arity}", file=out)
    print(f"valid for: {spec.validity}", file=out)
    print(f"about: {spec.citation}", file=out)
    return 0


def _cmd_audit(args, out):
    partition_sum, whole, gap = corpus_mod.bivector_audit(args.n)
    print(f"partition: {render(partition_sum, 'r')}", file=out)
    print(f"whole:     {render(whole, 'r')}", file=out)
    print(f"gap:       {render(gap, 'r')}", file=out)
    return 0


def _cmd_repl(args, out):
    form = "r"
    print("morphcalc repl; :help for commands", file=out)
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if line == ":quit":
            break
        if line == ":help":
            print(":quit  :form r|p|mixed  :help", file=out)
            continue
        if line.startswith(":form"):
            parts = line.split()
            if len(parts) == 2 and parts[1] in ("r", "p", "mixed"):
                form = parts[1]
                print(f"form set to {form}", file=out)
            else:
                print("usage: :form r|p|mixed", file=sys.stderr)
            continue
        try:
            print(render(_eval_source(line), form), file=out)
        except (*_USAGE_ERRORS, *_DIVISION_ERRORS, *_PRECONDITION_ERRORS) as exc:
            print(f"error: {exc}", file=sys.stderr)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "euler": _cmd_euler,
    "dim": _cmd_dim,
    "normal": _cmd_normal,
    "divide": _cmd_divide,
    "factor": _cmd_factor,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "audit": _cmd_audit,
    "repl": _cmd_repl,
}


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    limit = _get_digit_limit()
    _set_digit_limit(0)  # an exact result prints every digit; the caller's limit comes back
    try:
        return _COMMANDS[args.command](args, out)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DIVISION_ERRORS as exc:
        print(f"inexact division: {exc}", file=sys.stderr)
        return 3
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _set_digit_limit(limit)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
