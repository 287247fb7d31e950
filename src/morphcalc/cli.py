"""Command-line front end: evaluate, classify, divide, factor, verify, audit, repl.

Exit codes: 0 success (or all records pass), 1 verification failures,
2 parse or usage errors, 3 inexact division, 4 violated preconditions
(not a cell complex, not integer type, zero quantity, no mixed form, a result
over the size budget).  Each error class states its own code and the prefix
of its message (`MorphError.exit_status` and `.kind`), so `run` handles every
`MorphError` in one place.  Each command is one row of `_COMMANDS`: its name,
help text, arguments and handler.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import cache

from . import corpus as corpus_mod
from . import factorize
from . import stability
from .catalog import lookup, registry_table
from .lang import eval_expr, parse
from .quantity import MorphError, MorphPoly, classify, dimension, div_exact, euler, render

# Python's int/str digit limit, absent before Python 3.10.7
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
_FORMS = ["r", "p", "mixed"]


def _eval_source(source: str) -> MorphPoly:
    return eval_expr(parse(source))


def _printing(value_of):
    """The handler that prints value_of(args) and exits 0."""

    def handler(args, out):
        print(value_of(args), file=out)
        return 0

    return handler


def _classification(args):
    c = classify(_eval_source(args.expr))
    flags = [f.name for f in fields(c) if f.name != "label"]
    return f"label: {c.label}\n" + " ".join(
        f"{name}={'yes' if getattr(c, name) else 'no'}" for name in flags)


def _factors(args):
    result = factorize.factor_into_catalog(_eval_source(args.expr))
    return (f"factors: {' * '.join(f.display() for f in result.factors) or '1'}\n"
            f"residual: {render(result.residual, 'r')}")


def _audit(args):
    partition_sum, whole, gap = corpus_mod.bivector_audit(args.n)
    return (f"partition: {render(partition_sum, 'r')}\n"
            f"whole:     {render(whole, 'r')}\n"
            f"gap:       {render(gap, 'r')}")


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
            if len(parts) == 2 and parts[1] in _FORMS:
                form = parts[1]
                print(f"form set to {form}", file=out)
            else:
                print("usage: :form r|p|mixed", file=sys.stderr)
            continue
        try:
            print(render(_eval_source(line), form), file=out)
        except MorphError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return 0


_EXPR = {"expr": {}}
# name, help text, add_argument options by argument name, handler(args, out) -> exit status
_COMMANDS = (
    ("eval", "evaluate an expression", {**_EXPR, "--form": {"choices": _FORMS, "default": "r"}},
     _printing(lambda args: render(_eval_source(args.expr), args.form))),
    ("classify", "object-hood and hierarchy flags", _EXPR, _printing(_classification)),
    ("euler", "Euler characteristic (value at R = -1)", _EXPR,
     _printing(lambda args: euler(_eval_source(args.expr)))),
    ("dim", "dimension (degree in R)", _EXPR,
     _printing(lambda args: dimension(_eval_source(args.expr)))),
    ("normal", "stability normal form of a cell complex", _EXPR,
     _printing(lambda args: stability.stable_normal_form(
         stability.CellComplex(_eval_source(args.expr))).describe())),
    ("divide", "exact division of two expressions", {"numerator": {}, "denominator": {}},
     _printing(lambda args: render(
         div_exact(_eval_source(args.numerator), _eval_source(args.denominator)), "r"))),
    ("factor", "factor into catalog irreducibles", _EXPR, _printing(_factors)),
    ("verify", "verify an identity corpus file",
     {"file": {}, "--json": {"action": "store_true"}}, _cmd_verify),
    ("catalog", "list or show catalog entries",
     {"action": {"choices": ["list", "show"]}, "id": {"nargs": "?"}}, _cmd_catalog),
    ("audit", "bivector partition audit", {"n": {"type": int, "choices": [3, 4, 5]}},
     _printing(_audit)),
    ("repl", "interactive line-at-a-time calculator", {}, _cmd_repl),
)


@cache  # parse_args returns a fresh namespace, so one parser serves every call
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="morphcalc",
        description="exact calculator for quantity polynomials in R and Rp",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
        p.set_defaults(handler=handler)
    return ap


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    limit = _get_digit_limit()
    _set_digit_limit(0)  # an exact result prints every digit; the caller's limit comes back
    try:
        return args.handler(args, out)
    except MorphError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _set_digit_limit(limit)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
