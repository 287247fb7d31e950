"""Command-line front end: evaluate, classify, divide, factor, verify, audit, repl.

Exit codes: 0 success (or all records pass), 1 verification failures,
2 parse or usage errors, 3 inexact division, 4 violated preconditions
(not a cell complex, not integer type, zero quantity, no mixed form, a result
over the size budget).  Each error class states its own code and the prefix
of its message (`MorphError.exit_status` and `.kind`), so every failure, in
`run` as in the REPL, is one report `kind: message` on stderr (`_report`), and
the REPL reads on.  A reader that closes stdout early changes neither stderr
nor the exit status (`_print`), and the REPL stops reading
then.  Each command is one row of `_COMMANDS`: its
name, help text, arguments and handler.  A plain command line is read straight
from its row (`_read_plain`); argparse reads help requests, usage errors and
every other spelling, with the same output as before, and is imported only then.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from types import SimpleNamespace

from . import corpus as corpus_mod
from . import factorize
from . import stability
from .catalog import lookup, registry_table
from .lang import eval_expr, parse
from .quantity import (
    BASES, MorphError, MorphPoly, UsageError, classify, dimension, div_exact, euler, render)

# Python's int/str digit limit, absent before Python 3.10.7
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
_FORM_USAGE = f":form {'|'.join(BASES)}"


def _eval_source(source: str) -> MorphPoly:
    return eval_expr(parse(source))


def _print(text, out, end="\n"):
    """Print text to out and flush it; False if its reader has closed out, which is no error.

    The closed pipe's descriptor then points at os.devnull, as Python's `signal`
    docs advise, so nothing left in the buffer fails again at exit.
    """
    try:
        print(text, file=out, end=end, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return False
    return True


def _printing(value_of):
    """The handler that prints value_of(args) and exits 0."""

    def handler(args, out):
        _print(value_of(args), out)
        return 0

    return handler


def _classification(args):
    c = classify(_eval_source(args.expr))
    flags = [name for name in c._fields if name != "label"]
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
    try:
        with open(args.file, "rb") as handle:
            records = corpus_mod.load_corpus(handle)
    except OSError as exc:
        raise UsageError(exc) from exc
    report = corpus_mod.verify_corpus(records)
    _print(report.to_json() if args.json else report.to_text(), out)
    return report.exit_status


def _catalog(args):
    if args.action == "list":
        rows = registry_table()
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join("  ".join([*map(str.ljust, row[:3], widths), row[3]]) for row in rows)
    if not args.id:
        raise UsageError("catalog show needs an entry id")
    spec = lookup(args.id)
    return (f"id: {spec.id}\nparameters: {spec.arity}\n"
            f"valid for: {spec.validity}\nabout: {spec.citation}")


def _report(exc: MorphError) -> int:
    """Print the one failure report, `kind: message`, and return the exit status."""
    print(f"{exc.kind}: {exc}", file=sys.stderr)
    return exc.exit_status


def _cmd_repl(args, out):
    """Answer stdin line by line until `:quit`, its end, or a reader that closed out."""
    form = "r"
    if not _print("morphcalc repl; :help for commands", out):
        return 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if line == ":quit":
            break
        if line == ":help":
            text = f":quit  {_FORM_USAGE}  :help"
        elif line.startswith(":form"):
            parts = line.split()
            if len(parts) != 2 or parts[1] not in BASES:
                print(f"usage: {_FORM_USAGE}", file=sys.stderr)
                continue
            form = parts[1]
            text = f"form set to {form}"
        else:
            try:
                text = render(_eval_source(line), form)
            except MorphError as exc:
                _report(exc)
                continue
        if not _print(text, out):
            break
    return 0


_EXPR = {"expr": {}}
# name, help text, add_argument options by argument name, handler(args, out) -> exit status
_COMMANDS = (
    ("eval", "evaluate an expression", {**_EXPR, "--form": {"choices": BASES, "default": "r"}},
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
     {"action": {"choices": ["list", "show"]}, "id": {"nargs": "?"}}, _printing(_catalog)),
    ("audit", "bivector partition audit", {"n": {"type": int, "choices": [3, 4, 5]}},
     _printing(_audit)),
    ("repl", "interactive line-at-a-time calculator", {}, _cmd_repl),
)


@cache  # parse_args returns a fresh namespace, so one parser serves every call
def _build_parser():
    import argparse  # only help requests, usage errors and other spellings pay for it

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


def _plain_plan(arguments):
    """How `_read_plain` reads a row: (defaults, options, positionals, required count).

    None when the row uses an argument kind the plain reader does not know, so
    argparse reads every command line of that row.  An optional positional
    (`nargs="?"`) is known only as the last argument of a row with no options,
    where argparse's matching of positionals between options cannot differ.
    """
    defaults, options, positionals, required = {}, {}, [], None
    for name, spec in arguments.items():
        if required is not None:
            return None
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            if spec == {"action": "store_true"}:
                options[name], defaults[dest] = (dest, None), False
            elif "choices" in spec and spec.keys() <= {"choices", "default"}:
                options[name], defaults[dest] = (dest, spec["choices"]), spec.get("default")
            else:
                return None
        elif spec == {"nargs": "?"} and not options:
            required, defaults[name] = len(positionals), None
            positionals.append((name, None, None))
        elif spec.keys() <= {"type", "choices"}:
            positionals.append((name, spec.get("type"), spec.get("choices")))
        else:
            return None
    return defaults, options, positionals, len(positionals) if required is None else required


_PLANS = {name: (handler, plan) for name, _, arguments, handler in _COMMANDS
          if (plan := _plain_plan(arguments)) is not None}


def _read_plain(argv):
    """The namespace argparse would give a plain command line, or None for argparse to read.

    A plain command line is a command name, then only exact option strings of
    its row (a flag, or an option and one of its choices, each at most once)
    and between the required and the total number of positionals, each of
    which converts with its type and lies in its choices.
    """
    row = _PLANS.get(argv[0]) if argv else None
    if row is None:
        return None
    handler, (defaults, options, positionals, required) = row
    values = {"command": argv[0], "handler": handler, **defaults}
    seen, words, tokens = set(), [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        if token not in options or token in seen:
            return None
        seen.add(token)
        dest, choices = options[token]
        if choices is None:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value not in choices:
            return None
        values[dest] = value
    if not required <= len(words) <= len(positionals):
        return None
    for word, (dest, convert, choices) in zip(words, positionals):
        try:
            value = word if convert is None else convert(word)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            _print("", sys.stdout, end="")  # the help text argparse left in the buffer
            return 0 if exc.code in (0, None) else UsageError.exit_status
    limit = _get_digit_limit()
    _set_digit_limit(0)  # an exact result prints every digit; the caller's limit comes back
    try:
        return args.handler(args, out)
    except MorphError as exc:
        return _report(exc)
    finally:
        _set_digit_limit(limit)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
