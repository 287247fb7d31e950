"""The quantity expression language: parser, printer, evaluator.

Grammar (explicit '*' required, no unary minus, '^' binds tightest):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" NAT)?
    atom   := NAT | "R" | "Rp" | "C" | "H" | IDENT "(" NAT ("," NAT)* ")" | "(" expr ")"

Parenthesised sub-expressions become Bracket nodes, so source bracketing
survives a parse/print round trip; evaluation ignores them.  Every node is a
named tuple under the one base Expr, declared on one line, whose last field
is its source `span`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import reduce
from operator import add, mul

from .catalog import ENTRY_IDS, catalog_quantity
from .quantity import MorphError, MorphPoly, P, R, UsageError, div_exact


class ExprSyntaxError(UsageError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownName(UsageError):
    def __init__(self, name, position):
        super().__init__(f"unknown name {name!r} (at position {position})")
        self.name = name
        self.position = position


class Expr(tuple):
    """A syntax-tree node: a named tuple whose last field is `span`.

    `span` is the node's (start, end) in the source, or None.  Nodes compare
    and hash by exact class and their other fields; `span` takes part in
    neither, nor in the repr, and a node never equals a plain tuple.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.__class__, self[:-1]))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({fields})"


def _node(name, fields):
    """The Expr class `name`: a named tuple of `fields` and a last `span` that defaults to None."""
    return type(name, (Expr, namedtuple(name, f"{fields} span", defaults=(None,), module=__name__)),
                {"__slots__": ()})


Nat = _node("Nat", "value")
Sym = _node("Sym", "name")  # name is a key of _SYMBOLS
CatalogCall = _node("CatalogCall", "id params")
Add = _node("Add", "items")
Sub = _node("Sub", "left right")
Mul = _node("Mul", "items")
Div = _node("Div", "num den")
Pow = _node("Pow", "base exponent")
Bracket = _node("Bracket", "child")


_TOKEN_RE = re.compile(
    r"(?P<NAT>[0-9]+)|(?P<IDENT>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)")

_SYMBOLS = {"R": R, "Rp": P, "C": R ** 2, "H": R ** 4}


def _tokenize(source: str):
    """(kind, text, position) triples ending with EOF; whitespace matches no group."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", pos)
        tokens.append((text if kind == "op" else kind, text, pos))
    tokens.append(("EOF", "", len(source)))
    return tokens


def _nat(tok) -> int:
    """The value of a NAT token; a literal over Python's int/str digit limit is a syntax error."""
    try:
        return int(tok[1])
    except ValueError:
        raise ExprSyntaxError(f"a {len(tok[1])}-digit number exceeds the integer digit limit",
                              tok[2]) from None


class _Parser:
    """Recursive descent in two methods, so one bracket level takes two frames.

    `expr` reads the terms of a sum and the factors of each term in two nested
    loops; `factor` reads one atom and its `^ NAT`, and a bracket's inner
    expression through `expr`.
    """

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    def expect(self, kind):
        tok = self.tokens[self.index]
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.index += 1
        return tok

    def parse(self):
        expr = self.expr()
        tok = self.tokens[self.index]
        if tok[0] != "EOF":
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return expr

    def expr(self):
        tokens = self.tokens
        start = tokens[self.index][2]
        items = []  # the operands of the current run of +
        op = "+"
        while True:
            term_start = tokens[self.index][2]
            factors = [self.factor()]  # the operands of the current run of *
            while (factor_op := tokens[self.index][0]) == "*" or factor_op == "/":
                self.index += 1
                right = self.factor()
                if factor_op == "*":
                    factors.append(right)
                else:
                    num = _flat(Mul, factors, term_start)
                    factors = [Div(num, right, (term_start, right.span[1]))]
            term = _flat(Mul, factors, term_start)
            if op == "+":
                items.append(term)
            else:
                left = _flat(Add, items, start)
                items = [Sub(left, term, (start, term.span[1]))]
            op = tokens[self.index][0]
            if op != "+" and op != "-":
                return _flat(Add, items, start)
            self.index += 1

    def factor(self):
        tokens = self.tokens
        tok = tokens[self.index]
        self.index += 1
        kind, text, pos = tok
        if kind == "NAT":
            node = Nat(_nat(tok), (pos, pos + len(text)))
        elif kind == "IDENT":
            if tokens[self.index][0] == "(":
                node = self.catalog_call(text, pos)
            elif text in _SYMBOLS:
                node = Sym(text, (pos, pos + len(text)))
            else:
                raise UnknownName(text, pos)
        elif kind == "(":
            child = self.expr()
            close = self.expect(")")
            node = Bracket(child, (pos, close[2] + 1))
        else:
            raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", pos)
        if tokens[self.index][0] == "^":
            self.index += 1
            tok = self.expect("NAT")
            node = Pow(node, _nat(tok), (pos, tok[2] + len(tok[1])))
        return node

    def catalog_call(self, name, pos):
        if name not in ENTRY_IDS:
            raise UnknownName(name, pos)
        self.index += 1  # the "(" that made this a call
        params = [_nat(self.expect("NAT"))]
        while self.tokens[self.index][0] == ",":
            self.index += 1
            params.append(_nat(self.expect("NAT")))
        close = self.expect(")")
        return CatalogCall(name, tuple(params), (pos, close[2] + 1))


def _flat(cls, items, start):
    """The one node for a run of operands joined by + (cls Add) or * (cls Mul)."""
    if len(items) == 1:
        return items[0]
    return cls(tuple(items), (start, items[-1].span[1]))


def parse(source: str) -> Expr:
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        at = parser.tokens[min(parser.index, len(parser.tokens) - 1)][2]
        raise ExprSyntaxError("expression nested too deeply", at) from None


def print_expr(e: Expr) -> str:
    try:
        return _print(e)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", e.span[0] if e.span else 0) from None


def _print(e: Expr) -> str:
    if isinstance(e, Nat):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, CatalogCall):
        return f"{e.id}({','.join(str(p) for p in e.params)})"
    if isinstance(e, Add):
        return " + ".join(_print(x) for x in e.items)
    if isinstance(e, Sub):
        return f"{_print(e.left)} - {_print(e.right)}"
    if isinstance(e, Mul):
        return "*".join(_print(x) for x in e.items)
    if isinstance(e, Div):
        return f"{_print(e.num)}/{_print(e.den)}"
    if isinstance(e, Pow):
        return f"{_print(e.base)}^{e.exponent}"
    if isinstance(e, Bracket):
        return f"({_print(e.child)})"
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: Expr) -> MorphPoly:
    """Bottom-up evaluation; brackets erased; division must be exact.

    Domain errors gain a .span attribute pointing at the innermost offending
    sub-expression of the original source.
    """
    try:
        return _eval(e)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", e.span[0] if e.span else 0) from None


def _eval(e: Expr) -> MorphPoly:
    try:
        if isinstance(e, Nat):
            return MorphPoly.constant(e.value)
        if isinstance(e, Sym):
            return _SYMBOLS[e.name]
        if isinstance(e, CatalogCall):
            return catalog_quantity(e.id, e.params)
        if isinstance(e, Add):
            return reduce(add, map(_eval, e.items))
        if isinstance(e, Sub):
            return _eval(e.left) - _eval(e.right)
        if isinstance(e, Mul):
            return reduce(mul, map(_eval, e.items))
        if isinstance(e, Div):
            return div_exact(_eval(e.num), _eval(e.den))
        if isinstance(e, Pow):
            return _eval(e.base) ** e.exponent
        if isinstance(e, Bracket):
            return _eval(e.child)
    except MorphError as exc:
        if getattr(exc, "span", None) is None:
            exc.span = e.span
        raise
    raise TypeError(f"not an expression node: {e!r}")
