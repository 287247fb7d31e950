"""The quantity expression language: parser, printer, evaluator.

Grammar (explicit '*' required, no unary minus, '^' binds tightest):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" NAT)?
    atom   := NAT | "R" | "Rp" | "C" | "H" | IDENT "(" NAT ("," NAT)* ")" | "(" expr ")"

Parenthesised sub-expressions become Bracket nodes, so source bracketing
survives a parse/print round trip; evaluation ignores them.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import add, mul

from .catalog import _REGISTRY, catalog_quantity
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


_set = object.__setattr__  # the nodes' __init__ writes past their own __setattr__


class Expr:
    """A syntax-tree node: immutable, its fields named in `_fields`.

    Nodes compare and hash by exact class and fields.  `span`, the node's
    (start, end) in the source or None, takes part in neither, nor in the repr.
    """

    __slots__ = ("span",)
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return _rebuild, (self.__class__, self._values(), self.span)


def _rebuild(cls, values, span):
    return cls(*values, span=span)


class Nat(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value, *, span=None):
        _set(self, "value", value)
        _set(self, "span", span)


class Sym(Expr):
    __slots__ = _fields = ("name",)  # a key of _SYMBOLS

    def __init__(self, name, *, span=None):
        _set(self, "name", name)
        _set(self, "span", span)


class CatalogCall(Expr):
    __slots__ = _fields = ("id", "params")

    def __init__(self, id, params, *, span=None):
        _set(self, "id", id)
        _set(self, "params", params)
        _set(self, "span", span)


class Add(Expr):
    __slots__ = _fields = ("items",)

    def __init__(self, items, *, span=None):
        _set(self, "items", items)
        _set(self, "span", span)


class Sub(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right, *, span=None):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


class Mul(Expr):
    __slots__ = _fields = ("items",)

    def __init__(self, items, *, span=None):
        _set(self, "items", items)
        _set(self, "span", span)


class Div(Expr):
    __slots__ = _fields = ("num", "den")

    def __init__(self, num, den, *, span=None):
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "span", span)


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base, exponent, *, span=None):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "span", span)


class Bracket(Expr):
    __slots__ = _fields = ("child",)

    def __init__(self, child, *, span=None):
        _set(self, "child", child)
        _set(self, "span", span)


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
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def parse(self):
        expr = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return expr

    def expr(self):
        start = self.peek()[2]
        items = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            if op == "+":
                items.append(right)
            else:
                left = _flat(Add, items, start)
                items = [Sub(left=left, right=right, span=(start, right.span[1]))]
        return _flat(Add, items, start)

    def term(self):
        start = self.peek()[2]
        items = [self.factor()]
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.factor()
            if op == "*":
                items.append(right)
            else:
                num = _flat(Mul, items, start)
                items = [Div(num=num, den=right, span=(start, right.span[1]))]
        return _flat(Mul, items, start)

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("NAT")
            node = Pow(base=node, exponent=_nat(tok), span=(node.span[0], tok[2] + len(tok[1])))
        return node

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "NAT":
            return Nat(value=_nat(tok), span=(pos, pos + len(text)))
        if kind == "IDENT":
            if self.peek()[0] == "(":
                return self.catalog_call(text, pos)
            if text not in _SYMBOLS:
                raise UnknownName(text, pos)
            return Sym(name=text, span=(pos, pos + len(text)))
        if kind == "(":
            child = self.expr()
            close = self.expect(")")
            return Bracket(child=child, span=(pos, close[2] + 1))
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", pos)

    def catalog_call(self, name, pos):
        if name.lower() not in _REGISTRY or _REGISTRY[name.lower()].id != name:
            raise UnknownName(name, pos)
        self.expect("(")
        params = [_nat(self.expect("NAT"))]
        while self.peek()[0] == ",":
            self.advance()
            params.append(_nat(self.expect("NAT")))
        close = self.expect(")")
        return CatalogCall(id=name, params=tuple(params), span=(pos, close[2] + 1))


def _flat(cls, items, start):
    """The one node for a run of operands joined by + (cls Add) or * (cls Mul)."""
    if len(items) == 1:
        return items[0]
    return cls(items=tuple(items), span=(start, items[-1].span[1]))


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
