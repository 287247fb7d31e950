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

The printer and the evaluator read a chain of + and - down its left spine,
so a long sum costs no recursion.  The evaluator adds a sum in one pass into
one accumulator: a term's integer, R, C and H factors and their powers fold
into one c*R^r read off the syntax, its other factors multiply left to
right, and the term adds in as c times that rest at offset r.  Each size
check and error is the one that building every node's quantity would meet.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .catalog import ENTRY_IDS, catalog_quantity
from .quantity import (
    MorphError, MorphPoly, P, R, SizeLimitExceeded, UsageError, _add_scaled, _check_size,
    _normalised, div_exact)


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
_LINE_POWERS = {"R": 1, "C": 2, "H": 4}  # the symbols that are powers of R, by exponent
_MONOMIAL_NODES = frozenset((Nat, Sym, Pow))  # the nodes that may be c*R^r (see _monomial)


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
    if isinstance(e, (Add, Sub)):
        tail = []  # read right to left down the left spine, so a long chain costs no recursion
        while isinstance(e, Sub) or isinstance(e, Add) and e.items:
            if isinstance(e, Sub):
                tail.append(f" - {_print(e.right)}")
                e = e.left
            else:
                tail += [f" + {_print(x)}" for x in reversed(e.items[1:])]
                e = e.items[0]
        return ("" if isinstance(e, Add) else _print(e)) + "".join(reversed(tail))
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
    """Evaluation with brackets erased; division must be exact.

    Domain errors gain a .span attribute pointing at the innermost offending
    sub-expression of the original source.
    """
    try:
        return _eval(e)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", e.span[0] if e.span else 0) from None


def _eval(e: Expr) -> MorphPoly:
    """The value of node e; a MorphError raised below it without a span gains e's."""
    cls = e.__class__
    try:
        if cls is CatalogCall:
            return catalog_quantity(e.id, e.params)
        if cls is Sym:
            return _SYMBOLS[e.name]
        if cls is Add or cls is Sub or cls is Mul:
            return _sum(e)
        if cls is Nat:
            return MorphPoly.constant(e.value)
        if cls is Pow:
            return _eval(e.base) ** e.exponent
        if cls is Div:
            return div_exact(_eval(e.num), _eval(e.den))
        if cls is Bracket:
            child = e.child  # a bracketed chain goes to _sum at once, one frame fewer
            cls = child.__class__
            return _sum(child) if cls is Add or cls is Sub or cls is Mul else _eval(child)
    except MorphError as exc:
        if getattr(exc, "span", None) is None:
            exc.span = e.span
        raise
    raise TypeError(f"not an expression node: {e!r}")


def _monomial(f):
    """(c, r) with f = c*R^r if f is an integer, R, C, H or a power of one, else None.

    A power runs the size check that `**` would, and its error takes the power's span.
    """
    cls = f.__class__
    if cls is Nat:
        return (f.value, 0) if f.value.__class__ is int else None
    if cls is Sym:
        r = _LINE_POWERS.get(f.name)
        return None if r is None else (1, r)
    if cls is not Pow or f.exponent.__class__ is not int or f.exponent < 0:
        return None
    base = _monomial(f.base)
    if base is None:
        return None
    (c, r), n = base, f.exponent
    if c:  # as MorphPoly.__pow__: degree n*r, n * bits(|c| - 1) bits
        try:
            _check_size(n * r, n * (abs(c) - 1).bit_length())
        except SizeLimitExceeded as exc:
            exc.span = f.span
            raise
    return c ** n, r * n


def _shape(q):
    """(length, largest |coefficient|, non-zero count) of q's ints, None if q is zero."""
    t = q._ints
    return (len(t), max(map(abs, t)), len(t) - t.count(0)) if t else None


def _scaled_shape(c, r, q, shape):
    """The shape of c*R^r*q from shape = _shape(q), None if zero.

    The powers of two that c and q's shift share cancel in the normal form.
    """
    if not c or shape is None:
        return None
    n, top, nonzero = shape
    return r + n, (abs(c) >> min(q._shift, (c & -c).bit_length() - 1)) * top, nonzero


def _check_product(a, b):
    """The size check MorphPoly.__mul__ makes on two operands of these shapes."""
    if a and b:
        _check_size(a[0] + b[0] - 2, (a[1] * b[1] * min(a[2], b[2]) - 1).bit_length())


def _term(factors):
    """(c, r, rest) with the product of `factors` = c*R^r*rest, rest None for 1.

    The monomial factors (see _monomial) fold into c*R^r, read off the syntax;
    the others multiply into rest left to right.  Each join makes the size
    check that multiplying the factors left to right would make, so the same
    check fails in the same place: on the shapes alone, or, once c*R^r is
    applied to rest before rest meets another factor, in `rest * value`.
    """
    c, r, rest, shape = 1, 0, None, None  # shape: _shape(rest), once known
    for i, f in enumerate(factors):
        mono = _monomial(f) if f.__class__ in _MONOMIAL_NODES else None
        if mono is not None:
            fc, fr = mono
            if i and c and fc:
                if rest is None:  # c*R^r times fc*R^fr
                    _check_size(r + fr, (abs(c * fc) - 1).bit_length())
                else:
                    shape = shape or _shape(rest)
                    _check_product(_scaled_shape(c, r, rest, shape), (fr + 1, abs(fc), 1))
            c *= fc
            r += fr
        elif rest is None:
            rest = _eval(f)
            if i:
                shape = _shape(rest)
                _check_product(c and (r + 1, abs(c), 1), shape)
        else:
            if c != 1 or r:  # c*R^r*rest met its checks as its factors joined
                acc = []
                shift = _add_scaled(acc, 0, c, rest, r) if c and rest._ints else 0
                rest, c, r = _normalised(acc, shift), 1, 0
            rest, shape = rest * _eval(f), None  # which checks itself
    return c, r, rest


def _sum(e: Expr) -> MorphPoly:
    """The value of a chain of + and -, or of one product, in one pass into one accumulator.

    The chain is read down its left spine, so its length costs no recursion.
    Each term, as c*R^r*rest (see _term), adds into `acc`/2^shift as c*rest at
    offset r, a single int when rest is 1.
    """
    # runs of terms (sign, terms, span) from right to left; span is the innermost
    # one on the spine, which an error without a span of its own takes
    runs, span, lone = [], None, False
    while True:
        cls = e.__class__
        if cls is Sub:
            span = span if e.span is None else e.span
            runs.append((-1, (e.right,), span))
            e = e.left
        elif cls is Add:
            span = span if e.span is None else e.span
            first = e.items[0]
            if first.__class__ is Add or first.__class__ is Sub:
                runs.append((1, e.items[1:], span))
                e = first
            else:
                runs.append((1, e.items, span))
                break
        else:  # the first term, or all of e when e is a product
            lone = not runs
            runs.append((1, (e,), span))
            break
    acc, shift = [], 0
    for sign, terms, span in reversed(runs):
        for term in terms:
            try:
                if term.__class__ is Mul:
                    c, r, rest = _term(term.items)
                elif term.__class__ in _MONOMIAL_NODES and (mono := _monomial(term)):
                    (c, r), rest = mono, None
                else:
                    c, r, rest = 1, 0, _eval(term)
            except MorphError as exc:
                if getattr(exc, "span", None) is None:
                    exc.span = span if term.span is None else term.span
                raise
            if rest is None:
                if c:
                    if len(acc) <= r:
                        acc += [0] * (r + 1 - len(acc))
                    acc[r] += sign * c << shift
            elif lone and c == 1 and not r and rest.__class__ is MorphPoly:
                return rest  # a product, never a catalog call's own value
            elif c and rest._ints:  # r is unchecked when the term is zero
                shift = _add_scaled(acc, shift, sign * c, rest, r)
    return _normalised(acc, shift)
