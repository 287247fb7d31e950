"""Reference oracles that only the tests use.

- `_search_min_rep` and its helper `_term_vector`: the exhaustive search that
  `quantity._dp_min_rep` must agree with;
- `p_coeff(q, exp)`: one halfline coefficient of a quantity;
- `normal_form_euler(nf)`: the Euler characteristic read off a stability
  normal form;
- `_Parser` and `oracle_parse`: the recursive-descent parser with one method
  per grammar rule (expr, term, factor, atom), four frames per bracket level,
  kept to check `lang.parse` against;
- `oracle_eval`: the tree walk that builds a quantity for every node and
  folds each sum and product from its first operand, kept to check
  `lang.eval_expr` against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb
from operator import add, mul

from morphcalc.catalog import ENTRY_IDS, catalog_quantity
from morphcalc.lang import (
    Add,
    Bracket,
    CatalogCall,
    Div,
    ExprSyntaxError,
    Mul,
    Nat,
    Pow,
    Sub,
    Sym,
    UnknownName,
    _SYMBOLS,
    _flat,
    _nat,
    _tokenize,
)
from morphcalc.quantity import MorphError, MorphPoly, _halfline_ints, div_exact


# -- quantity -------------------------------------------------------------


def p_coeff(q: MorphPoly, exp: int) -> Fraction:
    return q.p_coeffs().get(exp, Fraction(0))


def _term_vector(p, r, degree):
    # halfline expansion of Rp^p * R^r as a dense tuple up to `degree`
    vec = [0] * (degree + 1)
    for j in range(r + 1):
        vec[p + j] = comb(r, j) * (1 << j)
    return tuple(vec)


def _search_min_rep(q: MorphPoly, j_bound: int):
    """Best representation with halfline exponent <= j_bound, or None.

    Best means: minimal sum of coefficients on terms with p > 0, then the
    lexicographically smallest coefficient vector with terms ordered by
    (p desc, r desc).  Exhaustive branch-and-bound, exponential in the
    degree: the reference oracle for tests of `_dp_min_rep`, which
    `semi_integral_minimal` calls instead.
    """
    degree = q.degree()
    target, shift = _halfline_ints(q._ints, q._shift)
    if shift or min(target) < 0:
        return None
    terms = [
        (p, r)
        for p in range(min(j_bound, degree), -1, -1)
        for r in range(degree - p, -1, -1)
    ]
    vectors = {t: _term_vector(t[0], t[1], degree) for t in terms}
    suffix_top = [0] * (len(terms) + 1)
    suffix_top[len(terms)] = -1
    for i in range(len(terms) - 1, -1, -1):
        suffix_top[i] = max(suffix_top[i + 1], terms[i][0] + terms[i][1])

    best = None  # (possum, coeff_vector)

    def residual_ok(res, index):
        # anything still needed above the top degree of the remaining terms is dead
        return all(res[d] == 0 for d in range(suffix_top[index] + 1, degree + 1))

    def rec(index, res, possum, coeffs):
        nonlocal best
        if best is not None and possum > best[0]:
            return
        if index == len(terms):
            if all(v == 0 for v in res):
                cand = (possum, tuple(coeffs))
                if best is None or cand < (best[0], best[1]):
                    best = cand
            return
        if not residual_ok(res, index):
            return
        p, r = terms[index]
        vec = vectors[(p, r)]
        # c is capped by the residual's top coefficient this term can reach;
        # the break below prunes once any coefficient would go negative
        top = p + r
        cmax = res[top] // vec[top]
        for c in range(0, cmax + 1):
            if c:
                new = list(res)
                bad = False
                for d in range(p, top + 1):
                    new[d] = res[d] - c * vec[d]
                    if new[d] < 0:
                        bad = True
                        break
                if bad:
                    break
                nres = new
            else:
                nres = list(res)
            coeffs.append(c)
            rec(index + 1, nres, possum + (c if p > 0 else 0), coeffs)
            coeffs.pop()

    rec(0, list(target), 0, [])
    if best is None:
        return None
    assignment = tuple(
        (p, r, c) for (p, r), c in zip(terms, best[1]) if c
    )
    return assignment


# -- stability ------------------------------------------------------------


def normal_form_euler(nf) -> int:
    sign = -1 if nf.dimension % 2 else 1
    if nf.kind == "pure_top":
        return sign * nf.count
    return sign - sign * nf.count


# -- lang -----------------------------------------------------------------


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
                items = [Sub(left, right, (start, right.span[1]))]
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
                items = [Div(num, right, (start, right.span[1]))]
        return _flat(Mul, items, start)

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("NAT")
            node = Pow(node, _nat(tok), (node.span[0], tok[2] + len(tok[1])))
        return node

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "NAT":
            return Nat(_nat(tok), (pos, pos + len(text)))
        if kind == "IDENT":
            if self.peek()[0] == "(":
                return self.catalog_call(text, pos)
            if text not in _SYMBOLS:
                raise UnknownName(text, pos)
            return Sym(text, (pos, pos + len(text)))
        if kind == "(":
            child = self.expr()
            close = self.expect(")")
            return Bracket(child, (pos, close[2] + 1))
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", pos)

    def catalog_call(self, name, pos):
        if name not in ENTRY_IDS:
            raise UnknownName(name, pos)
        self.expect("(")
        params = [_nat(self.expect("NAT"))]
        while self.peek()[0] == ",":
            self.advance()
            params.append(_nat(self.expect("NAT")))
        close = self.expect(")")
        return CatalogCall(name, tuple(params), (pos, close[2] + 1))


def oracle_parse(source: str):
    """`lang.parse` as the four-method parser above reads it."""
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        at = parser.tokens[min(parser.index, len(parser.tokens) - 1)][2]
        raise ExprSyntaxError("expression nested too deeply", at) from None


def oracle_eval(e):
    """`lang.eval_expr` as the bottom-up tree walk reads it: one quantity per node."""
    try:
        return _oracle_eval(e)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", e.span[0] if e.span else 0) from None


def _oracle_eval(e):
    try:
        if isinstance(e, Nat):
            return MorphPoly.constant(e.value)
        if isinstance(e, Sym):
            return _SYMBOLS[e.name]
        if isinstance(e, CatalogCall):
            return catalog_quantity(e.id, e.params)
        if isinstance(e, Add):
            return reduce(add, map(_oracle_eval, e.items))
        if isinstance(e, Sub):
            return _oracle_eval(e.left) - _oracle_eval(e.right)
        if isinstance(e, Mul):
            return reduce(mul, map(_oracle_eval, e.items))
        if isinstance(e, Div):
            return div_exact(_oracle_eval(e.num), _oracle_eval(e.den))
        if isinstance(e, Pow):
            return _oracle_eval(e.base) ** e.exponent
        if isinstance(e, Bracket):
            return _oracle_eval(e.child)
    except MorphError as exc:
        if getattr(exc, "span", None) is None:
            exc.span = e.span
        raise
    raise TypeError(f"not an expression node: {e!r}")
