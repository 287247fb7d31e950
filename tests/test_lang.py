import copy
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import morphcalc
from morphcalc.catalog import BadParams, UnknownEntry, catalog_quantity

from morphcalc.lang import (
    Add,
    Bracket,
    CatalogCall,
    Div,
    Expr,
    ExprSyntaxError,
    Mul,
    Nat,
    Pow,
    Sub,
    Sym,
    UnknownName,
    eval_expr,
    parse,
    print_expr,
)
from morphcalc.quantity import MorphError, MorphPoly, NonZeroRemainder

from oracles import oracle_parse

R = MorphPoly.line()
P = MorphPoly.halfline()


def test_parse_structure():
    e = parse("S(3) - (R^2+1)*S(1)")
    assert isinstance(e, Sub)
    assert isinstance(e.left, CatalogCall) and e.left.id == "S"
    assert isinstance(e.right, Mul)
    assert isinstance(e.right.items[0], Bracket)
    assert eval_expr(e).is_zero()


def test_fibonacci_bracket_tree():
    e = parse("((1+1)+1)+(1+1)")
    assert eval_expr(e) == 5
    # brackets survive: the tree differs from the flat sum
    assert e != parse("1+1+1+1+1")
    assert print_expr(e) == "((1 + 1) + 1) + (1 + 1)"


def test_add_and_mul_flatten():
    e = parse("1+2+3+4")
    assert isinstance(e, Add) and len(e.items) == 4
    m = parse("R*Rp*C*H")
    assert isinstance(m, Mul) and len(m.items) == 4


def test_precedence():
    assert eval_expr(parse("1+2*3")) == 7
    assert eval_expr(parse("2*R^2")) == 2 * R ** 2
    assert eval_expr(parse("2+3*R^2")) == 3 * R ** 2 + 2
    with pytest.raises(ExprSyntaxError):
        parse("R^2^3")  # exponent chains are not in the grammar


def test_sugar_atoms():
    assert eval_expr(parse("C")) == R ** 2
    assert eval_expr(parse("H")) == R ** 4
    assert eval_expr(parse("Rp")) == P
    assert print_expr(parse("C + H")) == "C + H"


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("R^-1")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse("R +")
    with pytest.raises(ExprSyntaxError):
        parse("(R + 1")
    with pytest.raises(ExprSyntaxError):
        parse("R $ 1")
    with pytest.raises(ExprSyntaxError):
        parse("S(1,)")


def test_unknown_names():
    with pytest.raises(UnknownName):
        parse("X + 1")
    with pytest.raises(UnknownName):
        parse("Nope(3)")
    with pytest.raises(UnknownName):
        parse("s(3)")  # catalog ids are case-sensitive in the surface language


def test_eval_division_error_has_span():
    src = "1 + (R^2+1)/(R+1)"
    with pytest.raises(NonZeroRemainder) as err:
        eval_expr(parse(src))
    lo, hi = err.value.span
    assert src[lo:hi] == "(R^2+1)/(R+1)"


def test_catalog_call_eval_and_arity():
    assert eval_expr(parse("RPh(2)")) == R ** 2 - R + 1
    assert eval_expr(parse("(R^3+1)/(R+1)")) == R ** 2 - R + 1
    from morphcalc.catalog import BadParams

    with pytest.raises(BadParams):
        eval_expr(parse("G(2,5)"))
    with pytest.raises(BadParams):
        eval_expr(parse("S(1,2)"))


def test_bracket_erasure():
    assert eval_expr(parse("(1+1)+1")) == eval_expr(parse("1+1+1")) == 3
    assert eval_expr(parse("(2*R)*(R+1)")) == eval_expr(parse("2*R*(R+1)"))


def test_print_round_trip_examples():
    for src in [
        "RP(2)",
        "(1 + 1) + 1",
        "2*Rp*R^3 + 2*Rp*R + 1",
        "S(3) - (R^2 + 1)*S(1)",
        "Flag(5,1,3)",
        "1/2*R - 1/2",
        "0 - R + 1",
    ]:
        e = parse(src)
        assert parse(print_expr(e)) == e


# -- generated round trips ---------------------------------------------------

def _atoms():
    return st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda n: Nat(value=n)),
        st.just(Sym("R")),
        st.just(Sym("Rp")),
        st.just(Sym("C")),
        st.just(Sym("H")),
        st.sampled_from(
            [("S", (2,)), ("RP", (3,)), ("G", (4, 2)), ("Flag", (4, 1, 2))]
        ).map(lambda t: CatalogCall(id=t[0], params=t[1])),
    )


def _exprs(depth):
    if depth == 0:
        return _atoms()
    sub = _exprs(depth - 1)
    bracketed = sub.map(lambda e: Bracket(child=e))
    factor = st.one_of(
        _atoms(),
        bracketed,
        st.tuples(st.one_of(_atoms(), bracketed), st.integers(0, 4)).map(
            lambda t: Pow(base=t[0], exponent=t[1])
        ),
    )
    term = st.one_of(
        factor,
        st.lists(factor, min_size=2, max_size=3).map(lambda fs: Mul(items=tuple(fs))),
        st.tuples(factor, factor).map(lambda t: Div(num=t[0], den=t[1])),
    )
    return st.one_of(
        term,
        st.lists(term, min_size=2, max_size=3).map(lambda ts: Add(items=tuple(ts))),
        st.tuples(term, term).map(lambda t: Sub(left=t[0], right=t[1])),
    )


@settings(max_examples=150, deadline=None)
@given(_exprs(3))
def test_generated_print_parse_round_trip(e):
    assert parse(print_expr(e)) == e


def test_print_expr_deep_nesting_is_a_syntax_error():
    e = parse("R" + "-0" * 3000)
    with pytest.raises(ExprSyntaxError, match="expression nested too deeply"):
        print_expr(e)


@pytest.mark.parametrize("src, message, position", [
    ("٣", "unexpected character '٣'", 0),  # a Unicode digit is no NAT
    ("R + é", "unexpected character 'é'", 4),
    ("R\x1c+ $", "unexpected character '$'", 4),
])
def test_tokenizer_errors_name_the_character_and_its_position(src, message, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_unicode_whitespace_separates_tokens():
    e = parse("R\x1c+ R")  # U+001C is whitespace to str.isspace and to \s
    assert isinstance(e, Add) and e.span == (0, 5)
    assert [x.span for x in e.items] == [(0, 1), (4, 5)]
    e = parse("2*R　")  # trailing ideographic space
    assert isinstance(e, Mul) and e.span == (0, 3)
    assert print_expr(e) == "2*R"


def test_runs_and_chains_keep_their_spans():
    src = "1 + R - Rp + C*2/H*3"
    e = parse(src)
    assert isinstance(e, Add) and isinstance(e.items[0], Sub)
    assert src[slice(*e.items[0].span)] == "1 + R - Rp"
    assert src[slice(*e.items[0].left.span)] == "1 + R"
    mul = e.items[1]
    assert isinstance(mul, Mul) and isinstance(mul.items[0], Div)
    assert src[slice(*mul.span)] == "C*2/H*3"
    assert src[slice(*mul.items[0].num.span)] == "C*2"


def test_a_200_deep_bracket_evaluates():
    src = "(" * 200 + "R + 1" + ")" * 200
    assert eval_expr(parse(src)) == R + 1


def test_long_sums_and_products_parse_in_linear_time():
    n = 40_000
    for src, value in [("R" + " + R" * n, (n + 1) * R), ("1" + "*1" * n, 1)]:
        t0 = time.monotonic()
        e = parse(src)
        assert time.monotonic() - t0 < 2
        assert len(e.items) == n + 1
        assert eval_expr(e) == value


def test_nodes_compare_and_hash_by_class_and_fields_but_not_span():
    one, two = Nat(1), Nat(2)
    assert Add((one, two)) != Mul((one, two))
    assert Add((one, two)) == Add(items=(one, two), span=(0, 5))
    tight, loose = parse("S(3)*(R+1)"), parse("S(3) * ( R + 1 )")
    assert tight.span != loose.span
    assert tight == loose and hash(tight) == hash(loose)
    assert repr(Nat(2)) == "Nat(value=2)"
    assert repr(tight) == "Mul(items=(CatalogCall(id='S', params=(3,)), Bracket(child=Add(" \
        "items=(Sym(name='R'), Nat(value=1))))))"


def test_nodes_are_immutable_and_copies_keep_their_span():
    e = parse("R^2 - 1")
    with pytest.raises(AttributeError):
        e.left = Nat(0)
    with pytest.raises(AttributeError):
        e.span = None
    with pytest.raises(AttributeError):
        del e.right
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and twin.span == e.span and twin.left.span == e.left.span


def test_a_node_never_equals_a_plain_tuple():
    assert Nat(1) != (1, None) and (1, None) != Nat(1)
    assert not Nat(1) == (1, None) and not (1, None) == Nat(1)
    assert Add((Nat(1),)) != ((Nat(1),), None)


def test_span_takes_no_part_in_equality_or_hash():
    spanned, bare = Add((Nat(1, span=(0, 1)),)), Add((Nat(1),))
    assert spanned == bare and hash(spanned) == hash(bare)


def test_replacing_the_span_keeps_the_class_and_the_value():
    e = parse("S(3)*(R+1) - 2^3/Rp")
    bare = e._replace(span=None)
    assert type(bare) is Sub and bare.span is None and bare == e
    assert Nat._fields == ("value", "span") and Nat(2, (0, 1)) == Nat(value=2)


def _spans(node):
    """(class, span) of every node of a tree, in pre-order."""
    yield type(node), node.span
    for value in node[:-1]:
        for child in value if type(value) is tuple else (value,):
            if isinstance(child, Expr):
                yield from _spans(child)


def test_a_protocol_0_pickle_keeps_every_span():
    e = parse("S(3)*(R+1) - 2^3/Rp")
    twin = pickle.loads(pickle.dumps(e, protocol=0))
    assert twin == e and list(_spans(twin)) == list(_spans(e))
    assert len(list(_spans(e))) == 11


# -- the parser against the four-method oracle --------------------------------

def _reading(parse_source, source):
    """What a parser makes of `source`: its tree with every span, or its error."""
    try:
        tree = parse_source(source)
    except MorphError as exc:
        return type(exc), str(exc), exc.position
    return tree, repr(tree), list(_spans(tree))


# up to 40 characters: single characters, or tokens of at most two
_PARSER_INPUTS = st.one_of(
    st.text("RpCHSGPcsx0123456789()+-*/^, \t$", max_size=40),
    st.lists(st.sampled_from(["R", "Rp", "C", "H", "S", "G", "RP", "Gc", "s", "x", "0", "1", "2",
                              "12", "(", ")", ",", "+", "-", "*", "/", "^", " ", "\t", "$"]),
             max_size=20).map("".join))
_DIGIT_RUN = "7" * 4301  # over Python's default int/str digit limit of 4300


@settings(max_examples=2000, deadline=None)
@given(st.one_of(_PARSER_INPUTS,
                 st.tuples(_PARSER_INPUTS, _PARSER_INPUTS).map(_DIGIT_RUN.join)))
@example("S(3)*S(4)*Rp + 2*Rp^2*R^3 - R^2/(1 - C)^2")
@example("G(7,3)^2 - H*x")
@example("(R + 1")
@example("RP(2,)")
@example("S()")
def test_parse_agrees_with_the_oracle_parser(source):
    assert _reading(parse, source) == _reading(oracle_parse, source)


def test_one_bracket_level_takes_two_frames():
    # in a fresh interpreter at the default recursion limit: the oracle spends
    # four frames per bracket level, parse two, so parse reads twice as deep
    probe = ("from morphcalc import eval_expr, parse\n"
             "from oracles import oracle_parse\n"
             "for n in (300, 3000):\n"
             "    for read in (parse, oracle_parse):\n"
             "        try:\n"
             "            print(n, read.__name__, eval_expr(read('(' * n + 'R' + ')' * n)))\n"
             "        except Exception as exc:\n"
             "            print(n, read.__name__, exc)\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(morphcalc.__file__).resolve().parent.parent), str(here)])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "300 parse R",
        "300 oracle_parse expression nested too deeply (at position 249)",
        "3000 parse expression nested too deeply (at position 498)",
        "3000 oracle_parse expression nested too deeply (at position 249)",
    ]


# -- catalog calls read the cache by their exact key --------------------------

@pytest.mark.parametrize("node, value", [
    (CatalogCall("S", (3,)), "S(3)"),
    (CatalogCall("s", (3,)), "S(3)"),  # not a parsed call: the id is looked up
    (CatalogCall("G", [7, 3]), "G(7,3)"),  # unhashable params take the lookup too
    (CatalogCall("S", (3.0,)), "S(3)"),
    (CatalogCall("RP", (True,)), "RP(1)"),
])
def test_a_catalog_call_node_evaluates_as_catalog_quantity_does(node, value):
    eval_expr(parse(value))  # the entry is in the cache
    assert eval_expr(node) == catalog_quantity(node.id, node.params) == eval_expr(parse(value))


@pytest.mark.parametrize("node, error, message", [
    (CatalogCall("G", (2, 5)), BadParams, "G(n,k) needs 0 <= k <= n; got [2, 5]"),
    (CatalogCall("Nope", (1,)), UnknownEntry, "unknown catalog entry 'Nope'"),
    (CatalogCall("S", ("x",)), BadParams, "S(n) needs integer parameters; got ['x']"),
    (CatalogCall("S", ([3],)), BadParams, "S(n) needs integer parameters; got [[3]]"),
])
def test_a_catalog_call_node_fails_as_catalog_quantity_does(node, error, message):
    with pytest.raises(error) as direct:
        catalog_quantity(node.id, node.params)
    with pytest.raises(error) as evaluated:
        eval_expr(node)
    assert str(evaluated.value) == str(direct.value)
    assert message is None or str(direct.value) == message
