"""Cross-check of quantity arithmetic against SymPy's polynomials over QQ, and of
`factor`'s cyclotomic exponents against SymPy's factorization over Z."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from morphcalc.catalog import _quotient
from morphcalc.factorize import _cyclotomic_exponents, _summed_exponents, factor_into_catalog
from morphcalc.lang import eval_expr, parse
from morphcalc.quantity import MorphPoly, NonZeroRemainder, div_exact

sympy = pytest.importorskip("sympy")

x, r = sympy.symbols("x r")

dyadic = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([1, 2, 4, 8]))
# leading coefficients include negative and even ones, and ones with odd factors
lead = st.builds(
    Fraction,
    st.sampled_from([-12, -8, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 8, 12]),
    st.sampled_from([1, 2, 4]),
)
poly = st.builds(
    lambda low, top: MorphPoly({**dict(enumerate(low)), len(low): top}),
    st.lists(dyadic, max_size=7),
    lead,
)


def _sym(coeffs, var):
    return sum((sympy.Rational(c.numerator, c.denominator) * var ** e for e, c in coeffs.items()),
               sympy.Integer(0))


def _coeffs(expr, var):
    terms = sympy.Poly(expr, var, domain="QQ").terms()
    return {m[0]: Fraction(str(c)) for m, c in terms if c != 0}


def _dyadic(value):
    return value.denominator & (value.denominator - 1) == 0


@settings(max_examples=100, deadline=None)
@given(poly, poly)
def test_mul_and_div_exact_match_sympy(a, b):
    sa, sb = _sym(a.p_coeffs(), x), _sym(b.p_coeffs(), x)
    assert (a * b).p_coeffs() == _coeffs(sa * sb, x)
    assert div_exact(a * b, b) == a

    quo, rem = sympy.div(sympy.Poly(sa, x, domain="QQ"), sympy.Poly(sb, x, domain="QQ"))
    quo, rem = _coeffs(quo.as_expr(), x), _coeffs(rem.as_expr(), x)
    if rem:
        with pytest.raises(NonZeroRemainder) as err:
            div_exact(a, b)
        assert err.value.remainder == rem
    elif all(_dyadic(c) for c in quo.values()):
        assert div_exact(a, b).p_coeffs() == quo
    else:
        with pytest.raises(NonZeroRemainder, match="non power-of-two denominators"):
            div_exact(a, b)


@settings(max_examples=100, deadline=None)
@given(poly)
def test_basis_change_matches_sympy(a):
    coeffs = a.p_coeffs()
    assert a.r_coeffs() == _coeffs(_sym(coeffs, x).subs(x, (r - 1) / 2), r)
    # the same coefficients read as R-coefficients, through R = 2*Rp + 1
    assert MorphPoly.from_r_coeffs(coeffs).p_coeffs() == _coeffs(_sym(coeffs, r).subs(r, 2 * x + 1), x)


# -- factor: cyclotomic exponents against SymPy's factorization over Z ----------------

_CALLS = ("S(1)", "S(4)", "S(7)", "RP(2)", "RP(5)", "RP(9)", "CP(2)", "CP(4)", "HP(2)", "SS(3)",
          "SS(6)", "RPh(4)", "CPh(2)", "HPh(2)", "G(6,2)", "G(8,3)", "G(10,4)", "Gc(5,2)",
          "Gh(4,2)", "SO(5)", "U(3)", "Sp(2)", "V(5,2)", "GL(3)", "O(4)", "Spin(5)", "SU(3)",
          "LS(3)", "Cstr(3)", "G(18,5)")
_OTHER = ("(R^2 + 3)*S(5)", "(R^3 - R - 1)*RP(6)", "(2*R + 5)*G(6,3)", "(R^4 + R + 1)^2*CP(3)",
          "3*(R^2 - 2)*SS(4)", "R^3*(R^2 + R - 1)*GL(2)")


def _poly(q):
    return sympy.Poly(list(reversed(q._ints)), x)


@lru_cache(maxsize=None)
def _cyclotomics(n):
    """{Phi_d: d} over the d with totient(d) = n, all below 2n^2 + 3 (totient(d) >= sqrt(d/2))."""
    top = 2 * n * n + 3
    phi = list(range(top))
    for p in range(2, top):
        if phi[p] == p:  # prime: no smaller prime has touched it
            for m in range(p, top, p):
                phi[m] -= phi[m] // p
    return {_phi(d): d for d in range(1, top) if phi[d] == n}


def _phi(d):
    return sympy.Poly(sympy.cyclotomic_poly(d, x), x)


def _sympy_reading(q):
    """SymPy's (power of R, {d: e_d}, content times the non-cyclotomic factors) of q."""
    content, factors = _poly(q).factor_list()
    low, exponents, other = 0, Counter(), sympy.Poly(content, x)
    for f, e in factors:
        if f == sympy.Poly(x, x):
            low = e
        elif f in _cyclotomics(f.degree()):
            exponents[_cyclotomics(f.degree())[f]] += e
        else:
            other *= f ** e
    return low, exponents, other


def _phi_text(d):
    """Phi_d written out from SymPy's coefficients, as a user would type it."""
    coeffs = _phi(d).all_coeffs()  # descending, integers, leading 1
    text = "".join(f" {'-' if c < 0 else '+'} {abs(c)}*R^{i}"
                   for i, c in zip(range(len(coeffs) - 1, -1, -1), coeffs) if c)
    return text[3:]


def _factor_inputs():
    rng = random.Random(23)
    inputs = list(_CALLS)
    while len(inputs) < 55:  # products of two or three calls, degree <= 70
        calls = rng.sample(_CALLS, rng.choice((2, 3)))
        if sum(eval_expr(parse(c)).degree() for c in calls) <= 70:
            inputs.append("*".join(calls))
    for _ in range(12):  # typed products of Phi_d
        ds = rng.sample(range(1, 41), rng.choice((1, 2, 3)))
        powers = [(d, rng.choice((1, 2, 3))) for d in ds]
        inputs.append(pytest.param("*".join(f"({_phi_text(d)})^{e}" for d, e in powers),
                                   id="*".join(f"Phi_{d}^{e}" for d, e in powers)))
    return inputs + list(_OTHER)


@pytest.mark.parametrize("text", _factor_inputs())
def test_factor_exponents_match_sympy(text):
    q = eval_expr(parse(text))
    low, exponents, other = _sympy_reading(q)
    plain = eval_expr(parse(f"{text} + 0"))
    readers = [plain]
    calls = text.split("*")
    if all(c in _CALLS for c in calls):  # a call keeps its pairs; a product of calls takes theirs
        readers.append(q if len(calls) == 1 else
                       _quotient([eval_expr(parse(c)).merged for c in calls]))
        scale, a, pairs = readers[-1].merged
        assert (a, _summed_exponents(pairs), sympy.Poly(scale, x)) == (low, exponents, other)

    # fold tests read Phi_2 .. Phi_(3 * degree) after the power of R, and leave the rest
    top = 3 * (plain.degree() - low)
    folded, rest = _cyclotomic_exponents(list(plain._ints[low:]), range(2, top + 1))
    assert folded == Counter({d: e for d, e in exponents.items() if 2 <= d <= top})
    read = prod((_phi(d) ** e for d, e in folded.items()), start=sympy.Poly(x ** low, x))
    assert read * sympy.Poly(rest[::-1], x) == _poly(plain)

    displays = set()
    for reader in readers:
        result = factor_into_catalog(reader)
        assert result.product() == q
        assert _sympy_reading(result.residual)[2] == other
        displays.add(result.display())
    assert len(displays) == 1, displays
