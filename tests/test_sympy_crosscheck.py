"""Cross-check of quantity arithmetic against SymPy's polynomials over QQ."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
