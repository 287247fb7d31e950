import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morphcalc.quantity import (
    DivisionByZero,
    MixedFormUnavailable,
    MorphPoly,
    NonZeroRemainder,
    NotSemiIntegrable,
    SIZE_BUDGET,
    SizeLimitExceeded,
    ZeroQuantity,
    classify,
    div_exact,
    euler,
    evaluate_at,
    render,
    semi_integral_minimal,
)
from morphcalc.quantity import SEARCH_BUDGET, VIEW_BUDGET, _dp_min_rep, _halfline_ints, _view_bits
from morphcalc import quantity
from morphcalc.lang import eval_expr, parse

from oracles import _search_min_rep, p_coeff

R = MorphPoly.line()
P = MorphPoly.halfline()


# -- strategies ------------------------------------------------------------

dyadic = st.builds(
    Fraction,
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([1, 2, 4]),
)

small_poly = st.builds(
    MorphPoly,
    st.dictionaries(st.integers(min_value=0, max_value=4), dyadic, max_size=4),
)

dyadic_r_poly = st.builds(
    MorphPoly.from_r_coeffs,
    st.dictionaries(
        st.integers(min_value=0, max_value=8),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 4, 8, 16])),
        max_size=9,
    ),
)

int_r_poly = st.builds(
    MorphPoly.from_r_coeffs,
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-3, max_value=3),
        max_size=5,
    ),
)


# -- ring arithmetic -------------------------------------------------------

def test_add_flattening():
    assert R + (1 + R) == 2 * R + 1
    assert render(2 * R + 1, "p") == "4*Rp + 3"


def test_constants_hash_as_their_value():
    for value in (0, 1, -3, Fraction(1, 2)):
        q = MorphPoly.constant(value)
        assert q == value and hash(q) == hash(value)
    assert len({MorphPoly.constant(1), 1}) == 1
    assert len({MorphPoly.constant(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_halfline_square():
    assert (2 * P + 1) * (2 * P + 1) == R ** 2
    assert R ** 2 == 4 * P ** 2 + 4 * P + 1


def test_sphere_octahedron_form():
    assert render(2 * R ** 2 + 2 * R + 2, "p") == "8*Rp^2 + 12*Rp + 6"


def test_pow():
    assert render(R ** 3, "p") == "8*Rp^3 + 12*Rp^2 + 6*Rp + 1"
    q = 3 * P + 2
    assert q ** 1 == q
    assert q ** 0 == 1
    binom = (2 * P + 1) ** 5
    assert all(p_coeff(binom, j) == __import__("math").comb(5, j) * 2 ** j for j in range(6))


def test_render_rejects_an_unknown_basis():
    with pytest.raises(ValueError, match="unknown basis 'x'"):
        render(R, "x")


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        R ** -1


def test_pow_checks_the_size_budget_before_multiplying():
    two = MorphPoly.constant(2)
    assert two ** SIZE_BUDGET == 1 << SIZE_BUDGET  # one coefficient of SIZE_BUDGET bits
    with pytest.raises(SizeLimitExceeded, match=f"budget of {SIZE_BUDGET}"):
        two ** (SIZE_BUDGET + 1)
    with pytest.raises(SizeLimitExceeded):
        (R + 1) ** 2100  # 2101 coefficients of up to 2100 bits


def test_mul_counts_non_zero_terms_against_the_size_budget():
    # counting every coefficient, R^150000 * R^150000 would read 300001 * bits(150000)
    # bits, over the budget (a dense product over it is a command-line test)
    assert (R ** 150000) * (R ** 150000) == R ** 300000
    assert (R ** 100000 + 1) ** 4 == MorphPoly.from_r_coeffs(
        {100000 * i: c for i, c in enumerate((1, 4, 6, 4, 1))})


def test_mul_of_a_long_sparse_and_a_long_dense_operand_is_fast_and_exact():
    # (R^300000 + 1) * S(200000) is two passes over S(200000); one pass for each
    # of S(200000)'s coefficients over R^300000 + 1 took minutes
    sparse, dense = R ** 300000 + 1, eval_expr(parse("S(200000)"))
    t0 = time.monotonic()
    products = sparse * dense, dense * sparse
    assert time.monotonic() - t0 < 10
    expected = MorphPoly.from_r_coeffs(
        {e: 2 for e in itertools.chain(range(200001), range(300000, 500001))})
    assert products == (expected, expected)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_poly, dyadic.map(MorphPoly.constant), st.just(MorphPoly.zero())),
       st.integers(min_value=0, max_value=9))
def test_pow_is_repeated_multiplication(q, n):
    expected = MorphPoly.constant(1)
    for _ in range(n):
        expected = expected * q
    assert q ** n == expected


def test_pow_multiplies_only_towards_the_result(monkeypatch):
    products = []
    mul = MorphPoly.__mul__

    def recording(a, b):
        products.append((a, b))
        return mul(a, b)

    bases = [3 * P + 2, R ** 3 - R, P, MorphPoly.constant(5)]
    monkeypatch.setattr(MorphPoly, "__mul__", recording)
    for q in bases:
        for n in range(1, 40):
            products.clear()
            result = q ** n
            assert len(products) <= 2 * (n.bit_length() - 1)
            for a, b in products:
                assert a != 1 and b != 1
                assert a.degree() + b.degree() <= result.degree()


# -- monomial operands: one scaled shift, no convolution ----------------------

monomial = st.builds(
    lambda c, j, s: MorphPoly.from_r_coeffs({j: Fraction(c, 2 ** s)}),
    st.integers(-40, 40).filter(bool), st.integers(0, 12), st.integers(0, 4))

_POINTS = (Fraction(0), Fraction(-1), Fraction(3, 2), Fraction(-7, 5), Fraction(11, 3))


def _convolution(a, b):
    """a * b by the schoolbook double loop over the Fraction R-coefficients."""
    out = {}
    for i, x in a.r_coeffs().items():
        for j, y in b.r_coeffs().items():
            out[i + j] = out.get(i + j, 0) + x * y
    return MorphPoly.from_r_coeffs(out)


@settings(max_examples=300, deadline=None)
@given(monomial, st.one_of(small_poly, dyadic_r_poly, monomial,
                           dyadic.map(MorphPoly.constant), st.just(MorphPoly.zero())))
def test_a_monomial_product_is_the_convolution(m, q):
    expected = _convolution(m, q)
    assert m * q == q * m == expected
    for x in _POINTS:
        assert evaluate_at(m * q, x) == evaluate_at(q * m, x) == evaluate_at(m, x) * evaluate_at(q, x)


@settings(max_examples=200, deadline=None)
@given(monomial, st.integers(min_value=0, max_value=40))
def test_a_monomial_power_is_repeated_convolution(m, n):
    expected = MorphPoly.constant(1)
    for _ in range(n):
        expected = _convolution(expected, m)
    assert m ** n == expected
    for x in _POINTS:
        assert evaluate_at(m ** n, x) == evaluate_at(m, x) ** n


@settings(max_examples=80, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- division --------------------------------------------------------------

def test_div_exact_geometric_series():
    assert div_exact(R ** 4 - 1, R - 1) == R ** 3 + R ** 2 + R + 1
    assert div_exact(R ** 3 - 1, R - 1) == R ** 2 + R + 1


def test_div_exact_halfline():
    assert div_exact(R - 1, MorphPoly.constant(2)) == P


def test_div_exact_remainder():
    with pytest.raises(NonZeroRemainder) as err:
        div_exact(R ** 2 + 1, R + 1)
    assert "2" in str(err.value)  # frozen by long division: remainder is 2


@pytest.mark.parametrize("num,den,message", [
    ("R^2+1", "R+1", "non-zero remainder 2"),
    ("R^3+2", "R^3+1", "non-zero remainder 1"),
    ("R^5+R^4+5", "2*R^4", "non-zero remainder 5"),
    ("Rp^7+R", "R^5-1",
     "non-zero remainder 0 - 35/8*Rp^4 - 105/16*Rp^3 - 125/32*Rp^2 + 53/64*Rp + 1"),
    ("S(12000)", "S(5999)", "non-zero remainder 2"),
])
def test_a_remainder_message_costs_the_remainder_not_the_divisor(num, den, message):
    # S(12000) by S(5999) leaves 2, in a list as long as the divisor
    num, den = eval_expr(parse(num)), eval_expr(parse(den))
    t0 = time.monotonic()
    with pytest.raises(NonZeroRemainder) as err:
        div_exact(num, den)
    assert time.monotonic() - t0 < 0.5
    assert str(err.value) == message


def test_a_remainder_over_the_view_budget_is_named_by_its_degree():
    # S(2n) by S(n) leaves 2 * (R^(n-1) + .. + 1); at n = 30000 its halfline
    # form would hold about 1.8 G bits
    num, den = eval_expr(parse("S(60000)")), eval_expr(parse("S(30000)"))
    t0 = time.monotonic()
    with pytest.raises(NonZeroRemainder) as err:
        div_exact(num, den)
    assert time.monotonic() - t0 < 2
    assert (str(err.value), err.value.remainder) == ("non-zero remainder of degree 29999", None)


def test_div_exact_non_dyadic_quotient():
    with pytest.raises(NonZeroRemainder):
        div_exact(MorphPoly.constant(7), MorphPoly.constant(3))
    with pytest.raises(NonZeroRemainder):
        div_exact(R, MorphPoly.constant(3))
    assert div_exact(MorphPoly.constant(7), MorphPoly.constant(2)) == Fraction(7, 2)


def test_number_over_quantity_divides_exactly():
    assert 2 / MorphPoly.constant(2) == 1
    assert 4 / MorphPoly.constant(8) == Fraction(1, 2)
    with pytest.raises(NonZeroRemainder):
        1 / (R + 1)


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        div_exact(R, MorphPoly.zero())


@settings(max_examples=80, deadline=None)
@given(small_poly, small_poly)
def test_div_exact_inverts_mul(a, b):
    if b.is_zero():
        return
    assert div_exact(a * b, b) == a


def _with_lead(low, odd, twos):
    return MorphPoly.from_r_coeffs({**dict(enumerate(low)), len(low): odd * Fraction(2) ** twos})


# a divisor whose leading R-coefficient has an odd part, so long division scales by it
odd_lead_poly = st.builds(_with_lead, st.lists(dyadic, max_size=4),
                          st.sampled_from([3, 5, 7, 9]), st.integers(-2, 2))


@settings(max_examples=80, deadline=None)
@given(dyadic_r_poly, odd_lead_poly, st.integers(-40, 40).filter(lambda c: c % 3))
def test_div_exact_by_an_odd_lead(q, den, c):
    assert div_exact(q * den, den) == q
    with pytest.raises(NonZeroRemainder, match="non power-of-two denominators"):
        div_exact(c * den, 3 * den)


# -- evaluation and invariants ----------------------------------------------

def test_evaluate_at():
    assert evaluate_at(2 * R ** 2 + 2 * R + 2, -1) == 2
    assert evaluate_at(P, -1) == -1
    assert evaluate_at(R ** 2 + R + 1, -1) == 1
    assert evaluate_at(R, Fraction(1, 2)) == Fraction(1, 2)


def test_euler_integer_for_integer_quantities():
    assert euler(R ** 2 - R + 1) == 3
    assert euler(2 * R ** 3 + 2 * R ** 2 + 2 * R + 2) == 0
    assert isinstance(euler(R - 2), int)


@settings(max_examples=60, deadline=None)
@given(int_r_poly, st.data())
def test_euler_invariant_under_cell_rewrites(q, data):
    rc = q.r_coeffs()
    exps = [e for e in rc if e >= 1]
    if not exps:
        return
    j = data.draw(st.sampled_from(exps))
    rewritten = q + MorphPoly.from_r_coeffs({j: 1, j - 1: 1})  # R^j -> 2R^j + R^(j-1)
    assert evaluate_at(rewritten, -1) == evaluate_at(q, -1)


# -- the halfline view ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.one_of(small_poly, dyadic_r_poly, monomial))
def test_the_view_estimate_bounds_every_halfline_coefficient(q):
    ints, _ = _halfline_ints(q._ints, q._shift)
    assert len(ints) * max((c.bit_length() for c in ints), default=0) <= _view_bits(q._ints)


def test_the_view_estimate_bounds_a_large_view():
    q = eval_expr(parse("S(700) - 3*R^699 + Rp^5"))
    ints, _ = _halfline_ints(q._ints, q._shift)
    assert len(ints) * max(c.bit_length() for c in ints) <= _view_bits(q._ints)


def test_a_view_over_its_budget_is_refused_before_any_work():
    # S(3000) in the Rp basis stays answerable; its estimate is about 18 M bits
    assert _view_bits(eval_expr(parse("S(3000)"))._ints) <= VIEW_BUDGET
    for q in (R ** 20000, eval_expr(parse("S(20000)")), R ** 20000 - 1):
        t0 = time.monotonic()
        for view in (lambda: render(q, "p"), lambda: render(q, "mixed"), q.p_coeffs):
            with pytest.raises(SizeLimitExceeded, match=f"over the view budget of {VIEW_BUDGET}"):
                view()
        assert time.monotonic() - t0 < 1
    with pytest.raises(SizeLimitExceeded, match="view budget"):
        classify(R ** 20000 - 1)  # an object, not integrable: its flags need the view


# -- classification ----------------------------------------------------------

@pytest.mark.parametrize(
    "q,label",
    [
        (R - 2, "IntegerTypeNotSemiIntegrable"),
        ((R + 1) * P, "HalfIntegerType"),
        (R ** 2 - 1, "SemiIntegrableIntegerType"),
        (P - 1, "JustAnotherType"),
        (1 - R, "NotAnObject"),
        (2 * R ** 2 + 2 * R + 2, "Integrable"),
        (MorphPoly.zero(), "NotAnObject"),
        (MorphPoly.constant(Fraction(1, 2)), "NotAnObject"),
        (MorphPoly.constant(7), "Integrable"),
    ],
)
def test_classify_examples(q, label):
    assert classify(q).label == label


def test_classify_flag_details():
    c = classify(R - 2)
    assert c.integer_type and not c.semi_integrable
    c = classify(R ** 2 - 1)
    assert c.integer_type and c.semi_integrable and not c.integrable


def test_classify_reads_a_negative_lead_without_the_halfline_view():
    # the leading halfline coefficient is c_d * 2^d / 2^s, so its sign is that of c_d
    for coeffs in itertools.product(range(-2, 3), repeat=4):
        for shift in (0, 1, 2):
            q = MorphPoly.from_r_coeffs({i: Fraction(c, 2 ** shift) for i, c in enumerate(coeffs)})
            if q.is_zero():
                continue
            p_ints, p_shift = _halfline_ints(q._ints, q._shift)
            is_object = p_shift == 0 and p_ints[-1] >= 1
            c = classify(q)
            assert (c.is_object, c.semi_integrable) == (is_object, is_object and min(p_ints) >= 0)
    q = MorphPoly.zero() - R ** 4000
    t0 = time.monotonic()
    assert classify(q).label == "NotAnObject"
    assert time.monotonic() - t0 < 0.5


@settings(max_examples=120, deadline=None)
@given(small_poly)
def test_classify_flag_implications(q):
    c = classify(q)
    if c.integrable:
        assert c.semi_integrable and c.integer_type
    assert c.half_integer_type == (c.semi_integrable and not c.integer_type)
    if not c.is_object:
        assert not any(
            [c.integrable, c.semi_integrable, c.integer_type,
             c.half_integer_type, c.just_another_type]
        )
    labels = {
        "Integrable": c.integrable,
        "SemiIntegrableIntegerType": c.semi_integrable and c.integer_type and not c.integrable,
        "HalfIntegerType": c.half_integer_type,
        "IntegerTypeNotSemiIntegrable": c.integer_type and not c.semi_integrable,
        "JustAnotherType": c.just_another_type,
        "NotAnObject": not c.is_object,
    }
    assert labels[c.label]


# -- semi-integral minimal form ----------------------------------------------

def test_semi_integral_phantom_rp4():
    q = R ** 4 - R ** 3 + R ** 2 - R + 1
    form = semi_integral_minimal(q)
    assert form.terms == ((1, 3, 2), (1, 1, 2), (0, 0, 1))
    assert form.j_max == 1
    assert form.quantity() == q


def test_semi_integral_cylinder():
    form = semi_integral_minimal(R ** 2 - 1)
    assert form.terms == ((1, 1, 2), (1, 0, 2))
    assert form.j_max == 1


def test_semi_integral_integrable_is_j0():
    q = 2 * R ** 2 + 2 * R + 2
    form = semi_integral_minimal(q)
    assert form.j_max == 0
    assert form.quantity() == q


def test_semi_integral_rejects():
    with pytest.raises(NotSemiIntegrable):
        semi_integral_minimal(R - 2)


def test_semi_integral_phantoms_pinned():
    # the exhaustive search took about 1 s on RPh(10) and 12 times longer per step
    for m in (10, 12):
        text = " + ".join(f"2*Rp*R^{r}" for r in range(m - 1, 1, -2)) + " + 2*Rp*R + 1"
        assert render(eval_expr(parse(f"RPh({m})")), "mixed") == text


def _dp(q, j):
    """`_dp_min_rep` on q's halfline view, read as `semi_integral_minimal` reads it."""
    c, shift = _halfline_ints(q._ints, q._shift)
    assert shift == 0 and min(c) >= 0
    return _dp_min_rep(c, j, [0])


def test_dp_matches_search_oracle_to_degree_4():
    # every semi-integrable quantity of degree <= 4 with Rp-coefficients 0..3,
    # at every halfline bound, including the infeasible ones (None)
    pairs = 0
    for coeffs in itertools.product(range(4), repeat=5):
        if not any(coeffs):
            continue
        q = MorphPoly(dict(enumerate(coeffs)))
        for j in range(q.degree() + 1):
            found = _search_min_rep(q, j)
            assert _dp(q, j) == found, (coeffs, j)
            assert j >= q._shift or found is None, (coeffs, j)  # none below the shift
            pairs += 1
    assert pairs == 4779


def test_dp_matches_search_oracle_degree_5_draws():
    # degree 5 with Rp-coefficients 0..3, where the exhaustive search still
    # finishes in milliseconds; sums of R^5-sized terms can take it minutes
    rng = random.Random(5)
    for _ in range(100):
        coeffs = [rng.randint(0, 3) for _ in range(5)] + [rng.randint(1, 3)]
        q = MorphPoly(dict(enumerate(coeffs)))
        for j in range(6):
            assert _dp(q, j) == _search_min_rep(q, j), (coeffs, j)


def test_dp_matches_search_oracle_outside_semi_integrable():
    # the search finds no form at any bound, and the mixed form refuses before any search
    for q in (P - 1, P * Fraction(1, 2), R - 2, 1 - R):
        for j in range(q.degree() + 1):
            assert _search_min_rep(q, j) is None
        with pytest.raises(NotSemiIntegrable, match="is not semi-integrable"):
            semi_integral_minimal(q)


def test_the_mixed_form_reads_one_view_and_never_classifies(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(quantity, name)
        monkeypatch.setattr(quantity, name, lambda *a: calls.append(name) or real(*a))

    spy("_halfline_ints")
    spy("classify")
    q = eval_expr(parse("RPh(4)"))
    assert render(q, "mixed") == "2*Rp*R^3 + 2*Rp*R + 1"
    assert calls == ["_halfline_ints"]


def test_the_mixed_form_search_stops_at_its_budget(monkeypatch):
    q = R ** 8 + P ** 4 * R ** 4  # tries 25.6 M values to its answer
    t0 = time.monotonic()
    budget = f"search tried [0-9]+ values, over the search budget of {SEARCH_BUDGET}$"
    with pytest.raises(MixedFormUnavailable, match=budget):
        semi_integral_minimal(q)
    assert time.monotonic() - t0 < 10
    # the count covers every bound of one call: 1 value at j = 1, refused, and 9 at j = 2
    q = eval_expr(parse("2*Rp^2*R + Rp*R^2 + 2"))
    monkeypatch.setattr(quantity, "SEARCH_BUDGET", 10)
    assert semi_integral_minimal(q).j_max == 2
    monkeypatch.setattr(quantity, "SEARCH_BUDGET", 9)
    with pytest.raises(MixedFormUnavailable, match="tried 10 values, over the search budget of 9"):
        semi_integral_minimal(q)
    with pytest.raises(MixedFormUnavailable):  # and so does the rendering
        render(q, "mixed")


def test_dp_on_inputs_the_search_cannot_finish():
    # the exhaustive search did not finish on any of these in 60 s
    cases = [
        (3 * P ** 2 * R ** 2 + 2 * R ** 5, ((2, 2, 3), (0, 5, 2))),
        (P ** 3 * R ** 3 + R ** 6, ((3, 3, 1), (0, 6, 1))),
        (MorphPoly(dict(enumerate((2, 20, 80, 160, 161, 66)))), ((4, 1, 1), (0, 5, 2))),
    ]
    for q, terms in cases:
        form = semi_integral_minimal(q)
        assert form.terms == terms and form.quantity() == q


def _brute_has_representation(q, max_p=None):
    """Independent oracle: search sums c * Rp^p * R^r with c >= 0 integers.

    Terms are tried by descending top degree; once the terms that can still
    reach a degree are exhausted, any remaining demand there kills the branch,
    so each degree level must be covered exactly before moving down.
    """
    from math import comb

    if q.is_zero():
        return False
    coeffs = q.p_coeffs()
    if any(c.denominator != 1 for c in coeffs.values()):
        return False
    degree = q.degree()
    if max_p is None:
        max_p = degree
    target = tuple(int(coeffs.get(d, 0)) for d in range(degree + 1))

    def expand(p, r):
        vec = [0] * (degree + 1)
        for j in range(r + 1):
            vec[p + j] = comb(r, j) << j
        return tuple(vec)

    terms = [
        expand(p, r)
        for p in range(max_p + 1)
        for r in range(degree + 1)
        if p + r <= degree
    ]
    tops = [max(d for d in range(degree + 1) if v[d]) for v in terms]
    order = sorted(range(len(terms)), key=lambda i: tops[i], reverse=True)
    terms = [terms[i] for i in order]
    tops = [tops[i] for i in order]

    seen = set()

    def search(idx, rest):
        if all(v == 0 for v in rest):
            return True
        if idx == len(terms):
            return False
        # no remaining term reaches above tops[idx]
        if any(rest[d] for d in range(tops[idx] + 1, degree + 1)):
            return False
        key = (idx, rest)
        if key in seen:
            return False
        seen.add(key)
        vec = terms[idx]
        cmax = rest[tops[idx]] // vec[tops[idx]]
        for c in range(cmax + 1):
            nxt = tuple(rest[d] - c * vec[d] for d in range(degree + 1))
            if all(v >= 0 for v in nxt) and search(idx + 1, nxt):
                return True
        return False

    return search(0, target)


@settings(max_examples=60, deadline=None)
@given(int_r_poly)
def test_semi_integrability_criterion_vs_brute_force(q):
    if q.is_zero():
        return
    assert classify(q).semi_integrable == _brute_has_representation(q)


def test_brute_force_agrees_on_known_cases():
    assert _brute_has_representation(R ** 2 - 1)
    assert not _brute_has_representation(R - 2)
    assert _brute_has_representation((R + 1) * P)


# -- rendering ----------------------------------------------------------------

def test_render_zero():
    for basis in ("r", "p", "mixed"):
        assert render(MorphPoly.zero(), basis) == "0"


def test_render_r_basis():
    assert render(2 * R + 2, "r") == "2*R + 2"
    assert render(P, "r") == "1/2*R - 1/2"
    assert render(1 - R, "r") == "0 - R + 1"


def test_render_mixed():
    assert render(R ** 4 - R ** 3 + R ** 2 - R + 1, "mixed") == "2*Rp*R^3 + 2*Rp*R + 1"
    with pytest.raises(MixedFormUnavailable):
        render(R - 2, "mixed")


@settings(max_examples=100, deadline=None)
@given(small_poly)
def test_render_parse_round_trip(q):
    for basis in ("r", "p"):
        assert eval_expr(parse(render(q, basis))) == q
    if classify(q).semi_integrable:
        assert eval_expr(parse(render(q, "mixed"))) == q


def _reference_text(coeffs, var):
    """Powers of var by descending exponent, each coefficient printed from its Fraction."""
    text = ""
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        factors = [] if abs(c) == 1 and e else [str(abs(c))]
        factors += [var if e == 1 else f"{var}^{e}"] if e else []
        body = "*".join(factors)
        if text:
            text += f" + {body}" if c > 0 else f" - {body}"
        else:
            text = body if c > 0 else f"0 - {body}"
    return text or "0"


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_poly, dyadic_r_poly))
def test_render_matches_a_fraction_reference(q):
    assert render(q, "r") == _reference_text(q.r_coeffs(), "R")
    assert render(q, "p") == _reference_text(q.p_coeffs(), "Rp")


def test_degree_and_zero():
    with pytest.raises(ZeroQuantity):
        MorphPoly.zero().degree()
    assert (R ** 2 - R + 1).degree() == 2
    assert P.degree() == 1


@settings(max_examples=100, deadline=None)
@given(small_poly)
def test_r_basis_round_trip(q):
    assert MorphPoly.from_r_coeffs(q.r_coeffs()) == q


# -- representation ------------------------------------------------------------

def _assert_normalised(q):
    ints, shift = q._ints, q._shift
    assert type(ints) is tuple and all(type(c) is int for c in ints)
    assert not ints or ints[-1] != 0
    assert shift >= 0
    assert shift == 0 or any(c & 1 for c in ints)


def _assert_nonzero_fraction_map(coeffs):
    assert all(type(e) is int and type(c) is Fraction and c != 0 for e, c in coeffs.items())


@settings(max_examples=100, deadline=None)
@given(small_poly, small_poly)
def test_representation_is_normalised(a, b):
    results = [a, b, a + b, a - b, a * b, -a, a ** 2, MorphPoly.from_r_coeffs(a.p_coeffs())]
    if b:
        results.append(div_exact(a * b, b))
        try:
            results.append(div_exact(a, b))
        except NonZeroRemainder:
            pass
    for q in results:
        _assert_normalised(q)
        _assert_nonzero_fraction_map(q.p_coeffs())
        _assert_nonzero_fraction_map(q.r_coeffs())


def test_representation_examples():
    def form(q):
        return q._ints, q._shift

    assert form(MorphPoly({0: 0, 3: Fraction(0, 4)})) == ((), 0)
    assert form(MorphPoly({0: Fraction(2, 4)})) == ((1,), 1)
    assert form(R - 1) == ((-1, 1), 0)
    assert form(P) == ((-1, 1), 1)
    assert form(MorphPoly({1: 2, 0: 1})) == ((0, 1), 0)
    half = (R - 1) * Fraction(1, 4)
    assert form(half) == ((-1, 1), 2)
    assert form(half + half) == ((-1, 1), 1)
    assert form(4 * half) == ((-1, 1), 0)


def test_equal_quantities_hash_alike():
    pairs = [
        (MorphPoly({0: Fraction(2, 4)}), Fraction(1, 2)),
        (MorphPoly({0: Fraction(2, 4)}), MorphPoly.constant(Fraction(1, 2))),
        ((R * P) / R, P),
        (2 * P + 1, R),
        (MorphPoly({1: Fraction(4, 2), 0: 1}), R),
        (P * Fraction(1, 2) * 2, P),
        (R - 1 - 2 * P, 0),
        (div_exact(R ** 2 - 1, 4 * P), (R + 1) * Fraction(1, 2)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert len({MorphPoly({0: Fraction(2, 4)}), Fraction(1, 2), (R * P) / R, P, 2 * P + 1, R}) == 3


def test_non_dyadic_fractions_compare_unequal():
    one = MorphPoly.constant(1)
    assert not one == Fraction(1, 3) and not Fraction(1, 3) == one
    assert one != Fraction(1, 3) and MorphPoly.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert len({one, Fraction(1, 3), Fraction(1)}) == 2


def test_views_are_fraction_maps_of_nonzero_terms():
    q = R ** 3 - R * Fraction(3, 2) + P
    assert q.p_coeffs() == {3: 8, 2: 12, 1: 4, 0: Fraction(-1, 2)}
    assert q.r_coeffs() == {3: 1, 1: -1, 0: Fraction(-1, 2)}
    for view in (q.p_coeffs(), q.r_coeffs(), MorphPoly.zero().p_coeffs()):
        _assert_nonzero_fraction_map(view)
