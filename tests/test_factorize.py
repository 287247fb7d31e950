import time
from collections import Counter
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from morphcalc import catalog, factorize
from morphcalc.catalog import (
    BadParams,
    catalog_quantity,
    gaussian_binomial,
    grassmannian,
    lookup,
    phantom,
    poincare_sphere,
    projective,
    registry_table,
    schubert_cells,
    sphere,
)
from morphcalc.cli import run
from morphcalc.factorize import (
    FIELD_STEPS,
    Factor,
    FactorizationResult,
    NotIntegerType,
    _candidates,
    _cyclotomic_exponents,
    _summed_exponents,
    _times_cyclotomic,
    factor_into_catalog,
    grassmann_divide,
    periodicity_scan,
)
from morphcalc.quantity import (
    MorphPoly, NonZeroRemainder, _normalised, classify, div_exact, render)

R = MorphPoly.line()


def test_grassmann_divide_real_examples():
    g63 = grassmann_divide("real", 6, 3)
    assert g63 == (R ** 3 + 1) * (R ** 4 + R ** 3 + R ** 2 + R + 1) * (R ** 2 + 1)
    assert grassmann_divide("real", 7, 1) == MorphPoly.from_r_coeffs({i: 1 for i in range(7)})


def test_grassmann_divide_complex_example():
    assert grassmann_divide("complex", 4, 2) == (R ** 4 + 1) * (R ** 4 + R ** 2 + 1)


def test_grassmann_divide_matches_schubert():
    for n in range(2, 9):
        for k in range(1, n):
            q = grassmann_divide("real", n, k)
            counts = schubert_cells(n, k)
            rc = q.r_coeffs()
            top = k * (n - k)
            assert [int(rc.get(top - i, 0)) for i in range(top + 1)] == counts


def test_grassmann_divide_duality():
    for field in ("real", "complex", "quaternionic"):
        for n in range(2, 8):
            for k in range(1, n):
                assert grassmann_divide(field, n, k) == grassmann_divide(field, n, n - k)


def test_grassmann_divide_is_scaled_gaussian():
    # complex and quaternionic quotients are the Gaussian binomial in C resp. H
    for n in range(2, 7):
        for k in range(1, n):
            gb = gaussian_binomial(n, k)
            for field, step in (("complex", 2), ("quaternionic", 4)):
                scaled = MorphPoly.from_r_coeffs(
                    {step * e: c for e, c in gb.r_coeffs().items()}
                )
                assert grassmann_divide(field, n, k) == scaled


def test_grassmann_divide_bad_params():
    with pytest.raises(BadParams):
        grassmann_divide("real", 3, 3)
    with pytest.raises(BadParams):
        grassmann_divide("octonionic", 4, 2)


def _factor_multiset(result):
    out = []
    for f in result.factors:
        tag = (f.name, f.params) if f.name else ("raw", render(f.poly, "r"))
        out.extend([tag] * f.multiplicity)
    return sorted(map(str, out))


WORKED_TABLES = {
    6: ["('RP', (4,))", "('SS', (2,))", "('SS', (3,))"],
    7: ["('RP', (4,))", "('RP', (6,))", "('RPh', (2,))"],
    8: ["('CP', (3,))", "('RP', (6,))", "('SS', (3,))"],
    9: ["('CP', (3,))", "('RP', (6,))", "('raw', 'R^6 + R^3 + 1')"],
    10: ["('CP', (4,))", "('RP', (7,))", "('raw', 'R^6 + R^3 + 1')"],
    11: ["('CP', (4,))", "('RP', (10,))", "('raw', 'R^6 + R^3 + 1')"],
    12: ["('CP', (4,))", "('RP', (10,))", "('SS', (3,))", "('SS', (6,))"],
    13: ["('RP', (10,))", "('RP', (12,))", "('RPh', (2,))", "('SS', (6,))"],
}


@pytest.mark.parametrize("n", sorted(WORKED_TABLES))
def test_factor_tables(n):
    result = factor_into_catalog(grassmann_divide("real", n, 3))
    assert result.residual == 1
    assert _factor_multiset(result) == sorted(WORKED_TABLES[n])
    assert result.product() == grassmann_divide("real", n, 3)


def test_factor_simple_example():
    result = factor_into_catalog(R ** 4 + R ** 3 + 2 * R ** 2 + R + 1)
    assert _factor_multiset(result) == ["('RP', (2,))", "('SS', (2,))"]
    assert result.residual == 1


def test_factor_powers_of_r_and_residual():
    result = factor_into_catalog(R ** 3 * (R ** 2 + 1) * 2)
    names = _factor_multiset(result)
    assert names.count("('raw', 'R')") == 3
    assert "('SS', (2,))" in names
    assert result.residual == 2
    assert result.product() == R ** 3 * (R ** 2 + 1) * 2


def test_factor_rejects_non_integer_type():
    with pytest.raises(NotIntegerType):
        factor_into_catalog(MorphPoly.halfline())
    with pytest.raises(NotIntegerType):
        factor_into_catalog(1 - R)
    with pytest.raises(NotIntegerType, match="^0 is not of integer type$"):
        factor_into_catalog(MorphPoly.zero())


def test_factor_and_cell_complexes_read_their_flag_without_a_halfline_shift(monkeypatch):
    from morphcalc import quantity
    from morphcalc.stability import CellComplex, InvalidComplex

    calls = []
    halfline_ints = quantity._halfline_ints

    def counting(ints, shift):
        calls.append(len(ints))
        return halfline_ints(ints, shift)

    monkeypatch.setattr(quantity, "_halfline_ints", counting)
    q = R ** 30 - 1  # integer type, not integrable
    assert factor_into_catalog(q).product() == q
    with pytest.raises(InvalidComplex):
        CellComplex(q)
    assert calls == []


def test_named_factors_match_catalog():
    from morphcalc.catalog import catalog_quantity

    result = factor_into_catalog(grassmann_divide("real", 13, 3))
    for f in result.factors:
        if f.name is not None:
            assert catalog_quantity(f.name, f.params) == f.poly


def test_every_emitted_factor_is_integer_type():
    for n in (7, 10, 12):
        result = factor_into_catalog(grassmann_divide("real", n, 3))
        for f in result.factors:
            assert classify(f.poly).integer_type


_dict_element = st.sampled_from(
    [
        R,
        R + 1,
        R ** 2 + 1,
        R ** 3 + 1,
        R ** 2 + R + 1,
        R ** 4 + R ** 3 + R ** 2 + R + 1,
        R ** 4 + R ** 2 + 1,
        R ** 2 - R + 1,
        R ** 6 + R ** 3 + 1,
    ]
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_dict_element, min_size=1, max_size=4), st.integers(1, 3))
def test_factor_reconstruction(elements, scale):
    q = MorphPoly.constant(scale)
    for e in elements:
        q = q * e
    result = factor_into_catalog(q)
    assert result.product() == q


def test_periodicity_k2():
    report = periodicity_scan(2, (4, 12))
    assert report.period == 2
    sigs = {n: sig for n, sig, _ in report.entries}
    assert sigs[4] == sigs[6] == sigs[8] == sigs[10] == sigs[12]
    assert sigs[5] == sigs[7] == sigs[9] == sigs[11]
    assert sigs[4] != sigs[5]


def test_periodicity_k3():
    report = periodicity_scan(3, (6, 16))
    assert report.period == 6
    sigs = {n: sig for n, sig, _ in report.entries}
    assert len({sigs[n] for n in range(6, 12)}) == 6
    for n in range(6, 11):
        assert sigs[n] == sigs[n + 6]


def test_periodicity_holds_out_to_n_40():
    assert periodicity_scan(2, (4, 40)).period == 2
    assert periodicity_scan(3, (6, 40)).period == 6


def test_periodicity_g32_case():
    report = periodicity_scan(2, (3, 5))
    sigs = dict((n, s) for n, s, _ in report.entries)
    assert sigs[3]  # G(3,2) = RP(2): a single projective factor
    result = factor_into_catalog(grassmann_divide("real", 3, 2))
    assert _factor_multiset(result) == ["('RP', (2,))"]


def test_periodicity_report_serialization():
    report = periodicity_scan(2, (4, 8))
    text = report.to_text()
    assert "detected period: 2" in text
    records = report.records()
    assert len(records) == 5 and all(isinstance(n, int) for n, _ in records)
    report = periodicity_scan(2, range(4, 6))
    assert report.period == 0
    assert report.to_text().endswith("no period detected in range")
    with pytest.raises(BadParams):
        periodicity_scan(4, (5, 9))


def test_periodicity_scan_of_an_empty_range_is_bad_params():
    with pytest.raises(BadParams, match="non-empty range"):
        periodicity_scan(2, range(5, 5))


def test_periodicity_scan_reads_its_range_once():
    # an iterator has no second pass; the scan still covers 4..7
    assert [n for n, _, _ in periodicity_scan(3, iter(range(4, 8))).entries] == [4, 5, 6, 7]


def test_periodicity_scan_covers_min_to_max_of_a_stepped_range():
    assert [n for n, _, _ in periodicity_scan(2, range(5, 9, 2)).entries] == [5, 6, 7]


@pytest.mark.parametrize("n_range", [(4.5, 6), (4, "6"), 5])
def test_periodicity_scan_refuses_a_range_that_is_not_integers(n_range):
    with pytest.raises(BadParams):
        periodicity_scan(3, n_range)


# -- reference: greedy trial division by candidate polynomials ------------------


def _reference_dictionary(max_degree):
    out = []
    for k in range(2, max_degree + 1):
        out.append(("SS", "SS", (k,), poincare_sphere(k)))
    for m in range(1, max_degree // 2 + 1):
        out.append(("RP", "RP", (2 * m,), projective(2 * m, 1)))
    for k in range(2, max_degree // 2 + 1):
        out.append(("CP", "CP", (k,), projective(k, 2)))
    for k in range(2, max_degree // 4 + 1):
        out.append(("HP", "HP", (k,), projective(k, 4)))
    for k in range(3, max_degree + 1):
        if k == 4:
            continue  # coincides with the quaternionic projective family
        for s in range(2, max_degree // k + 1):
            if all((s + 1) % p for p in range(2, s + 1)):
                middle = MorphPoly.from_r_coeffs({i * k: 1 for i in range(s + 1)})
                out.append(("hopf", None, (s, k), middle))
    for m in range(1, max_degree // 2 + 1):
        name = {1: "RPh", 2: "CPh", 4: "HPh"}.get(m)
        out.append(("Ph", name, (2,) if name else (m,), phantom(2, m)))
    rank = {"SS": 0, "RP": 1, "CP": 2, "HP": 3, "hopf": 4, "Ph": 5}
    return sorted(out, key=lambda c: (-c[3].degree(), rank[c[0]]))


def _quotient(q, d):
    try:
        return div_exact(q, d)
    except NonZeroRemainder:
        return None


def _reference_factor(q):
    """Strip R, divide by the first candidate that divides, restart; then R + 1."""
    found = []
    current = q
    for _ in range(min(q.r_coeffs())):
        current = div_exact(current, R)
        found.append(("R", None, (), R))
    candidates = _reference_dictionary(current.degree())
    progress = True
    while progress and current.degree() > 0:
        progress = False
        for candidate in candidates:
            if candidate[3].degree() <= current.degree():
                quotient = _quotient(current, candidate[3])
                if quotient is not None:
                    found.append(candidate)
                    current = quotient
                    progress = True
                    break
    rp1 = projective(1, 1)
    spare = 0
    while current.degree() > 0 and _quotient(current, rp1) is not None:
        current = _quotient(current, rp1)
        spare += 1
    merged = []
    cps = sorted((f for f in found if f[0] == "CP"), key=lambda f: f[2][0])
    for f in found:
        if f[0] == "CP" and spare and cps and f is cps[0]:
            m = f[2][0]
            merged.append(("RP", "RP", (2 * m + 1,), projective(2 * m + 1, 1)))
            spare -= 1
            cps.pop(0)
        else:
            merged.append(f)
    merged += [("RP", "RP", (1,), rp1)] * spare
    counts = {}
    for key in merged:
        counts[key] = counts.get(key, 0) + 1
    factors = tuple(Factor(*key, multiplicity) for key, multiplicity in counts.items())
    return FactorizationResult(factors=factors, residual=current)


def test_each_candidate_factors_to_itself():
    # every candidate of degree <= 30 tops at a cyclotomic index <= 90
    for top in range(2, 91):
        for _, family, name, params, block in _candidates(top):
            poly = catalog._quotient([block])
            result = factor_into_catalog(poly)
            assert result.residual == 1, (family, params)
            [factor] = result.factors
            assert factor.poly == poly and factor.multiplicity == 1
            assert (factor.family, factor.name, factor.params) == (family, name, params)


def test_cover_rows_are_the_candidates_with_their_exponents():
    for top in range(1, 91):
        rows = factorize._rows(top)
        assert [row[:5] for row in rows] == list(_candidates(top)), top
        for row in rows:
            assert row[5] == tuple(_summed_exponents(row[4][2]).items()), (top, row[:4])


def _mu(n):
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def test_over_cyclotomic_pairs_are_the_negated_moebius_values():
    for d in range(1, 1001):
        pairs = tuple((m, -_mu(d // m)) for m in range(1, d + 1) if d % m == 0 and _mu(d // m))
        assert factorize._over_cyclotomic(d) == (pairs, -sum(m * k for m, k in pairs)), d


def test_every_factorize_cache_is_bounded():
    caches = {name: value for name, value in vars(factorize).items()
              if hasattr(value, "cache_info")}
    assert set(caches) == {"_divisors", "_over_cyclotomic", "_rows", "_middle"}
    for name, cache in caches.items():
        assert isinstance(cache.cache_info().maxsize, int), name


@pytest.mark.parametrize("expr,factors,residual", [
    ("O(8)", "RP(6) * CP(3) * RP(4) * RP(5) * SS(2) * RP(2) * RP(1)^3", "256"),
    ("U(6)", "CP(5) * CP(4) * CP(3) * RP(5) * SS(2) * RP(1)^5", "64"),
    ("Sp(4)", "CP(7) * CP(5) * RP(7) * SS(2) * RP(1)^3", "16"),
    ("V(9,4)", "RP(8) * RP(6) * CP(3) * RP(5) * RP(1)", "16"),
    ("NG(8,6,3)", "RP(6) * CP(3) * RP(4) * RP(5) * SS(3) * SS(2) * RP(1)", "8"),
    ("CP(3)*CP(2)*(R+1)^2", "CP(3) * RP(5) * RP(1)", "1"),
    ("CP(2)^3*(R+1)", "RP(5) * CP(2)^2", "1"),
])
def test_spare_circles_merge_into_the_smallest_cp_only(capsys, expr, factors, residual):
    # each spare R + 1 turns one copy of the last (smallest) CP(m) found into RP(2m + 1)
    # in its place; what is left over stays RP(1)
    assert run(["factor", expr]) == 0
    assert capsys.readouterr() == (f"factors: {factors}\nresidual: {residual}\n", "")


PHI10 = R ** 4 - R ** 3 + R ** 2 - R + 1  # cyclotomic, but in no candidate alone


def test_cyclotomic_matches_the_recursive_quotient():
    below = {}
    for d in range(1, 61):
        rest = [below[m] for m in below if d % m == 0]
        below[d] = div_exact(R ** d - 1, prod(rest, start=MorphPoly.constant(1)))
        assert _normalised(_times_cyclotomic([1], {d: 1}), 0) == below[d], d
    assert _normalised(_times_cyclotomic([1], {10: 1}), 0) == PHI10


@pytest.mark.parametrize("q,factors,residual", [
    (R + 1, "RP(1)", 1),
    (R, "R", 1),
    (MorphPoly.constant(3), "", 3),
    (R - 1, "", R - 1),
    (R ** 2 + R + 2, "", R ** 2 + R + 2),
    (PHI10, "", PHI10),
    (PHI10 ** 2 * (R + 1) * (R ** 2 + 1), "SS(5) * SS(2)", PHI10),
])
def test_factor_small_cases(q, factors, residual):
    result = factor_into_catalog(q)
    assert " * ".join(f.display() for f in result.factors) == factors
    assert result.residual == residual


_pool = [f[3] for f in _reference_dictionary(8)] + [
    R, R, R + 1, R - 1, MorphPoly.constant(2), MorphPoly.constant(3),
    R ** 2 + R + 2, 2 * R ** 2 + 1, R ** 3 - R + 1, PHI10,
]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_pool), min_size=1, max_size=5))
def test_factor_matches_trial_division_reference(elements):
    q = MorphPoly.constant(1)
    for e in elements:
        q = q * e
    result, reference = factor_into_catalog(q), _reference_factor(q)
    assert result.display() == reference.display()
    assert result.residual == reference.residual
    assert result.factors == reference.factors


def _read_exponents(field, n, k):
    exponents, rest = _cyclotomic_exponents(
        grassmann_divide(field, n, k)._ints, range(1, FIELD_STEPS[field] * n + 1))
    assert list(rest) == [1], (field, n, k)
    return exponents


def test_exponents_match_the_closed_form():
    # e_d = floor(n/d) - floor(k/d) - floor((n-k)/d) for the real Grassmannians
    for n in range(2, 41):
        for k in range(1, n):
            closed = {d: n // d - k // d - (n - k) // d for d in range(1, n + 1)}
            assert _read_exponents("real", n, k) == +Counter(closed), (n, k)
    # prod_j (R^(s*(n-j+1)) - 1)/(R^(s*j) - 1): count d | m over the top and bottom exponents
    for field in ("complex", "quaternionic"):
        step = FIELD_STEPS[field]
        for n in range(2, 17):
            for k in range(1, n):
                top = [step * (n - j + 1) for j in range(1, k + 1)]
                bottom = [step * j for j in range(1, k + 1)]
                counted = {d: sum(m % d == 0 for m in top) - sum(m % d == 0 for m in bottom)
                           for d in range(1, step * n + 1)}
                assert _read_exponents(field, n, k) == +Counter(counted), (field, n, k)


def test_reading_exponents_makes_no_failed_division(monkeypatch):
    made = []
    init = NonZeroRemainder.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NonZeroRemainder, "__init__", counting_init)
    for q in (grassmann_divide("real", 40, 5), sphere(200)):
        assert factor_into_catalog(q).product() == q
    assert made == []


@pytest.mark.parametrize("build,params", [(sphere, (1000,)), (grassmannian, (200, 5))])
def test_large_factorizations_round_trip_fast(build, params):
    q = build(*params)
    t0 = time.monotonic()
    assert factor_into_catalog(q).product() == q
    assert time.monotonic() - t0 < 2


# -- the two sources of the exponents: a product's pairs, or fold tests -----


def _product_calls():
    """Every call of a row but the sums NC and CSS with parameters 0..8; Flag with up to four."""
    for entry_id, arity, _, _ in registry_table():
        if entry_id in ("NC", "CSS"):
            continue
        names = arity.split(",")
        for length in range(2, 5) if names[-1] == "k1..ks" else [len(names)]:
            for params in product(range(9), repeat=length):
                if lookup(entry_id).check(params):
                    yield entry_id, params


def _plain(q):
    """q as a plain quantity, which keeps no pairs, so that fold tests read its exponents."""
    return _normalised(q._ints, q._shift)


def _both_sources(q):
    """The exponents and the ints left, read from the product's pairs and by fold tests.

    Fold tests read 1 < d <= 3 * degree and leave the other Phi_d in the ints
    left, so the pairs' exponents outside that range go there, times the scale.
    """
    scale, low, pairs = q.merged
    top = 3 * (len(q._ints) - 1 - low)
    exponents = _summed_exponents(pairs)
    left = {d: exponents.pop(d) for d in list(exponents) if not 1 < d <= top}
    folded, rest = _cyclotomic_exponents(q._ints[low:], range(2, top + 1))
    return [(exponents, _normalised(_times_cyclotomic([scale], left), 0)),
            (folded, _normalised(rest, 0))]


def test_both_exponent_sources_agree_on_every_catalog_product():
    calls = list(_product_calls())
    assert len(calls) == 1452
    for call in calls:
        q = catalog_quantity(*call)
        from_pairs, by_folds = _both_sources(q)
        assert from_pairs == by_folds, call
        assert factor_into_catalog(q) == factor_into_catalog(_plain(q)), call


def test_no_catalog_product_has_a_negative_cyclotomic_exponent():
    # e_d of prod (R^m - 1)^k sums the k over the m that d divides
    for call in _product_calls():
        pairs = catalog_quantity(*call).merged[2]
        for d in range(1, max((m for m, _ in pairs), default=0) + 1):
            assert sum(k for m, k in pairs if m % d == 0) >= 0, (call, d)


@pytest.mark.parametrize("call", [
    ("S", (4000,)), ("G", (200, 5)), ("G", (40, 20)), ("G", (18, 5)), ("RPh", (4,))])
def test_both_exponent_sources_agree_on_large_and_named_calls(call):
    q = catalog_quantity(*call)
    t0 = time.monotonic()
    result = factor_into_catalog(q)
    assert time.monotonic() - t0 < 0.5
    assert result == factor_into_catalog(_plain(q))
    if call == ("S", (4000,)):
        assert result.display() == "RP(4000)  [residual: 2]"


def test_a_builder_result_is_factored_from_its_pairs():
    q = sphere(4000)
    t0 = time.monotonic()
    assert factor_into_catalog(q).display() == "RP(4000)  [residual: 2]"
    assert time.monotonic() - t0 < 0.5


def _fold_calls(monkeypatch):
    calls = []
    fold = factorize._cyclotomic_exponents
    monkeypatch.setattr(factorize, "_cyclotomic_exponents",
                        lambda *args: calls.append(args) or fold(*args))
    return calls


@pytest.mark.parametrize("expr,folds", [
    ("G(6,3)", False), ("S(40)", False), ("Flag(7,2,4)", False),
    ("NC(5)", True), ("CSS(3)", True), ("G(6,3) + 1", True), ("S(3)*S(4)", True),
    ("R^3000 - 1", True), ("(G(6,3))", False), ("S(3)^1", False), ("R*G(6,3)", True),
])
def test_the_cli_factors_a_lone_catalog_call_from_its_pairs(monkeypatch, capsys, expr, folds):
    fold_calls = _fold_calls(monkeypatch)
    assert run(["factor", expr]) == 0
    assert bool(fold_calls) == folds
    factors, residual = capsys.readouterr().out.splitlines()
    assert factors.startswith("factors: ") and residual.startswith("residual: ")


def test_periodicity_scan_reads_no_fold(monkeypatch):
    fold_calls = _fold_calls(monkeypatch)
    assert periodicity_scan(3, range(4, 14)).period == 6
    assert fold_calls == []


@pytest.mark.parametrize("expr", ["G(3,5)", "Nope(2)", "RPh(3)", "S(99999999999)", "S(-1)"])
def test_a_lone_catalog_call_fails_in_factor_as_in_eval(capsys, expr):
    code = run(["eval", expr])
    assert code != 0
    failed = capsys.readouterr()
    assert (run(["factor", expr]), capsys.readouterr()) == (code, failed)
