import inspect
import pickle
import time
import tracemalloc
from copy import deepcopy
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from morphcalc import catalog
from morphcalc.catalog import (
    _REGISTRY,
    BadParams,
    InternalDivisionFailed,
    UnknownEntry,
    _quotient,
    _times_pairs,
    catalog_entry,
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
from morphcalc.corpus import hopf_family, sphere_addition
from morphcalc.lang import eval_expr, parse
from morphcalc.quantity import (
    MorphPoly,
    NonZeroRemainder,
    _normalised,
    classify,
    dimension,
    div_exact,
    euler,
    evaluate_at,
)

R = MorphPoly.line()
C = R ** 2
H = R ** 4


def test_sphere_values():
    assert catalog_quantity("s", [2]) == 2 * R ** 2 + 2 * R + 2
    assert catalog_quantity("s", [0]) == 2
    assert catalog_quantity("s", [1]) == 2 * R + 2


def test_projective_values():
    assert catalog_quantity("rp", [2]) == R ** 2 + R + 1
    assert catalog_quantity("rp", [1]) == R + 1
    assert catalog_quantity("cp", [1]) == C + 1
    assert catalog_quantity("hp", [1]) == H + 1
    assert catalog_quantity("ss", [4]) == R ** 4 + 1


def test_phantom_values():
    assert catalog_quantity("rph", [2]) == R ** 2 - R + 1
    assert catalog_quantity("rph", [4]) == R ** 4 - R ** 3 + R ** 2 - R + 1
    assert catalog_quantity("cph", [2]) == C ** 2 - C + 1
    assert catalog_quantity("hph", [2]) == H ** 2 - H + 1
    with pytest.raises(BadParams):
        catalog_quantity("rph", [3])


def test_group_values():
    assert catalog_quantity("o", [2]) == sphere(1) * sphere(0)
    assert catalog_quantity("so", [3]) == sphere(2) * sphere(1)
    assert catalog_quantity("su", [2]) == sphere(3)
    assert catalog_quantity("sp", [2]) == sphere(7) * sphere(3)
    assert catalog_quantity("spin", [5]) == sphere(7) * sphere(3)
    assert catalog_quantity("spin", [6]) == catalog_quantity("su", [4])
    assert catalog_quantity("sospin", [3]) == catalog_quantity("rp", [3])
    assert catalog_quantity("gl", [2]) == (R ** 2 - 1) * (R ** 2 - R)
    assert catalog_quantity("sopq", [2, 1]) == catalog_quantity("o", [2]) * R ** 2


def test_grassmannian_worked_cases():
    assert catalog_quantity("g", [7, 3]) == (
        catalog_quantity("rp", [6])
        * catalog_quantity("rp", [4])
        * catalog_quantity("rph", [2])
    )
    assert catalog_quantity("spin", [5]) == catalog_quantity("sp", [2])
    assert catalog_quantity("rbar", [3, 1]) == (R ** 3 + 1) * (R + 1)
    assert catalog_quantity("tt", [2, 2]) == (R ** 3 + 1) * (R ** 2 + 1)


def test_entry_objects_and_citations():
    entry = catalog_entry("g", [4, 2])
    assert entry.id == "G"
    assert entry.params == (4, 2)
    assert entry.citation
    assert classify(entry.quantity).is_object


def test_unknown_and_bad_params():
    with pytest.raises(UnknownEntry):
        catalog_quantity("nosuch", [1])
    with pytest.raises(BadParams):
        catalog_quantity("g", [2, 5])
    with pytest.raises(BadParams):
        catalog_quantity("spin", [7])
    with pytest.raises(BadParams):
        catalog_quantity("flag", [4, 2, 2])
    with pytest.raises(BadParams):
        catalog_quantity("rbar", [1, 2])


def test_builders_called_directly_outside_their_validity_raise_a_morph_error():
    # the validity text is checked by catalog_entry; a direct call is refused by _quotient
    for build, n in ((sphere, -1), (poincare_sphere, -1), (projective, -1), (phantom, -2)):
        with pytest.raises(BadParams, match=r"a factor R\^m - 1 needs m >= 1"):
            build(n)
    with pytest.raises(NonZeroRemainder):
        phantom(3)


def test_open_complex_sphere_at_zero_is_two_points():
    assert catalog_quantity("CSS", [0]) == 2


# one row per validity phrase: (phrase, entry, accepted, rejected) at the boundary
VALIDITY_BOUNDARIES = [
    ("n >= 0", "S", (0,), (-1,)),
    ("even n >= 0", "RPh", (0,), (-2,)),
    ("n >= 1", "SO", (1,), (0,)),
    ("p >= 1, q >= 1", "SOpq", (1, 1), (1, 0)),
    ("m in 3..6", "Spin", (3,), (2,)),
    ("0 <= k <= n", "G", (3, 0), (3, -1)),
    ("1 <= k <= n", "Gor", (2, 1), (2, 0)),
    ("0 < k1 < .. < ks < n", "Flag", (5, 1, 3), (5, 3, 1)),
    ("n >= 2", "NC", (2,), (1,)),
    ("m >= 0", "CS", (0,), (-1,)),
    ("a, b >= 0", "Spq", (0, 0), (-1, 0)),
    ("p >= q >= 0", "Rbar", (2, 2), (2, 3)),
    ("p >= q >= k >= 1", "NG", (3, 2, 2), (3, 2, 3)),
    ("n >= 2k >= 2", "NGn", (4, 2), (3, 2)),
    ("p, q >= 1", "T", (1, 1), (0, 1)),
    ("p >= q >= 1", "TT", (1, 1), (1, 2)),
    ("p >= 1", "LS", (1,), (0,)),
]


@pytest.mark.parametrize("phrase,entry_id,accepted,rejected", VALIDITY_BOUNDARIES)
def test_validity_text_is_the_check(phrase, entry_id, accepted, rejected):
    spec = lookup(entry_id)
    assert spec.validity == phrase
    assert catalog_entry(entry_id, accepted).params == accepted
    with pytest.raises(BadParams) as info:
        catalog_entry(entry_id, rejected)
    assert str(info.value) == f"{entry_id}({spec.arity}) needs {phrase}; got {list(rejected)}"


def test_validity_boundaries_cover_every_phrase():
    assert {row[0] for row in VALIDITY_BOUNDARIES} == {row[2] for row in registry_table()}


def test_registry_table_covers_every_entry():
    rows = registry_table()
    ids = [row[0] for row in rows]
    assert len(ids) == len(set(ids))
    for required in ["S", "SS", "RP", "CP", "HP", "RPh", "O", "SO", "GL", "SL",
                     "U", "SU", "Sp", "Spin", "V", "VL", "G", "Gor", "Gc", "Gh",
                     "Flag", "NC", "CS", "CSbar", "CSS", "CSSbar", "Spq", "Rbar",
                     "NG", "NGs", "T", "TT", "NGc", "LS"]:
        assert required in ids


# -- combinatorial oracles ---------------------------------------------------

def test_schubert_cells_examples():
    assert schubert_cells(4, 2) == [1, 1, 2, 1, 1]
    assert schubert_cells(5, 1) == [1, 1, 1, 1, 1]
    assert schubert_cells(2, 1) == [1, 1]
    with pytest.raises(BadParams):
        schubert_cells(3, 3)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 2) == R ** 4 + R ** 3 + 2 * R ** 2 + R + 1
    assert gaussian_binomial(6, 6) == 1
    assert gaussian_binomial(5, 1) == R ** 4 + R ** 3 + R ** 2 + R + 1


def test_gaussian_binomial_duality():
    for n in range(2, 9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_gaussian_binomial_has_no_recursion_limit():
    assert gaussian_binomial(1200, 2) == catalog_quantity("G", (1200, 2))


def test_gaussian_binomial_keeps_no_memo():
    gaussian_binomial(200, 3)  # warm up whatever the first call allocates once
    tracemalloc.start()
    try:
        first = tracemalloc.get_traced_memory()[0]
        for n in range(201, 213):
            gaussian_binomial(n, 3)
        grown = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert grown < 50_000, grown


def test_oracle_triangle_small():
    for n in range(2, 9):
        for k in range(1, n):
            counts = schubert_cells(n, k)
            q = catalog_quantity("g", [n, k])
            assert q == gaussian_binomial(n, k)
            rc = q.r_coeffs()
            top = k * (n - k)
            assert [int(rc.get(top - i, 0)) for i in range(top + 1)] == counts


def test_degree_sanity():
    for n, k in [(5, 2), (7, 3), (9, 4)]:
        assert dimension(catalog_quantity("g", [n, k])) == k * (n - k)
    for n in range(1, 7):
        assert dimension(catalog_quantity("o", [n])) == n * (n - 1) // 2


def test_euler_of_complex_projective_spaces():
    for n in range(9):
        assert euler(catalog_quantity("cp", [n])) == n + 1


def test_builders_take_the_parameters_their_arity_names():
    def names(build):
        for p in inspect.signature(build).parameters.values():
            if p.kind is p.VAR_POSITIONAL:
                yield f"k1..{p.name}"
            elif p.default is p.empty:
                yield p.name

    mismatched = [s.id for s in _REGISTRY.values() if ",".join(names(s.build)) != s.arity]
    assert mismatched == []


def test_flag_consistency():
    for n, k, l in [(4, 1, 2), (5, 2, 3), (6, 1, 3)]:
        via_top = catalog_quantity("g", [n, l]) * catalog_quantity("g", [l, k])
        via_orth = catalog_quantity("g", [n, k]) * catalog_quantity("g", [n - k, l - k])
        assert catalog_quantity("flag", [n, k, l]) == via_top == via_orth


def test_catalog_entries_are_objects_samplewide():
    samples = [
        ("s", [5]), ("ss", [6]), ("rp", [7]), ("cp", [3]), ("hp", [2]),
        ("rph", [4]), ("cph", [2]), ("hph", [2]), ("o", [4]), ("so", [5]),
        ("gl", [3]), ("sl", [3]), ("sopq", [2, 2]), ("u", [3]), ("su", [3]),
        ("cstr", [3]), ("upq", [2, 1]), ("sp", [2]), ("spin", [6]),
        ("sospin", [5]), ("v", [5, 2]), ("vl", [4, 2]), ("g", [6, 3]),
        ("gor", [5, 2]), ("gc", [5, 2]), ("gh", [4, 2]), ("flag", [5, 1, 3]),
        ("nc", [4]), ("cs", [3]), ("csbar", [3]), ("css", [4]), ("cssbar", [5]),
        ("spq", [3, 2]), ("rbar", [4, 3]), ("ng", [5, 3, 2]), ("ngs", [5, 3, 2]),
        ("ngn", [7, 2]), ("ngns", [7, 2]), ("t", [3, 2]), ("tt", [3, 2]),
        ("ngc", [3, 2, 2]), ("ngcs", [3, 2, 2]), ("ls", [4]),
    ]
    for entry_id, params in samples:
        q = catalog_quantity(entry_id, params)
        assert classify(q).is_object, (entry_id, params)


def test_grassmannians_are_integrable():
    for n in range(2, 8):
        for k in range(1, n):
            assert classify(catalog_quantity("g", [n, k])).integrable


# -- identity families -------------------------------------------------------

def test_sphere_addition_two_blocks():
    rec = sphere_addition(1, 1)
    assert eval_expr(rec.lhs) == eval_expr(rec.rhs) == 2 * R + 2
    for p, q in [(2, 3), (1, 4), (3, 3)]:
        rec = sphere_addition(p, q)
        assert eval_expr(rec.lhs) == eval_expr(rec.rhs)


def test_sphere_addition_reduces_to_polar_recursion():
    # with one block of size 1 the formula collapses to S(n) = S(n-1)*R + 2
    for n in range(2, 7):
        rec = sphere_addition(n, 1)
        assert eval_expr(rec.lhs) == sphere(n - 1) * R + 2


def test_sphere_addition_three_blocks():
    rec = sphere_addition(1, 1, 1)
    assert eval_expr(rec.lhs) == eval_expr(rec.rhs) == catalog_quantity("s", [2])
    for p, q, r in [(1, 2, 3), (2, 2, 2)]:
        rec = sphere_addition(p, q, r)
        assert eval_expr(rec.lhs) == eval_expr(rec.rhs)


def test_sphere_addition_bad_params():
    with pytest.raises(BadParams):
        sphere_addition(0, 1)


def test_hopf_family():
    rec = hopf_family(1, 2)
    assert rec.rhs_source == "(R^2 + 1)*S(1)"
    assert eval_expr(rec.lhs) == eval_expr(rec.rhs) == sphere(3)
    rec = hopf_family(2, 3)
    assert eval_expr(rec.lhs) == eval_expr(rec.rhs) == sphere(8)
    rec = hopf_family(1, 1)
    assert eval_expr(rec.lhs) == 2 * R + 2
    with pytest.raises(BadParams):
        hopf_family(0, 2)


def _rbar_recursion(p, q):
    return R ** p + 1 if q == 0 else R ** (p + q) + _rbar_recursion(p - 1, q - 1) * R + 1


def _tt_recursion(p, q):
    if q == 1:
        return C ** (p - 1) * R + 1
    return C ** (p + q - 2) * R + _tt_recursion(p - 1, q - 1) * C + 1


def test_rbar_and_tt_products_solve_their_recursions():
    for p in range(16):
        for q in range(p + 1):
            assert catalog_quantity("Rbar", [p, q]) == _rbar_recursion(p, q)
            if q:
                assert catalog_quantity("TT", [p, q]) == _tt_recursion(p, q)


# -- R-basis quotients against their formulas in the Rp basis -------------------


@lru_cache(maxsize=None)
def _rp_sphere(n):
    return div_exact(2 * (R ** (n + 1) - 1), R - 1)


@lru_cache(maxsize=None)
def _rp_projective(n, step):
    return div_exact(R ** (step * (n + 1)) - 1, R ** step - 1)


def _rp_phantom(n, step):
    return div_exact(R ** (step * (n + 1)) + 1, R ** step + 1)


def test_r_basis_quotients_match_their_rp_formulas():
    for n in range(61):
        assert sphere(n) == _rp_sphere(n)
        assert poincare_sphere(n) == R ** n + 1
        for step in (1, 2, 4):
            assert projective(n, step) == _rp_projective(n, step)
            if n % 2 == 0:
                assert phantom(n, step) == _rp_phantom(n, step)


def test_rbar_and_tt_match_their_rp_products():
    for p in range(40):
        stereographic, twistor = R ** p + 1, R ** (2 * p - 1) + 1 if p else None
        for q in range(p + 1):
            assert catalog_quantity("Rbar", [p, q]) == stereographic * _rp_projective(q, 1)
            if q:
                assert catalog_quantity("TT", [p, q]) == twistor * _rp_projective(q - 1, 2)


def test_grassmannians_are_gaussian_binomials_in_r_to_the_step():
    for n in range(15):
        for k in range(n + 1):
            binomial = gaussian_binomial(n, k).r_coeffs()
            for step in (1, 2, 4):
                expected = MorphPoly.from_r_coeffs({step * e: c for e, c in binomial.items()})
                assert grassmannian(n, k, step) == expected, (n, k, step)


@pytest.mark.parametrize("pairs", [((3, 1), (2, -1)), ((1, 1), (2, -1)), ((2, -1),)])
def test_r_power_quotient_raises_on_a_remainder(pairs):
    with pytest.raises(NonZeroRemainder):
        _quotient([(1, 0, pairs)])


def test_r_power_quotient_rejects_factors_without_r():
    with pytest.raises(BadParams):
        _quotient([(1, 0, ((0, 1), (1, -1)))])
    with pytest.raises(BadParams):
        grassmannian(2, 3)  # its top factor would be R^0 - 1


def test_r_power_quotient_divides_after_multiplying():
    assert _quotient([(1, 0, ((2, -1), (4, 1)))]) == R ** 2 + 1
    assert _quotient([(3, 0, ((1, 2), (1, -1)))]) == 3 * (R - 1)
    assert _quotient([(2, 0, ())]) == 2


def _from_ints(c):
    return MorphPoly.from_r_coeffs(dict(enumerate(c)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=12),
       st.lists(st.tuples(st.integers(1, 6), st.integers(-2, 2)), max_size=4))
def test_times_pairs_matches_multiply_and_exact_division(c, pairs):
    top = prod(((R ** m - 1) ** k for m, k in pairs if k > 0), start=_from_ints(c))
    bottom = prod(((R ** m - 1) ** -k for m, k in pairs if k < 0), start=MorphPoly.constant(1))
    got = _times_pairs(c, pairs)
    try:
        expected = div_exact(top, bottom)
    except NonZeroRemainder:
        assert got is None
    else:
        assert got is not None and _from_ints(got) == expected


def test_a_builder_remainder_is_an_internal_division_failure(monkeypatch):
    slip = lookup("S")._replace(build=lambda n: _quotient([(1, 0, ((n, 1), (2, -1)))]))
    monkeypatch.setitem(_REGISTRY, "s", slip)
    monkeypatch.setattr(catalog, "_ENTRIES", {})  # so that S(3) is built by the slip
    with pytest.raises(InternalDivisionFailed, match=r"S\[3\]: internal exact division failed"):
        catalog_entry("S", [3])


def test_a_product_entry_keeps_the_factor_it_was_built_as(monkeypatch):
    # every row but the sums NC and CSS is one factor (scale, a, pairs) once its pairs merge
    for spec in _REGISTRY.values():
        arity = 3 if spec.id == "Flag" else len(spec.arity.split(","))
        for ps in product(range(7), repeat=arity):
            if spec.check(ps):
                q = catalog_quantity(spec.id, ps)
                merged = getattr(q, "merged", None)
                assert (merged is None) == (spec.id in ("NC", "CSS")), (spec.id, ps)
                if merged is not None:
                    assert _quotient([merged]) == q, (spec.id, ps)
    slip = lookup("S")._replace(build=lambda n: _quotient([(1, 0, ((n, 1), (2, -1)))]))
    monkeypatch.setitem(_REGISTRY, "s", slip)
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    with pytest.raises(InternalDivisionFailed):
        catalog_entry("S", [3])


def test_a_product_quantity_is_a_plain_quantity_that_keeps_its_pairs():
    q = catalog_quantity("S", (3,))
    plain = _normalised(q._ints, q._shift)
    assert q.merged == (2, 0, ((1, -1), (4, 1)))
    assert not hasattr(plain, "merged")
    assert q == plain and plain == q and hash(q) == hash(plain) and len({q, plain}) == 1
    for made in (R * q, q + 0, q * q):  # arithmetic returns plain quantities
        assert not hasattr(made, "merged")
    for kept in [deepcopy(q)] + [pickle.loads(pickle.dumps(q, p)) for p in range(2, 6)]:
        assert kept == q and kept.merged == q.merged


def test_large_builds_are_fast_and_exact():
    # each against a closed form; a quadratic change of basis per build or print costs seconds here
    t0 = time.monotonic()
    assert catalog_quantity("S", [3000]).r_coeffs() == dict.fromkeys(range(3001), 2)
    assert (R ** 1600).r_coeffs() == {1600: 1}
    rbar = catalog_quantity("Rbar", [1500, 1500])
    assert evaluate_at(rbar, 2) == (2 ** 1500 + 1) * (2 ** 1501 - 1)
    gl = catalog_quantity("GL", [40])
    assert gl.degree() == 1600 and gl.r_coeffs()[1600] == 1
    m = 30000  # assert on values: a failing assert renders its operands, slow at this degree
    csbar = evaluate_at(catalog_quantity("CSbar", [m]), 2)
    assert csbar == 2 * (2 ** (m + 2) - 1) * (2 ** (m + 1) - 1) // 3
    nc = evaluate_at(catalog_quantity("NC", [m]), 2)
    assert nc == 1 + 2 * (2 ** m - 1) * (2 ** (m - 1) - 1)
    assert time.monotonic() - t0 < 2


def test_repr_of_a_large_quantity_is_fast():
    q = sphere(6000)
    t0 = time.monotonic()
    repr(q)
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("entry,n,degree,value_at", [
    ("O", 60, 1770, lambda r: prod(2 * (r ** (j + 1) - 1) // (r - 1) for j in range(60))),
    ("U", 60, 3600, lambda r: prod(2 * (r ** (2 * j) - 1) // (r - 1) for j in range(1, 61))),
    ("Sp", 30, 1830, lambda r: prod(2 * (r ** (4 * j) - 1) // (r - 1) for j in range(1, 31))),
    ("GL", 40, 1600, lambda r: prod(r ** 40 - r ** j for j in range(40))),
])
def test_products_under_the_size_budget_still_build(entry, n, degree, value_at):
    q = catalog_quantity(entry, [n])
    assert q.degree() == degree
    assert all(evaluate_at(q, r) == value_at(r) for r in (2, 3, 5, -2))


# -- the pair rows against their composition by multiply and exact division ---
#
# Each entry below restates a catalog row the way it reads: a product or an
# exact quotient of spheres, projective spaces and Grassmannians, built here
# with MorphPoly * and div_exact from geometric sums and the Gaussian binomial
# recurrence, reading no pair list.


def _sph(n):
    return 2 * _geometric(n, 1)


def _geometric(n, step):
    return MorphPoly.from_r_coeffs(dict.fromkeys(range(0, step * n + 1, step), 1))


def _grass(n, k, step=1):
    return MorphPoly.from_r_coeffs(
        {step * e: c for e, c in gaussian_binomial(n, k).r_coeffs().items()})


def _times(factors):
    return prod(factors, start=MorphPoly.constant(1))


def _unitary(k):
    return _times(_sph(2 * j - 1) for j in range(1, k + 1))


def _spin(m):
    return _times(map(_sph, {3: [3], 4: [3, 3], 5: [7, 3], 6: [7, 5, 3]}[m]))


def _conic(m):
    return _geometric(m // 2, 2) * (R ** m + 1) if m % 2 == 0 else _geometric(m, 2)


_COMPOSED = {
    "S": _sph,
    "SS": lambda n: R ** n + 1,
    "RP": lambda n: _geometric(n, 1),
    "CP": lambda n: _geometric(n, 2),
    "HP": lambda n: _geometric(n, 4),
    "RPh": lambda n: div_exact(R ** (n + 1) + 1, R + 1),
    "CPh": lambda n: div_exact(R ** (2 * n + 2) + 1, R ** 2 + 1),
    "HPh": lambda n: div_exact(R ** (4 * n + 4) + 1, R ** 4 + 1),
    "O": lambda n: _times(_sph(j) for j in range(n)),
    "SO": lambda n: _times(_sph(j) for j in range(1, n)),
    "GL": lambda n: _times(R ** n - R ** j for j in range(n)),
    "SL": lambda n: div_exact(_times(R ** n - R ** j for j in range(n)), R - 1),
    "SOpq": lambda p, q: (_times(_sph(j) for j in range(p)) * _times(_sph(j) for j in range(1, q))
                          * R ** (p * q)),
    "U": _unitary,
    "SU": lambda n: _times(_sph(2 * j - 1) for j in range(2, n + 1)),
    "Cstr": lambda n: _times(_sph(2 * j) for j in range(1, n)),
    "Upq": lambda p, q: (_times(_sph(2 * j - 1) * R ** (2 * q) for j in range(1, p + 1))
                         * _unitary(q)),
    "Sp": lambda n: _times(_sph(4 * j - 1) for j in range(1, n + 1)),
    "Spin": _spin,
    "SOspin": lambda m: div_exact(_spin(m), MorphPoly.constant(2)),
    "V": lambda n, k: _times(_sph(n - j) for j in range(1, k + 1)),
    "VL": lambda n, k: _times(R ** n - R ** j for j in range(k)),
    "G": _grass,
    "Gor": lambda n, k: div_exact(_times(_sph(n - j) for j in range(1, k + 1)),
                                  _times(_sph(j) for j in range(1, k))),
    "Gc": lambda n, k: _grass(n, k, 2),
    "Gh": lambda n, k: _grass(n, k, 4),
    "Flag": lambda n, *ks: _times(_grass(a, b) for a, b in pairwise((n, *ks[::-1]))),
    "CS": lambda m: _sph(m) * R ** m,
    "CSbar": lambda m: div_exact(_sph(m + 1) * _sph(m), _sph(1)),
    "CSSbar": _conic,
    "Spq": lambda a, b: _sph(a) * _geometric(b, 1),
    "Rbar": lambda p, q: (R ** p + 1) * _geometric(q, 1),
    "NG": lambda p, q, k: _grass(p, k) * _times(_sph(q - j) for j in range(1, k + 1)),
    "NGs": lambda p, q, k: _grass(q, k) * _times(R ** (p - j) + 1 for j in range(1, k + 1)),
    "NGn": lambda n, k: div_exact(_times(_sph(n - j) for j in range(1, 2 * k + 1)), _unitary(k)),
    "NGns": lambda n, k: div_exact(_times(_conic(n - 2 * j) for j in range(1, k + 1)),
                                   _times(_geometric(i, 2) for i in range(1, k))),
    "T": lambda p, q: _sph(2 * p - 1) * _geometric(q - 1, 2),
    "TT": lambda p, q: (R ** (2 * p - 1) + 1) * _geometric(q - 1, 2),
    "NGc": lambda p, q, k: div_exact(
        _times(_sph(2 * p - 2 * j + 1) * _sph(2 * q - 2 * j + 1) for j in range(1, k + 1)),
        _unitary(k)),
    "NGcs": lambda p, q, k: (_times(R ** (2 * p - 2 * j + 1) + 1 for j in range(1, k + 1))
                             * _grass(q, k, 2)),
    "LS": lambda p: _sph(p - 1) * _geometric(1, 1),
}


def test_pair_rows_match_their_composition_by_multiply_and_division():
    assert set(_COMPOSED) == {spec.id for spec in _REGISTRY.values()} - {"NC", "CSS"}
    checked = dict.fromkeys(_COMPOSED, 0)
    for spec in _REGISTRY.values():
        if spec.id not in _COMPOSED:
            continue
        arities = range(2, 5) if spec.id == "Flag" else [len(spec.arity.split(","))]
        for arity in arities:
            top = {1: 12, 2: 9, 3: 7, 4: 8}[arity]
            for ps in product(range(top), repeat=arity):
                if spec.check(ps):
                    assert catalog_quantity(spec.id, ps) == _COMPOSED[spec.id](*ps), (spec.id, ps)
                    checked[spec.id] += 1
    assert min(checked.values()) >= 4, checked


# rows whose coefficients can be negative, and the sums NC and CSS, whose
# estimate is that of a part
_UNBOUNDED = {"GL", "SL", "VL", "RPh", "CPh", "HPh", "NC", "CSS"}
_SPARSE = {"NGs", "NGcs", "Rbar", "TT", "CSSbar"}


def test_size_estimates_bound_the_measured_size(monkeypatch):
    # the estimate reads a lower bound on the largest coefficient, and for products of
    # stereographic spheres R^m + 1 that bound is within a factor of two in bits
    estimates, check = [], catalog._check_size

    def record(degree, bits):
        estimates.append((degree + 1) * max(bits, 1))
        check(degree, bits)

    monkeypatch.setattr(catalog, "_check_size", record)
    monkeypatch.setattr(catalog, "SIZE_BUDGET", 0)  # so that every build reads its full estimate
    monkeypatch.setattr(catalog, "_ENTRIES", {})  # and no entry built before is a cache hit
    for spec in _REGISTRY.values():
        if spec.id in _UNBOUNDED:
            continue
        arities = range(2, 5) if spec.id == "Flag" else [len(spec.arity.split(","))]
        for arity in arities:
            top = {1: 24, 2: 12, 3: 8, 4: 8}[arity]
            for ps in product(range(top), repeat=arity):
                if not spec.check(ps):
                    continue
                estimates.clear()
                q = catalog_quantity(spec.id, ps)
                measured = len(q._ints) * max(abs(c).bit_length() for c in q._ints)
                assert estimates[-1] <= measured, (spec.id, ps)
                if spec.id in _SPARSE:
                    assert 2 * estimates[-1] >= measured, (spec.id, ps)


# -- the one cache of built entries --------------------------------------------


def test_an_entry_is_cached_under_its_int_params(monkeypatch):
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    assert catalog_entry("S", [3]) is catalog_entry("S", (3,))
    assert catalog_entry("G", ["5", 2]) is catalog_entry("g", (5, 2))


@pytest.mark.parametrize("entry_id, params, key", [
    ("s", (3,), ("S", (3,))),
    ("S", [3], ("S", (3,))),
    ("S", (3.0,), ("S", (3,))),
    ("RP", (True,), ("RP", (1,))),
    ("g", [7.0, True], ("G", (7, 1))),
    ("S", ("5",), ("S", (5,))),
    ("S", [3.0], ("S", (3,))),
])
def test_an_entry_is_read_under_any_spelling_of_its_key(entry_id, params, key):
    for _ in range(2):  # built, then from the cache
        entry = catalog_entry(entry_id, params)
        assert (entry.id, entry.params) == key
        assert all(type(p) is int for p in entry.params)
        assert entry.quantity == eval_expr(parse(f"{key[0]}({','.join(map(str, key[1]))})"))


@pytest.mark.parametrize("entry_id, params, error, message", [
    ("g", (2.0, 5), BadParams, "G(n,k) needs 0 <= k <= n; got [2, 5]"),
    ("s", [True, 2], BadParams, "S(n) needs n >= 0; got [1, 2]"),
    ("nope", (3,), UnknownEntry, "unknown catalog entry 'nope'"),
])
def test_a_refused_spelling_keeps_its_message(entry_id, params, error, message):
    with pytest.raises(error) as refused:
        catalog_entry(entry_id, params)
    assert str(refused.value) == message


@pytest.mark.parametrize("entry_id, params, message", [
    ("S", (3.5,), "S(n) needs integer parameters; got [3.5]"),
    ("g", (7.9, 3.2), "G(n,k) needs integer parameters; got [7.9, 3.2]"),
    ("S", ["x"], "S(n) needs integer parameters; got ['x']"),
    ("S", [None], "S(n) needs integer parameters; got [None]"),
    ("S", [float("inf")], "S(n) needs integer parameters; got [inf]"),
    ("S", [float("nan")], "S(n) needs integer parameters; got [nan]"),
    ("RP", [Fraction(7, 2)], "RP(n) needs integer parameters; got [Fraction(7, 2)]"),
    # params that are one value, not a list of them; a str or bytes iterates, but is refused
    ("G", "63", "G(n,k) needs integer parameters; got '63'"),
    ("S", b"5", "S(n) needs integer parameters; got b'5'"),
    ("S", bytearray(b"5"), "S(n) needs integer parameters; got bytearray(b'5')"),
    ("S", 3, "S(n) needs integer parameters; got 3"),
    ("S", None, "S(n) needs integer parameters; got None"),
])
def test_a_parameter_that_is_not_an_integer_is_bad_params(entry_id, params, message):
    for read in (catalog_entry, catalog_quantity):
        with pytest.raises(BadParams) as refused:
            read(entry_id, params)
        assert str(refused.value) == message


def test_the_cache_keeps_at_most_its_count_bound_oldest_dropped_first(monkeypatch):
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    entries = [catalog_entry("G", (n, 0)) for n in range(1100)]
    assert len(catalog._ENTRIES) == catalog._CACHED_ENTRIES
    assert catalog_entry("G", (1099, 0)) is entries[-1]
    assert catalog_entry("G", (0, 0)) is not entries[0]


def test_an_entry_over_the_size_bound_is_not_cached(monkeypatch):
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    # S(n) holds n + 1 coefficients 2, estimated at 2 + 64 bits each
    largest = catalog._CACHED_BITS // 66 - 1
    assert catalog_entry("S", [largest]) is catalog_entry("S", [largest])
    assert catalog_entry("S", [largest + 1]) is not catalog_entry("S", [largest + 1])


def test_distinct_large_entries_keep_memory_flat():
    # each S(20000 - i) holds 160 kB of pointers, over the cache's size bound, so
    # none of them may stay behind (tracing makes each build about 25 times slower)
    tracemalloc.start()
    try:
        catalog_quantity("S", [20000])
        first = tracemalloc.get_traced_memory()[0]
        for i in range(1, 8):
            catalog_quantity("S", [20000 - i])
        grown = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert grown < 100_000, grown
