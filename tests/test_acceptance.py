"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import random
import time
from fractions import Fraction

import morphcalc
from morphcalc.catalog import (
    gaussian_binomial,
    schubert_cells,
)
from morphcalc.cli import run as cli_run
from morphcalc.corpus import bivector_audit, load_corpus, sphere_addition, verify_corpus
from morphcalc.factorize import (
    factor_into_catalog,
    grassmann_divide,
    periodicity_scan,
)
from morphcalc.lang import eval_expr, parse, print_expr
from morphcalc.quantity import (
    MorphPoly,
    classify,
    div_exact,
    render,
    semi_integral_minimal,
)
from morphcalc.stability import (
    CellComplex,
    rewrite_neighbors,
    rewrite_reachable,
    stable_normal_form,
)

from oracles import _search_min_rep, normal_form_euler

R = MorphPoly.line()
P = MorphPoly.halfline()


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_corpus():
    t0 = time.monotonic()
    records = load_corpus(morphcalc.corpus_path())
    report = verify_corpus(records)
    elapsed = time.monotonic() - t0

    assert len(records) >= 40
    assert report.failed == 0, report.to_text()

    names = {r.name for r in records}
    required = {
        # spheres S^(n-1) for n <= 8 and the octahedron form
        *{f"sphere-s{i}" for i in range(8)},
        "octahedron",
        # hopf factorizations
        "hopf-s3", "hopf-s7",
        # projective recursions and moebius factorizations
        "rp-recursion", "rp-moebius", "cp-recursion", "cp-moebius",
        "hp-recursion", "hp-moebius",
        # klein bottle and blow-ups
        "klein", "klein-complex", "klein-quaternionic",
        # complex sphere results and both general recursions
        "cssbar1", "cssbar2", "cssbar3", "cssbar4",
        "cssbar-gen-even", "cssbar-gen-odd", "cssbar-rec-4", "css-odd-rec",
        "css3-sl2c",
        # nullcone identities
        "nc-def", "nc-csbar",
        # conformal compactifications up to q = 4
        "rbar-31", "rbar-42", "rbar-43", "rbar-44",
        # twistor results
        "twistor-tt22", "twistor-complement",
        # null grassmannian value (R^3+1)(R+1)
        "ngcs-minkowski",
        # complex grassmannians
        "gc42", "gc52", "gc62",
        # expected-unequal guards
        "phantom-not-sphere", "sphere-not-poincare",
    }
    missing = required - names
    assert not missing, f"missing corpus records: {sorted(missing)}"

    # sphere addition for every ordered p + q <= 8, triple for p + q + r <= 6
    for p in range(1, 8):
        for q in range(1, 9 - p):
            rec = sphere_addition(p, q)
            assert eval_expr(rec.lhs) == eval_expr(rec.rhs), rec.name
    for p in range(1, 5):
        for q in range(1, 6 - p):
            for r in range(1, 7 - p - q):
                rec = sphere_addition(p, q, r)
                assert eval_expr(rec.lhs) == eval_expr(rec.rhs), rec.name

    assert elapsed < 5.0, f"corpus verification took {elapsed:.2f}s"
    _report(1, f"corpus of {len(records)} records verified with zero failures in {elapsed:.2f}s")


def test_criterion_2_grassmann_division():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            counts = schubert_cells(n, k)
            gb = gaussian_binomial(n, k)
            for field, step in (("real", 1), ("complex", 2), ("quaternionic", 4)):
                q = grassmann_divide(field, n, k)
                rc = q.r_coeffs()
                assert all(c.denominator == 1 and c >= 0 for c in rc.values()), (field, n, k)
                checked += 1
                if field == "real":
                    assert q == gb, (n, k)
                    top = k * (n - k)
                    hist = [int(rc.get(top - i, 0)) for i in range(top + 1)]
                    assert hist == counts, (n, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"grassmann division sweep took {elapsed:.2f}s"
    _report(2, f"{checked} divisions exact and non-negative; real case matches "
               f"both oracles; {elapsed:.2f}s")


def test_criterion_3_factor_tables_and_periodicity():
    expected_tables = {
        6: {("RP", (4,)), ("SS", (3,)), ("SS", (2,))},
        7: {("RP", (6,)), ("RP", (4,)), ("RPh", (2,))},
        8: {("CP", (3,)), ("RP", (6,)), ("SS", (3,))},
        9: {("hopf", "R^6 + R^3 + 1"), ("CP", (3,)), ("RP", (6,))},
        10: {("CP", (4,)), ("hopf", "R^6 + R^3 + 1"), ("RP", (7,))},
        11: {("RP", (10,)), ("CP", (4,)), ("hopf", "R^6 + R^3 + 1")},
        12: {("RP", (10,)), ("CP", (4,)), ("SS", (6,)), ("SS", (3,))},
        13: {("RP", (12,)), ("RP", (10,)), ("SS", (6,)), ("RPh", (2,))},
    }
    for n, expected in expected_tables.items():
        result = factor_into_catalog(grassmann_divide("real", n, 3))
        assert result.residual == 1, (n, result.display())
        got = set()
        for f in result.factors:
            assert f.multiplicity == 1, (n, result.display())
            got.add((f.name, f.params) if f.name else ("hopf", render(f.poly, "r")))
        assert got == expected, (n, result.display())

    rep2 = periodicity_scan(2, (4, 12))
    assert rep2.period == 2, rep2.to_text()
    rep3 = periodicity_scan(3, (6, 16))
    assert rep3.period == 6, rep3.to_text()
    _report(3, "factor tables for the eight worked Grassmannians reproduced "
               "with residual 1; detected periods 2 and 6")


def test_criterion_4_stability_enumeration():
    t0 = time.monotonic()
    cases = []
    for n in range(4):
        for coeffs in itertools.product(range(1, 4), *([range(0, 4)] * n)):
            cases.append(CellComplex(coeffs))
    assert len(cases) == 255

    for c in cases:
        nf = stable_normal_form(c)
        assert nf.dimension == c.dimension()
        assert normal_form_euler(nf) == c.euler()
        bound = 2 * c.total() + 8
        assert rewrite_reachable(c, nf.quantity(), bound) is True, c
        # no other final form is reachable (any bound; invariants decide)
        n = c.dimension()
        for a in range(1, 5):
            for kind in ("pure_top", "top_plus"):
                if kind == "top_plus" and n == 0:
                    continue
                from morphcalc.stability import NormalForm

                other = NormalForm(dimension=n, kind=kind, count=a)
                if other != nf:
                    assert rewrite_reachable(c, other.quantity(), 20) is False

        # every oracle step preserves dimension and Euler characteristic
        state = c._by_exp
        e = c.euler()
        for nxt in rewrite_neighbors(state):
            assert len(nxt) == len(state) and nxt[-1] >= 1
            assert sum(v if j % 2 == 0 else -v for j, v in enumerate(nxt)) == e

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"stability enumeration took {elapsed:.2f}s"
    _report(4, f"closed form certified by the rewrite oracle on {len(cases)} "
               f"complexes in {elapsed:.2f}s")


def test_criterion_5_classification_and_minimal_forms():
    expectations = [
        (R - 2, "IntegerTypeNotSemiIntegrable"),
        ((R + 1) * P, "HalfIntegerType"),
        (R ** 2 - 1, "SemiIntegrableIntegerType"),
        (P - 1, "JustAnotherType"),
        (1 - R, "NotAnObject"),
    ]
    for q, label in expectations:
        assert classify(q).label == label, (render(q, "r"), classify(q))

    rp4h = R ** 4 - R ** 3 + R ** 2 - R + 1
    form = semi_integral_minimal(rp4h)
    assert form.terms == ((1, 3, 2), (1, 1, 2), (0, 0, 1))
    assert form.j_max == 1
    assert _search_min_rep(rp4h, 0) is None  # j = 0 infeasible

    cyl = R ** 2 - 1
    form = semi_integral_minimal(cyl)
    assert form.terms == ((1, 1, 2), (1, 0, 2))
    assert form.j_max == 1
    assert _search_min_rep(cyl, 0) is None

    _report(5, "five exemplar classifications and both minimal halfline forms "
               "reproduced; j = 0 shown infeasible by the bounded search")


def test_criterion_6_bivector_audit_and_perturbation(tmp_path):
    # hand-expanded fixtures
    gap4_expected = MorphPoly.from_r_coeffs({4: 1, 3: 1, 1: -1, 0: -1})
    gap5_expected = MorphPoly.from_r_coeffs(
        {8: 1, 7: 2, 6: 2, 5: 1, 3: -1, 2: -2, 1: -2, 0: -1}
    )

    _, _, gap3 = bivector_audit(3)
    assert gap3.is_zero()
    _, _, gap4 = bivector_audit(4)
    assert gap4 == gap4_expected == (R + 1) * (R ** 3 - 1)
    _, _, gap5 = bivector_audit(5)
    assert gap5 == gap5_expected == (R ** 5 - 1) * ((R + 1) * (R ** 2 + R + 1))

    text = morphcalc.corpus_path().read_text(encoding="utf-8")
    perturbed = text.replace(
        "klein ; (RP(2)-1)+(R+1) ; == ; (R+1)*(R+1) ;",
        "klein ; (RP(2)-1)+(R+1)+1 ; == ; (R+1)*(R+1) ;",
    )
    assert perturbed != text
    path = tmp_path / "perturbed.morph"
    path.write_text(perturbed)
    import io

    assert cli_run(["verify", str(path)], out=io.StringIO()) == 1

    _report(6, "bivector gaps match the hand-expanded fixtures; perturbed "
               "corpus exits with status 1")


def test_criterion_7_property_suites():
    rng = random.Random(20240817)

    def rand_poly():
        return MorphPoly.from_r_coeffs(
            {e: rng.randint(-3, 3) for e in range(rng.randint(0, 5))}
        )

    def rand_dyadic_poly():
        return MorphPoly(
            {e: Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
             for e in range(rng.randint(0, 5))}
        )

    for _ in range(200):
        a, b, c = rand_dyadic_poly(), rand_dyadic_poly(), rand_dyadic_poly()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert div_exact(a * b, b) == a

    for _ in range(200):
        q = rand_dyadic_poly()
        for basis in ("r", "p"):
            assert eval_expr(parse(render(q, basis))) == q

    # semi-integrability criterion vs brute-force search, deg <= 4, |coeff| <= 3
    from test_quantity import _brute_has_representation

    checked = 0
    for _ in range(120):
        q = MorphPoly.from_r_coeffs(
            {e: rng.randint(-3, 3) for e in range(5)}
        )
        if q.is_zero():
            continue
        assert classify(q).semi_integrable == _brute_has_representation(q)
        checked += 1

    # parse/print round trips on corpus sources
    for rec in load_corpus(morphcalc.corpus_path()):
        assert parse(print_expr(rec.lhs)) == rec.lhs
        assert parse(print_expr(rec.rhs)) == rec.rhs

    _report(7, f"ring laws, division inverse, render and print round trips, "
               f"and the semi-integrability criterion ({checked} samples) hold")
