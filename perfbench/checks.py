"""Output checks for the benchmark, computed apart from morphcalc.

Nothing here imports morphcalc.  Quantities are plain dicts mapping an
R-exponent to an int or Fraction coefficient, zero coefficients dropped.
The program's text output is read back with an independent parser, and every
expected value comes from a closed formula or a combinatorial count:

- the Gaussian binomial in q = R^step by the q-Pascal rule (G, Gc, Gh);
- Schubert cells as k-subsets of {1..n} counted by dimension;
- S(n) = 2*(R^n + .. + R + 1), and the catalog's factor families by formula;
- Rp = (R - 1)/2 for re-expanding halfline and mixed forms.

Each check raises CheckFailed with a reason.  `self_test()` feeds every check
one good and one corrupted output and reports any check that does not reject
the corruption.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- polynomials in R ----------------------------------------------------------


def clean(poly):
    return {e: c for e, c in poly.items() if c != 0}


def padd(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return clean(out)


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return clean(out)


def ppow(a, n):
    out = {0: 1}
    for _ in range(n):
        out = pmul(out, a)
    return out


HALFLINE = {1: Fraction(1, 2), 0: Fraction(-1, 2)}  # Rp = (R - 1)/2


def monomial(coeff, p, r):
    """c * Rp^p * R^r as a polynomial in R."""
    return pmul({r: coeff}, ppow(HALFLINE, p))


def p_to_r(p_coeffs):
    """Halfline-basis coefficients {p: c} to R-basis, by Rp = (R - 1)/2 (Horner)."""
    out = {}
    for p in range(max(p_coeffs, default=-1), -1, -1):
        out = padd(pmul(out, HALFLINE), {0: Fraction(p_coeffs.get(p, 0))})
    return out


def geometric(n, step):
    """1 + R^step + .. + R^(n*step)."""
    return {step * i: 1 for i in range(n + 1)}


def sphere(n):
    return {i: 2 for i in range(n + 1)}


def phantom(n, step):
    """(R^(step*(n+1)) + 1)/(R^step + 1) for even n: alternating geometric sum."""
    return {step * i: (-1) ** (n - i) for i in range(n + 1)}


_QBINOM = {}


def qbinom(n, k, step):
    """Gaussian binomial [n, k] in q = R^step by q-Pascal: [n-1, k-1] + q^k [n-1, k]."""
    key = (n, k, step)
    if key not in _QBINOM:
        if k == 0 or k == n:
            value = {0: 1}
        else:
            shifted = {e + step * k: c for e, c in qbinom(n - 1, k, step).items()}
            value = padd(qbinom(n - 1, k - 1, step), shifted)
        _QBINOM[key] = value
    return _QBINOM[key]


def schubert_counts(n, k):
    """Cells of the k-plane Grassmannian by dimension: pivot subsets of {1..n}."""
    counts = {}
    for pivots in combinations(range(1, n + 1), k):
        dim = sum(j - i for i, j in enumerate(pivots, start=1))
        counts[dim] = counts.get(dim, 0) + 1
    return counts


# Factor families the factorizer may name, by their defining formulas.
NAMED = {
    "SS": lambda k: {k: 1, 0: 1} if k else {0: 2},
    "RP": lambda n: geometric(n, 1),
    "CP": lambda n: geometric(n, 2),
    "HP": lambda n: geometric(n, 4),
    "RPh": lambda n: phantom(n, 1),
    "CPh": lambda n: phantom(n, 2),
    "HPh": lambda n: phantom(n, 4),
}


# -- reading the program's text ------------------------------------------------

_FACTOR_RE = re.compile(r"^(?:(\d+)(?:/(\d+))?|(Rp|R)(?:\^(\d+))?)$")


def parse_monomial(text):
    """'2*Rp*R^3' -> (Fraction(2), 1, 3)."""
    coeff, p, r = Fraction(1), 0, 0
    for part in text.split("*"):
        m = _FACTOR_RE.match(part)
        require(m is not None, f"unreadable factor {part!r} in {text!r}")
        num, den, sym, exp = m.groups()
        if num is not None:
            coeff *= Fraction(int(num), int(den or 1))
        elif sym == "R":
            r += int(exp or 1)
        else:
            p += int(exp or 1)
    return coeff, p, r


def parse_terms(text):
    """Rendered sum 'a*Rp^j*R^k + .. - ..' (leading '0 - ' for a negative start)."""
    text = text.strip()
    require(text != "", "empty quantity text")
    if text == "0":
        return []
    sign = 1
    if text.startswith("0 - "):
        sign, text = -1, text[4:]
    pieces = re.split(r" ([+-]) ", text)
    terms = []
    for i in range(0, len(pieces), 2):
        if i:
            sign = 1 if pieces[i - 1] == "+" else -1
        coeff, p, r = parse_monomial(pieces[i])
        terms.append((sign * coeff, p, r))
    return terms


def quantity_from_text(text):
    out = {}
    for coeff, p, r in parse_terms(text):
        out = padd(out, monomial(coeff, p, r))
    return out


def split_top_level(text, sep):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
    parts.append(text[start:])
    return parts


_NAMED_FACTOR_RE = re.compile(r"^([A-Za-z]+)\((\d+)\)$")


def factor_value(token):
    """One displayed factor, with an optional ^multiplicity, as a polynomial in R."""
    base, mult = token, 1
    m = re.match(r"^(.*)\^(\d+)$", token)
    if m and (m.group(1).endswith(")") or m.group(1) == "R"):
        base, mult = m.group(1), int(m.group(2))
    if base == "R":
        return ppow({1: 1}, mult)
    if base.startswith("(") and base.endswith(")"):
        value = quantity_from_text(base[1:-1])
        require(value and max(value) > 0, f"constant raw factor {token!r}")
        return ppow(value, mult)
    m = _NAMED_FACTOR_RE.match(base)
    require(m is not None and m.group(1) in NAMED, f"unknown factor {token!r}")
    value = NAMED[m.group(1)](int(m.group(2)))
    require(max(value) > 0, f"constant named factor {token!r}")
    return ppow(value, mult)


def check_factor_product(factor_text, residual_text, expected):
    """Product of the displayed factors times the residual equals the input."""
    total = quantity_from_text(residual_text)
    if factor_text != "1":
        for token in split_top_level(factor_text, " * "):
            total = pmul(total, factor_value(token))
    require(total == expected, "factors times residual differ from the input")


def check_factor_cli(text, expected, residual_one=False):
    """Output of `morphcalc factor EXPR`."""
    lines = text.splitlines()
    require(len(lines) == 2 and lines[0].startswith("factors: ")
            and lines[1].startswith("residual: "), f"unexpected factor output {text!r}")
    residual = lines[1][len("residual: "):]
    if residual_one:
        require(residual == "1", f"residual {residual!r}, expected 1")
    check_factor_product(lines[0][len("factors: "):], residual, expected)


def check_factor_display(display, expected):
    """FactorizationResult.display(): 'A * B  [residual: X]' or 'residual: X'."""
    if display.startswith("residual: "):
        check_factor_product("1", display[len("residual: "):], expected)
        return
    factors, _, rest = display.partition("  [residual: ")
    residual = rest[:-1] if rest else "1"
    require(not rest or rest.endswith("]"), f"unreadable display {display!r}")
    check_factor_product(factors, residual, expected)


# -- checks per workload ----------------------------------------------------------


def check_quantity(text, expected):
    require(quantity_from_text(text) == expected, f"value {text[:60]!r} differs from the oracle")


def check_grassmann(step, n, k, p_coeffs):
    """grassmann_divide output (halfline coefficients) equals the Gaussian binomial in R^step."""
    value = p_to_r(p_coeffs)
    require(all(Fraction(c).denominator == 1 and c > 0 for c in value.values()),
            f"Grassmannian ({n},{k},{step}) has a non-positive or non-integer R-coefficient")
    require(value == qbinom(n, k, step),
            f"Grassmannian ({n},{k},{step}) differs from the Gaussian binomial")


def check_schubert(n, k, p_coeffs):
    """Real Grassmannian's R-coefficients equal its Schubert cell counts by dimension."""
    require(p_to_r(p_coeffs) == schubert_counts(n, k),
            f"G({n},{k}) differs from the Schubert cell counts")


def check_scan(scan, k, lo, hi, period):
    """periodicity_scan report as (period, ((n, display), ..))."""
    got_period, entries = scan
    require(got_period == period, f"k = {k}: period {got_period}, expected {period}")
    require([n for n, _ in entries] == list(range(lo, hi + 1)), f"k = {k}: wrong n range")
    for n, display in entries:
        check_factor_display(display, qbinom(n, k, 1))


def check_mixed(text, expected, exact_text=None):
    """Mixed form: positive integer coefficients, re-expanding to the input."""
    if exact_text is not None:
        require(text == exact_text, f"mixed form {text!r}, expected {exact_text!r}")
    terms = parse_terms(text)
    require(all(c.denominator == 1 and c > 0 for c, _, _ in terms),
            f"mixed form {text!r} has a coefficient that is not a positive integer")
    total = {}
    for coeff, p, r in terms:
        total = padd(total, monomial(coeff, p, r))
    require(total == expected, f"mixed form {text!r} does not re-expand to the input")


_COMPLEX_FLAGS = ("is_object=yes integrable=yes semi_integrable=yes integer_type=yes "
                  "half_integer_type=no just_another_type=no")


def check_classify_complex(text):
    """A cell complex is an integrable object, hence semi-integrable and integer type."""
    require(text.splitlines() == ["label: Integrable", _COMPLEX_FLAGS],
            f"cell complex classified as {text!r}")


def euler_of(coeffs):
    """Alternating sum of R-coefficients listed leading first."""
    n = len(coeffs) - 1
    return sum(c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs))


def normal_form_coeffs(text):
    """`morphcalc normal` output as integer R-coefficients, leading first."""
    value = quantity_from_text(text)
    require(value and all(c.denominator == 1 for c in value.values()),
            f"unreadable normal form {text!r}")
    n = max(value)
    return tuple(int(value.get(n - i, 0)) for i in range(n + 1))


def check_normal(text, coeffs):
    """Stable normal form a*R^n or R^n + b*R^(n-1) with the complex's dimension and Euler."""
    nf = normal_form_coeffs(text)
    shape_ok = (nf[0] >= 1 and all(c == 0 for c in nf[1:])) or (
        nf[0] == 1 and len(nf) >= 2 and nf[1] >= 1 and all(c == 0 for c in nf[2:]))
    require(shape_ok, f"{text!r} is not of the form a*R^n or R^n + b*R^(n-1)")
    require(len(nf) == len(coeffs), f"normal form {text!r} changes the dimension")
    require(euler_of(nf) == euler_of(coeffs), f"normal form {text!r} changes the Euler characteristic")


def check_reachable(result):
    require(result is True, f"rewrite oracle returned {result!r}, expected True")


def check_record(outcome, name, expect, lhs_value=None):
    """One verified record as (name, expect, outcome, lhs, rhs)."""
    got_name, got_expect, verdict, lhs, rhs = outcome
    require((got_name, got_expect) == (name, expect), f"record {got_name!r} is not {name!r}")
    require(verdict == "pass", f"record {name!r} did not reach its expected verdict")
    require((lhs == rhs) == (expect == "equal"), f"record {name!r}: sides contradict the verdict")
    if lhs_value is not None:
        check_quantity(lhs, lhs_value)


def check_verify_json(text, records):
    """`verify FILE --json` over records [(name, expect, lhs_value or None), ..]."""
    report = json.loads(text)
    require(report["summary"] == {"pass": len(records), "fail": 0},
            f"summary {report['summary']}, expected {len(records)} passes")
    require(len(report["records"]) == len(records), "record count differs from the file")
    for row, (name, expect, lhs_value) in zip(report["records"], records):
        outcome = (row["name"], row["expect"], row["outcome"], row["lhs"], row["rhs"])
        check_record(outcome, name, expect, lhs_value)


# -- self-test -------------------------------------------------------------------


def render(poly):
    """Render a polynomial in R in the program's text format (for the self-test)."""
    parts = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        sym = "" if e == 0 else ("R" if e == 1 else f"R^{e}")
        mag = abs(c)
        body = sym if sym and mag == 1 else (f"{mag}*{sym}" if sym else str(mag))
        if not parts:
            parts.append(body if c > 0 else f"0 - {body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts) or "0"


def _r_to_p(poly):
    # R = 2*Rp + 1, for feeding check_grassmann halfline coefficients
    out = {}
    for e, c in poly.items():
        out = padd(out, {j: c * comb(e, j) * 2 ** j for j in range(e + 1)})
    return out


_REFERENCE = _r_to_p(qbinom(6, 3, 2))


def reference_work():
    """A fixed piece of exact arithmetic in pure Python, for timing the machine itself."""
    return p_to_r(_REFERENCE)


def self_test():
    """Return the names of checks that accept a corrupted output (empty when all reject)."""
    g73 = qbinom(7, 3, 1)
    nf = "R^3 + 2*R^2"
    cases = {
        "quantity": (lambda t: check_quantity(t, sphere(4)),
                     render(sphere(4)), render(padd(sphere(4), {2: 1}))),
        "grassmann": (lambda p: check_grassmann(2, 6, 3, p),
                      _r_to_p(qbinom(6, 3, 2)), _r_to_p(padd(qbinom(6, 3, 2), {4: 1}))),
        "schubert": (lambda p: check_schubert(6, 2, p),
                     _r_to_p(qbinom(6, 2, 1)), _r_to_p(padd(qbinom(6, 2, 1), {3: 1, 5: -1}))),
        "factor": (lambda t: check_factor_cli(t, g73, residual_one=True),
                   "factors: RP(6) * RP(4) * RPh(2)\nresidual: 1",
                   "factors: RP(6) * RP(4) * CPh(2)\nresidual: 1"),
        "factor-residual": (lambda t: check_factor_cli(t, g73, residual_one=True),
                            "factors: RP(6) * RP(4) * RPh(2)\nresidual: 1",
                            f"factors: RP(6) * RP(4)\nresidual: {render(phantom(2, 1))}"),
        "scan": (lambda s: check_scan(s, 2, 4, 5, 2),
                 (2, ((4, "CP(1) * RP(2)"), (5, "RP(4) * CP(1)"))),
                 (2, ((4, "CP(1) * RP(2)"), (5, "RP(4) * CP(2)")))),
        "scan-period": (lambda s: check_scan(s, 2, 4, 5, 2),
                        (2, ((4, "CP(1) * RP(2)"), (5, "RP(4) * CP(1)"))),
                        (1, ((4, "CP(1) * RP(2)"), (5, "RP(4) * CP(1)")))),
        "mixed": (lambda t: check_mixed(t, phantom(4, 1), "2*Rp*R^3 + 2*Rp*R + 1"),
                  "2*Rp*R^3 + 2*Rp*R + 1", "Rp*R^3 + 2*Rp*R + 1"),
        "mixed-positive": (lambda t: check_mixed(t, {2: 1, 0: -1}),
                           "2*Rp*R + 2*Rp", "R^2 - 1"),
        "classify": (check_classify_complex, f"label: Integrable\n{_COMPLEX_FLAGS}",
                     "label: SemiIntegrableIntegerType\n" + _COMPLEX_FLAGS),
        "normal": (lambda t: check_normal(t, (1, 1, 1, 2)), nf, "R^3 + 3*R^2"),
        "normal-shape": (lambda t: check_normal(t, (1, 1, 1, 2)), nf, "R^3 + R^2 + R + 2"),
        "reachable": (check_reachable, True, False),
        "record": (lambda o: check_record(o, "s2", "equal", sphere(2)),
                   ("s2", "equal", "pass", render(sphere(2)), render(sphere(2))),
                   ("s2", "equal", "fail", render(sphere(2)), "2*R^2 + 2*R + 1")),
        "record-value": (lambda o: check_record(o, "s2", "equal", sphere(2)),
                         ("s2", "equal", "pass", render(sphere(2)), render(sphere(2))),
                         ("s2", "equal", "pass", "R^2", "R^2")),
        "verify-json": (lambda t: check_verify_json(t, [("a", "unequal", None)]),
                        json.dumps({"summary": {"pass": 1, "fail": 0}, "records": [
                            {"name": "a", "expect": "unequal", "outcome": "pass",
                             "lhs": "R + 1", "rhs": "R"}]}),
                        json.dumps({"summary": {"pass": 1, "fail": 0}, "records": [
                            {"name": "a", "expect": "unequal", "outcome": "pass",
                             "lhs": "R", "rhs": "R"}]})),
    }
    broken = []
    for name, (check, good, bad) in cases.items():
        try:
            check(good)
        except CheckFailed:
            broken.append(f"{name}: rejects a good output")
            continue
        try:
            check(bad)
            broken.append(f"{name}: accepts a corrupted output")
        except CheckFailed:
            pass
    return broken
