"""The four workloads: inputs drawn from a seed, operations, and their checks.

An operation is one call of a public morphcalc entry point: `cli.run` with a
user's argv where the command line offers the path, the library function
otherwise.  Each `Op` holds a label, `call(mc, results)` that runs the
operation (`results` holds the outputs of the operations before it), and
`check(output)` that raises `checks.CheckFailed`.  Calls look functions up on
the module objects at call time, so the traced run sees them.

The seed varies the inputs but not the amount of work: it draws parameters
within narrow bands or for cheap calls only, picks between a Grassmannian and
its dual G(n, n-k), which has the same value, and shuffles operations that
share no cache.  Grassmann and factor calls keep a fixed order, because the
first call that needs a sphere or a factor dictionary of some size fills
morphcalc's caches for the later ones, and a shuffle would move that cost
between calls from seed to seed.
"""

from __future__ import annotations

import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import checks

STEPS = {"real": 1, "complex": 2, "quaternionic": 4}
FAMILY_STEP = {"G": 1, "Gc": 2, "Gh": 4}


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable
    check: Callable


class OpFailed(Exception):
    pass


def cli_op(argv, check):
    def call(mc, results):
        out = io.StringIO()
        status = mc.cli.run(argv, out)
        if status != 0:
            raise OpFailed(f"exit status {status}")
        return out.getvalue().rstrip("\n")
    return Op(" ".join(argv), call, check)


def _power(sym, e):
    return "1" if e == 0 else (sym if e == 1 else f"{sym}^{e}")


# -- verify ------------------------------------------------------------------------


# q-Pascal rules: for each (n, k) the seed takes k or n - k, whose Grassmannians
# have the same value, so the draw leaves the work the same
Q_PASCAL_SLOTS = (
    ("G", "R", ((3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 3))),
    ("Gc", "C", ((3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (7, 3))),
    ("Gh", "H", ((3, 1), (4, 1), (4, 2), (5, 2), (6, 2), (6, 3))),
)


def _seeded_identities(rng):
    """Theorems of the calculus as corpus lines, with an oracle for each left side."""
    rows = []  # (lhs, relation, rhs, lhs value)
    for _ in range(12):
        p, q = rng.choice([(p, q) for p in range(1, 9) for q in range(1, 10 - p)])
        rows.append((f"S({p + q - 1})", "==",
                     f"S({p - 1})*S({q - 1})*Rp + S({p - 1}) + S({q - 1})",
                     checks.sphere(p + q - 1)))
    for _ in range(8):
        p, q, r = rng.choice([t for t in itertools.product(range(1, 6), repeat=3) if sum(t) <= 7])
        pairs = [f"S({a - 1})*S({b - 1})*Rp" for a, b in ((p, q), (p, r), (q, r))]
        rows.append((f"S({p + q + r - 1})", "==",
                     f"S({p - 1})*S({q - 1})*S({r - 1})*Rp^2 + " + " + ".join(pairs)
                     + f" + S({p - 1}) + S({q - 1}) + S({r - 1})",
                     checks.sphere(p + q + r - 1)))
    for _ in range(8):
        s, k = rng.randint(1, 3), rng.randint(1, 4)
        middle = " + ".join(_power("R", i * k) for i in range(s, -1, -1))
        rows.append((f"S({(s + 1) * k - 1})", "==", f"({middle})*S({k - 1})",
                     checks.sphere((s + 1) * k - 1)))
    for _ in range(4):
        m = rng.randint(1, 4)
        rhs = "*".join(f"({_power('R', 2 ** i)} + 1)" for i in range(m - 1, -1, -1))
        rows.append((f"S({2 ** m - 1})", "==", f"{rhs}*2", checks.sphere(2 ** m - 1)))
    for family, sym, slots in Q_PASCAL_SLOTS:
        for n, k in slots:
            k = rng.choice((k, n - k))
            rows.append((f"{family}({n},{k})", "==",
                         f"{family}({n - 1},{k - 1}) + {sym}^{k}*{family}({n - 1},{k})",
                         checks.qbinom(n, k, FAMILY_STEP[family])))
    for _ in range(6):
        n = rng.randint(1, 12)
        rows.append((f"S({n})", "!=", f"SS({n})", checks.sphere(n)))
    return [(f"seeded-{i:02d}", lhs, rel, rhs, value)
            for i, (lhs, rel, rhs, value) in enumerate(rows)]


def verify(mc, rng, seed, out_dir):
    lines = mc.corpus_path().read_text(encoding="utf-8").splitlines()
    records = []  # (line, name, expect, lhs value)
    for line in lines:
        if line.strip() and not line.lstrip().startswith("#"):
            fields = [f.strip() for f in line.split(" ; ")]
            records.append((line, fields[0], "equal" if fields[2] == "==" else "unequal", None))
    for name, lhs, rel, rhs, value in _seeded_identities(rng):
        line = f"{name} ; {lhs} ; {rel} ; {rhs} ; seeded theorem"
        lines.append(line)
        records.append((line, name, "equal" if rel == "==" else "unequal", value))
    path = out_dir / f"verify-input-{seed}.morph"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    expected = [(name, expect, value) for _, name, expect, value in records]
    ops = [cli_op(["verify", str(path), "--json"],
                  lambda text: checks.check_verify_json(text, expected))]
    for line, name, expect, value in records:
        def call(mc, results, line=line):
            return mc.corpus.verify_corpus(mc.corpus.load_corpus(line))

        def check(report, name=name, expect=expect, value=value):
            checks.require(len(report.outcomes) == 1, f"record {name!r}: not one outcome")
            o = report.outcomes[0]
            checks.check_record((o.name, o.expect, o.outcome, o.lhs, o.rhs), name, expect, value)
        ops.append(Op(f"record {name}", call, check))
    return ops


# -- grassmann ---------------------------------------------------------------------

GRASSMANN_MAX_N = 9
SPHERE_BANDS = (120, 160, 200)


def grassmann(mc, rng, seed, out_dir):
    ops = []
    for n in range(2, GRASSMANN_MAX_N + 1):
        for k in range(1, n):
            for field, step in STEPS.items():
                def call(mc, results, field=field, n=n, k=k):
                    return mc.factorize.grassmann_divide(field, n, k)

                def check(q, step=step, n=n, k=k):
                    p_coeffs = q.p_coeffs()
                    checks.check_grassmann(step, n, k, p_coeffs)
                    if step == 1:
                        checks.check_schubert(n, k, p_coeffs)
                ops.append(Op(f"grassmann_divide {field} {n} {k}", call, check))
    for band in SPHERE_BANDS:
        n = band + rng.randrange(10)
        ops.append(cli_op(["eval", f"S({n})"],
                          lambda text, n=n: checks.check_quantity(text, checks.sphere(n))))
    return ops


# -- factor ------------------------------------------------------------------------

PAPER_TABLES = range(6, 14)       # the eight worked k = 3 tables
# (family, k, n values): one `factor` call per n
FACTOR_RANGES = (("G", 4, range(8, 11)), ("Gc", 2, range(5, 9)), ("Gc", 3, range(6, 8)))
# seeded: G(n,2) or its dual G(n,n-2) for n drawn from this band; each takes
# under a tenth of the median call, so the draw moves neither the run time
# nor the percentiles
SEEDED_PAIRS, PAIR_BAND = 5, range(5, 11)
SCANS = ((2, range(4, 9), 12, 2), (3, range(4, 8), 13, 6))   # k, lo choices, hi, period


def factor(mc, rng, seed, out_dir):
    def factor_op(family, n, k, written_k=None, residual_one=False):
        return cli_op(["factor", f"{family}({n},{k if written_k is None else written_k})"],
                      lambda text: checks.check_factor_cli(
                          text, checks.qbinom(n, k, FAMILY_STEP[family]), residual_one))

    ops = [factor_op("G", n, 3, residual_one=True) for n in PAPER_TABLES]
    for n in sorted(rng.sample(PAIR_BAND, SEEDED_PAIRS)):
        ops.append(factor_op("G", n, 2, rng.choice((2, n - 2))))
    ops += [factor_op(family, n, k) for family, k, ns in FACTOR_RANGES for n in ns]
    for k, lows, hi, period in SCANS:
        lo = rng.choice(lows)

        def call(mc, results, k=k, lo=lo, hi=hi):
            return mc.factorize.periodicity_scan(k, (lo, hi))

        def check(report, k=k, lo=lo, hi=hi, period=period):
            entries = tuple((n, display) for n, _, display in report.entries)
            checks.check_scan((report.period, entries), k, lo, hi, period)
        ops.append(Op(f"periodicity_scan {k} {lo}..{hi}", call, check))
    return ops


# -- forms -------------------------------------------------------------------------

PHANTOMS = (2, 4, 6, 8)
HALFLINE_PRODUCTS = range(1, 7)
SEEDED_FORMS = 12
# Degree <= 3 with coefficients <= 2 keeps every search below 0.04 s.  At
# degree 4 some draws take 0.5 s (Rp^2*R + Rp^2 + 2*R^4), which would make the
# run time depend on the seed; at degree 5 some search for minutes
# (3*Rp^2*R^2 + 2*R^5).  See CHANGES.md.
FORM_DEGREE = 3


def _complex_source(coeffs):
    n = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            sym = _power("R", n - i)
            parts.append(str(c) if sym == "1" else (sym if c == 1 else f"{c}*{sym}"))
    return " + ".join(parts)


def _mixed_op(source, value, exact=None):
    return cli_op(["eval", source, "--form", "mixed"],
                  lambda text: checks.check_mixed(text, value, exact))


def forms(mc, rng, seed, out_dir):
    mixed = []
    for m in PHANTOMS:
        mixed.append(_mixed_op(f"RPh({m})", checks.phantom(m, 1),
                               "2*Rp*R^3 + 2*Rp*R + 1" if m == 4 else None))
    for m in HALFLINE_PRODUCTS:
        mixed.append(_mixed_op(f"RP({m})*Rp", checks.pmul(checks.geometric(m, 1), checks.HALFLINE)))
    for _ in range(SEEDED_FORMS):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            p = rng.randint(0, 2)
            terms[(p, rng.randint(0, FORM_DEGREE - p))] = rng.randint(1, 2)
        source = " + ".join(
            "*".join(x for x in (str(c) if c > 1 or (p, r) == (0, 0) else "",
                                 "" if p == 0 else _power("Rp", p),
                                 "" if r == 0 else _power("R", r)) if x)
            for (p, r), c in sorted(terms.items(), reverse=True))
        value = {}
        for (p, r), c in terms.items():
            value = checks.padd(value, checks.monomial(c, p, r))
        mixed.append(_mixed_op(source, value))

    complexes = [c for n in range(4)
                 for c in itertools.product(range(1, 4), *([range(0, 4)] * n))]
    rng.shuffle(complexes)
    groups = []
    for coeffs in complexes:
        source = _complex_source(coeffs)

        def call(mc, results, coeffs=coeffs):
            if results[-1] is None:
                raise OpFailed("the normal form it starts from failed")
            target = checks.normal_form_coeffs(results[-1])
            cell = mc.stability.CellComplex
            return mc.stability.rewrite_reachable(cell(coeffs), cell(target))
        groups.append([
            cli_op(["classify", source], checks.check_classify_complex),
            cli_op(["normal", source], lambda text, c=coeffs: checks.check_normal(text, c)),
            Op(f"rewrite_reachable {coeffs}", call, checks.check_reachable),
        ])
    # mixed-form commands go in at seeded places; each complex's three calls stay together
    for op in mixed:
        groups.insert(rng.randrange(len(groups) + 1), [op])
    return [op for group in groups for op in group]


WORKLOADS = {"verify": verify, "grassmann": grassmann, "factor": factor, "forms": forms}


def build(name, mc, seed, out_dir):
    return WORKLOADS[name](mc, random.Random(seed), seed, out_dir)
