"""Grassmann division and factorization into catalog irreducibles.

The factor dictionary holds the quantities that act as irreducibles here:
stereographic spheres R^k + 1, even real projective spaces, complex and
quaternionic projective spaces, phantom planes R^(2m) - R^m + 1, and the
middle factors sum(R^(i*k)) of the repeated-suspension identities (s + 1
prime so they do not split into smaller factors of the same shape).

Every candidate is a product of cyclotomic polynomials Phi_d, because
R^m - 1 = prod_{d | m} Phi_d, so it divides the input exactly when its
exponents {d: e_d} fit under the input's.  Greedy order: strip powers of R,
read the input's exponents once, then take each candidate, by descending
degree (family order breaks ties), as many times as it fits.  Odd real
projective spaces are intentionally not scanned: RP^(2m+1) = (R + 1) * CP^m,
and which CP the stray (R + 1) belongs to only becomes clear at the end, so
leftover (R + 1) factors are merged into the smallest emitted CP afterwards.
This deterministic order reproduces all the worked Grassmannian tables.

The exponents are read on plain int lists without building any Phi_d:
dividing by Phi_d is multiplying by prod (R^m - 1)^-mu(d/m), which
`catalog._times_pairs` does in one pass per factor.  Phi_d divides R^d - 1,
so the input's remainder by Phi_d is that of its fold modulo R^d - 1, the d
sums of every d-th coefficient.  That fold (degree < d) is divided by Phi_d
first, and the whole input only when the fold leaves no remainder, so no
division of the input fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt, prod

from .quantity import (
    MorphError,
    MorphPoly,
    R,
    _normalised,
    classify,
    render,
)
from .catalog import (
    BadParams,
    _phantom,
    _projective,
    _quotient,
    _stereographic,
    _times_pairs,
    grassmannian,
    phantom,
    poincare_sphere,
    projective,
)


class NotIntegerType(MorphError):
    pass


FIELD_STEPS = {"real": 1, "complex": 2, "quaternionic": 4}


def grassmann_divide(field: str, n: int, k: int) -> MorphPoly:
    """Quotient of the k nested frame spheres by the frame spheres of a k-plane."""
    if field not in FIELD_STEPS:
        raise BadParams(f"field must be one of {sorted(FIELD_STEPS)}")
    if not 0 < k < n:
        raise BadParams("grassmann_divide needs 0 < k < n")
    return grassmannian(n, k, FIELD_STEPS[field])


@dataclass(frozen=True)
class Factor:
    family: str  # R, SS, RP, CP, HP, hopf or Ph
    name: str  # catalog id, or None for a raw polynomial factor
    params: tuple
    poly: MorphPoly
    multiplicity: int

    def display(self) -> str:
        if self.name is not None:
            base = f"{self.name}({','.join(str(p) for p in self.params)})"
        elif self.poly == R:
            base = "R"
        else:
            base = f"({render(self.poly, 'r')})"
        return base if self.multiplicity == 1 else f"{base}^{self.multiplicity}"


@dataclass(frozen=True)
class FactorizationResult:
    factors: tuple
    residual: MorphPoly

    def product(self) -> MorphPoly:
        return prod((f.poly ** f.multiplicity for f in self.factors), start=self.residual)

    def display(self) -> str:
        if not self.factors:
            return f"residual: {render(self.residual, 'r')}"
        text = " * ".join(f.display() for f in self.factors)
        if self.residual != 1:
            text += f"  [residual: {render(self.residual, 'r')}]"
        return text


_FAMILY_RANK = {"SS": 0, "RP": 1, "CP": 2, "HP": 3, "hopf": 4, "Ph": 5}


@lru_cache(maxsize=None)
def _divisors(m: int):
    # ascending, as _mobius needs: the divisors up to isqrt(m), then their cofactors
    low = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return tuple(low + [m // d for d in reversed(low) if d * d != m])


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    # the sum of mu over the divisors of n is 0 for n > 1
    return 1 if n == 1 else -sum(_mobius(d) for d in _divisors(n)[:-1])


@lru_cache(maxsize=None)
def _over_cyclotomic(d: int):
    """Pairs (m, -mu(d/m)), times which `_times_pairs` divides by Phi_d, and deg Phi_d."""
    pairs = tuple((m, -_mobius(d // m)) for m in _divisors(d) if _mobius(d // m))
    return pairs, -sum(m * k for m, k in pairs)


def _cyclotomic(d: int) -> MorphPoly:
    """Phi_d = prod (R^m - 1)^mu(d/m) over the divisors m of d."""
    return _quotient((), over=[(1, 0, _over_cyclotomic(d)[0])])


@lru_cache(maxsize=None)
def _exponents(pairs) -> Counter:
    """{d: e_d} of prod (R^m - 1)^k over the (m, k) pairs; shared, so never mutated."""
    exponents = Counter()
    for m, k in pairs:
        exponents.update(dict.fromkeys(_divisors(m), k))
    return +exponents


def _cyclotomic_exponents(c, ds):
    """Exponents {d: e_d} of the Phi_d, d in ds, in sum(c[i] * R^i), and the ints left.

    c holds integers; each Phi_d is monic, so every division stays over Z.
    """
    exponents = Counter()
    for d in ds:
        pairs, degree = _over_cyclotomic(d)
        while degree < len(c):  # deg Phi_d <= deg c
            if _times_pairs([sum(c[j::d]) for j in range(d)], pairs) is None:
                break
            c = _times_pairs(c, pairs)
            exponents[d] += 1
    return exponents, c


def _dictionary(max_degree: int):
    """Candidates (family, name, params, build, exponents) of degree <= max_degree, best first.

    `build()` makes the polynomial prod Phi_d^e_d of the cyclotomic exponents {d: e_d},
    read from the pairs of the catalog block (scale, a, pairs) that `build` makes.
    """
    out = []

    def add(family, name, params, build, block):
        pairs = block[2]
        key = (-sum(m * k for m, k in pairs), _FAMILY_RANK[family])
        out.append((key, (family, name, params, build, _exponents(pairs))))

    for k in range(2, max_degree + 1):
        add("SS", "SS", (k,), partial(poincare_sphere, k), _stereographic(k))
    for m in range(1, max_degree // 2 + 1):
        add("RP", "RP", (2 * m,), partial(projective, 2 * m, 1), _projective(2 * m, 1))
    for step, family in ((2, "CP"), (4, "HP")):
        for k in range(2, max_degree // step + 1):
            add(family, family, (k,), partial(projective, k, step), _projective(k, step))
    for k in range(3, max_degree + 1):
        # the middle factor sum(R^(i*k)) for i <= s is projective(s, k)
        for s in range(2, max_degree // k + 1):
            if len(_divisors(s + 1)) == 2:  # s + 1 prime
                add("hopf", None, (s, k), partial(projective, s, k), _projective(s, k))
    for m in range(1, max_degree // 2 + 1):
        name = {1: "RPh", 2: "CPh", 4: "HPh"}.get(m)
        add("Ph", name, (2,) if name else (m,), partial(phantom, 2, m), _phantom(2, m))
    return [c for _, c in sorted(out, key=lambda c: c[0])]


def factor_into_catalog(q: MorphPoly) -> FactorizationResult:
    """Greedy extraction of the factor dictionary; leftover is the residual."""
    if not classify(q).integer_type:
        raise NotIntegerType(f"{render(q, 'r')} is not of integer type")

    # powers of R first: shift away the lowest R-exponent
    low = next(i for i, c in enumerate(q._ints) if c)
    found = [("R", None, (), R)] * low  # (family, name, params, poly) with repetition

    candidates = _dictionary(len(q._ints) - 1 - low)
    exponents, rest = _cyclotomic_exponents(
        q._ints[low:], sorted({2}.union(*(c[4] for c in candidates)))
    )
    current = _normalised(rest, 0)

    for family, name, params, build, need in candidates:
        times = min(exponents[d] // e for d, e in need.items())
        if times:
            exponents.subtract({d: e * times for d, e in need.items()})
            found += [(family, name, params, build())] * times

    # trailing halfline circles: RP^1 = R + 1; the other leftovers join the residual
    spare = exponents.pop(2, 0)
    current = current * prod(_cyclotomic(d) ** e for d, e in exponents.items() if e)

    # each spare (R + 1) merges with the smallest CP into an odd RP
    merged = []
    cps = sorted(
        (f for f in found if f[0] == "CP"), key=lambda f: f[2][0]
    )
    for f in found:
        if f[0] == "CP" and spare and cps and f is cps[0]:
            m = f[2][0]
            merged.append(("RP", "RP", (2 * m + 1,), projective(2 * m + 1, 1)))
            spare -= 1
            cps.pop(0)
        else:
            merged.append(f)
    for _ in range(spare):
        merged.append(("RP", "RP", (1,), projective(1, 1)))

    # collate multiplicities, preserving first-seen order
    counts = {}
    for key in merged:
        counts[key] = counts.get(key, 0) + 1
    factors = tuple(
        Factor(family, name, params, poly, multiplicity)
        for (family, name, params, poly), multiplicity in counts.items()
    )
    return FactorizationResult(factors=factors, residual=current)


# -- periodicity of the real Grassmann factorizations ----------------------


def _shape_token(factor: Factor, n: int):
    """Coarse shape class of a factor, with degree offset where it is stable.

    Suspension-type factors (R^k + 1 for k >= 3 and the middle factors of the
    repeated-suspension identities) are dressing that accumulates with n, so
    they are dropped from the signature.
    """
    token = factor.family
    if token == "SS":
        token = {2: "CP", 4: "HP"}.get(factor.params[0])  # R^2 + 1 = CP(1), R^4 + 1 = HP(1)
    elif token == "RP":
        token = "RPo" if factor.params[0] % 2 else "RPe"
    if token in (None, "hopf"):
        return None
    if token == "Ph":
        return ("Ph",)
    return (token, factor.poly.degree() - n)


@dataclass(frozen=True)
class PeriodicityReport:
    k: int
    entries: tuple  # ((n, signature, factor_display), ...)
    period: int     # 0 when no period detected

    def groups(self):
        by_sig = {}
        for n, sig, _ in self.entries:
            by_sig.setdefault(sig, []).append(n)
        return by_sig

    def records(self):
        return [(n, "|".join(sig)) for n, sig, _ in self.entries]

    def to_text(self) -> str:
        lines = [f"factor shapes of the real Grassmannians, k = {self.k}"]
        for n, sig, disp in self.entries:
            lines.append(f"n = {n:2d}  signature {'|'.join(sig)}  factors {disp}")
        lines.append("groups:")
        for sig, ns in sorted(self.groups().items()):
            lines.append(f"  {'|'.join(sig)}  <-  n in {ns}")
        if self.period:
            lines.append(f"detected period: {self.period}")
        else:
            lines.append("no period detected in range")
        return "\n".join(lines)


def _signature(result: FactorizationResult, n: int):
    tokens = []
    for f in result.factors:
        token = _shape_token(f, n)
        if token is not None:
            tokens.extend([token] * f.multiplicity)
    if result.residual != 1:
        tokens.append(("residual", render(result.residual, "r")))

    def fmt(t):
        if len(t) == 1:
            return t[0]
        return f"{t[0]}{t[1]:+d}" if isinstance(t[1], int) else f"{t[0]}:{t[1]}"

    return tuple(sorted(fmt(t) for t in tokens))


def periodicity_scan(k: int, n_range) -> PeriodicityReport:
    """Factor grassmann_divide(real, n, k) across n_range and group by shape."""
    if k not in (2, 3):
        raise BadParams("periodicity_scan handles k = 2 and k = 3")
    lo, hi = min(n_range), max(n_range)
    if lo <= k:
        raise BadParams("range must stay within k < n")
    entries = []
    sigs = {}
    for n in range(lo, hi + 1):
        result = factor_into_catalog(grassmann_divide("real", n, k))
        sig = _signature(result, n)
        sigs[n] = sig
        entries.append((n, sig, result.display()))
    period = 0
    for p in range(1, hi - lo + 1):
        if all(sigs[n] == sigs[n + p] for n in range(lo, hi - p + 1)):
            period = p
            break
    return PeriodicityReport(k=k, entries=tuple(entries), period=period)
