"""Grassmann division and factorization into catalog irreducibles.

The irreducibles are the stereographic spheres R^k + 1, the even real, the
complex and the quaternionic projective spaces, the middle factors
sum(R^(i*k)) of the repeated-suspension identities (s + 1 prime so they do
not split into smaller factors of the same shape) and the phantom planes
R^(2m) - R^m + 1.  All but the phantom planes are one quotient,
projective(n, step) = (R^(step*(n+1)) - 1)/(R^step - 1), and one rule names
the pair (n, step): SS(step) for n = 1, RP(n) for even n and step 1, CP(n)
and HP(n) for step 2 and 4, and the middle factor for other steps >= 3.

Every candidate is a product of cyclotomic polynomials Phi_d, because
R^m - 1 = prod_{d | m} Phi_d, so it divides the input exactly when its
exponents {d: e_d} fit under the input's.  An exponent vector is a plain
dict of its non-zero e_d.  Greedy order: strip powers of R and read the
input's exponents once.  The candidates are then generated from that
support alone: those whose top index, step*(n+1) or 6m for a phantom plane,
has a non-zero exponent.  Each top index has one cached tuple of cover rows,
its candidates with their exponents as (d, e) pairs, so a row is built once
and not again for every input.  Each candidate is taken, by descending
degree (family, then step, breaks ties), as many times as it fits, and its
exponents are subtracted from the input's in place.  Odd real projective
spaces are intentionally not scanned: RP^(2m+1) = (R + 1) * CP^m, and
which CP the stray (R + 1) belongs to only becomes clear at the end.  So up
to that many copies of the last CP found, the smallest, become odd RPs in
its place, and the rest stay RP(1).  This deterministic order reproduces
all the worked Grassmannian tables.

The exponents {d: e_d} come from one of two sources, and the cover above
runs unchanged on either.  A catalog product scale * R^a * prod (R^m - 1)^k
keeps the pairs it was built from (its `merged` factor), and has e_d = the
sum of the k over the m that d divides, with no arithmetic on the input;
every e_d >= 0, since the product was built as a polynomial.  Nothing is cut
from them: a candidate that fits divides the input, so its degree is at most
the input's, and its top index is at most three times its degree.  Any other
input is read by fold tests on plain int lists, without building any Phi_d:
dividing by Phi_d is multiplying by prod (R^m - 1)^-mu(d/m), which
`catalog._times_pairs` does in one pass per factor.  Phi_d divides R^d - 1,
so the input's remainder by Phi_d is that of its fold modulo R^d - 1, its
d-long slices added up.  That fold (degree < d) is divided by Phi_d first,
and the whole input only when the fold leaves no remainder, so no division
of the input fails.  The fold tests cost the square of the degree and leave
Phi_1 and the Phi_d above three times the degree in the ints left; the pairs
cost their divisors and leave only the scale.  The residual is those ints
times the Phi_d the cover leaves, one `_times_pairs` pass over their pairs.

Every cache here is bounded, so a long-lived process keeps at most: 1,024
divisor tuples and 1,024 Moebius pair tuples (about 1 MB in all for indices
near 20,000), 256 row tuples (about 1.4 MB for tops near 20,000) and 64
Hopf middle factors, each no larger than the input it was found in (3 MB
for 64 of degree 6,000); the oldest used entry goes first.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod
from operator import add
from typing import NamedTuple

from .quantity import (
    MorphError,
    MorphPoly,
    R,
    _normalised,
    render,
)
from .catalog import (
    BadParams,
    _phantom,
    _projective,
    _quotient,
    _times_pairs,
    catalog_quantity,
    grassmannian,
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


class Factor(NamedTuple):
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


class FactorizationResult(NamedTuple):
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


# the caches' bounds, in entries (module docstring)
_CACHED_INDICES = 1024
_CACHED_ROWS = 256
_CACHED_MIDDLES = 64


@lru_cache(maxsize=_CACHED_INDICES)
def _divisors(m: int):
    # ascending: the divisors up to isqrt(m), then their cofactors
    low = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return tuple(low + [m // d for d in reversed(low) if d * d != m])


@lru_cache(maxsize=_CACHED_INDICES)
def _over_cyclotomic(d: int):
    """Pairs (m, -mu(d/m)), times which `_times_pairs` divides by Phi_d, and deg Phi_d.

    mu(d/m) is (-1)^j when d/m is a product of j distinct primes, else 0, so
    each prime p of d adds the pairs (m/p, -k) to the (m, k) so far.  A divisor
    is such a prime when it divides what is left of d once the smaller primes
    are divided out.
    """
    pairs, left = {d: -1}, d
    for p in _divisors(d)[1:]:
        if left % p == 0:
            while left % p == 0:
                left //= p
            pairs.update({m // p: -k for m, k in pairs.items()})
        if left == 1:
            break
    pairs = tuple(sorted(pairs.items()))
    return pairs, -sum(m * k for m, k in pairs)


def _summed_exponents(pairs) -> dict:
    """The non-zero {d: e_d} of prod (R^m - 1)^k over the (m, k) pairs.

    e_d adds up the k of the m that d divides.
    """
    exponents = {}
    for m, k in pairs:
        for d in _divisors(m):
            exponents[d] = exponents.get(d, 0) + k
    return {d: e for d, e in exponents.items() if e}


def _times_cyclotomic(c, exponents):
    """c * prod Phi_d^e over the {d: e} exponents, on R-coefficients.

    Phi_d^e is prod (R^m - 1)^(-k*e) over the pairs (m, k) that divide by Phi_d.
    """
    pairs = {}
    for d, e in exponents.items():
        for m, k in _over_cyclotomic(d)[0]:
            pairs[m] = pairs.get(m, 0) - k * e
    return _times_pairs(c, pairs.items())


def _cyclotomic_exponents(c, ds):
    """Exponents {d: e_d} of the Phi_d, d in ds, in sum(c[i] * R^i), and the ints left.

    c holds integers; each Phi_d is monic, so every division stays over Z.
    """
    exponents = {}
    for d in ds:
        pairs, degree = _over_cyclotomic(d)
        while degree < len(c):  # deg Phi_d <= deg c
            fold = list(c[:d])  # c modulo R^d - 1: its d-long slices added up
            for i in range(d, len(c), d):
                fold[:len(c) - i] = map(add, fold, c[i:i + d])
            if _times_pairs(fold, pairs) is None:
                break
            c = _times_pairs(c, pairs)
            exponents[d] = exponents.get(d, 0) + 1
    return exponents, c


def _candidates(top: int):
    """The candidates (key, family, name, params, block) whose top Phi_d is Phi_top.

    projective(n, step) tops at d = step*(n + 1) and phantom(2, m) at d = 6m;
    the block is its (scale, a, pairs) factor.  The key (-degree, family rank,
    step) orders the greedy scan.
    """
    for step in _divisors(top)[:-1]:  # n >= 1
        n = top // step - 1
        if n == 1 < step:
            family, name, params = "SS", "SS", (step,)
        elif step in (2, 4) or step == 1 and n % 2 == 0:
            family = name = {1: "RP", 2: "CP", 4: "HP"}[step]
            params = (n,)
        elif step > 2 and len(_divisors(n + 1)) == 2:  # n + 1 prime, so it does not split
            family, name, params = "hopf", None, (n, step)
        else:
            continue
        yield (-n * step, _FAMILY_RANK[family], step), family, name, params, _projective(n, step)
    if top % 6 == 0:
        m = top // 6
        name = {1: "RPh", 2: "CPh", 4: "HPh"}.get(m)
        yield ((-2 * m, _FAMILY_RANK["Ph"], m), "Ph", name, (2,) if name else (m,),
               _phantom(2, m))


@lru_cache(maxsize=_CACHED_ROWS)
def _rows(top: int):
    """`_candidates(top)` as cover rows (key, family, name, params, block, need).

    need is the block's exponents as (d, e) pairs; rows are shared, so never mutated.
    """
    return tuple((*candidate, tuple(_summed_exponents(candidate[4][2]).items()))
                 for candidate in _candidates(top))


@lru_cache(maxsize=_CACHED_MIDDLES)
def _middle(block):
    """A Hopf middle factor's quantity; `catalog_quantity` keeps the named ones."""
    return _quotient([block])


def factor_into_catalog(q: MorphPoly) -> FactorizationResult:
    """Greedy extraction of the candidates; leftover is the residual.

    A catalog product's own pairs give the exponents; fold tests read any
    other quantity's.
    """
    if not q._ints or q._shift or q._ints[-1] < 1:  # not of integer type, see `classify`
        raise NotIntegerType(f"{render(q, 'r')} is not of integer type")

    # powers of R first: shift away the lowest R-exponent
    low = next(i for i, c in enumerate(q._ints) if c)
    factors = [Factor("R", None, (), R, low)]

    merged = getattr(q, "merged", None)
    if merged:
        exponents, rest = _summed_exponents(merged[2]), [merged[0]]
    else:
        # no candidate that fits tops above Phi_(3 * degree), a phantom plane's top at that degree
        top = 3 * (len(q._ints) - 1 - low)
        exponents, rest = _cyclotomic_exponents(q._ints[low:], range(2, top + 1))

    for _, family, name, params, block, need in sorted(r for top in exponents for r in _rows(top)):
        times = min(exponents.get(d, 0) // e for d, e in need)
        if times:
            for d, e in need:
                exponents[d] -= e * times
            poly = catalog_quantity(name, params) if name else _middle(block)
            factors.append(Factor(family, name, params, poly, times))

    # trailing halfline circles: RP^1 = R + 1; the other leftovers join the residual
    spare = exponents.pop(2, 0)
    residual = _normalised(_times_cyclotomic(rest, exponents), 0)

    # up to `spare` copies of the last CP found, the smallest, become RP(2m + 1) in its place
    last_cp = max((i for i, f in enumerate(factors) if f.family == "CP"), default=None)
    if spare and last_cp is not None:
        cp = factors[last_cp]
        odd = min(spare, cp.multiplicity)
        m = cp.params[0]
        factors[last_cp:last_cp + 1] = [
            Factor("RP", "RP", (2 * m + 1,), catalog_quantity("RP", (2 * m + 1,)), odd),
            cp._replace(multiplicity=cp.multiplicity - odd),
        ]
        spare -= odd
    if spare:
        factors.append(Factor("RP", "RP", (1,), catalog_quantity("RP", (1,)), spare))
    return FactorizationResult(tuple(f for f in factors if f.multiplicity), residual)


# -- periodicity of the real Grassmann factorizations ----------------------


def _shape_token(factor: Factor, n: int):
    """Signature text of a factor: its coarse shape class, with the degree offset
    from n where it is stable (`CP+2`, `RPe-1`, `Ph`).

    Suspension-type factors (R^k + 1 for k >= 3 and the middle factors of the
    repeated-suspension identities) are dressing that accumulates with n, so
    they are dropped from the signature (None).
    """
    token = factor.family
    if token == "SS":
        token = {2: "CP", 4: "HP"}.get(factor.params[0])  # R^2 + 1 = CP(1), R^4 + 1 = HP(1)
    elif token == "RP":
        token = "RPo" if factor.params[0] % 2 else "RPe"
    if token in (None, "hopf"):
        return None
    if token == "Ph":
        return "Ph"
    return f"{token}{factor.poly.degree() - n:+d}"


class PeriodicityReport(NamedTuple):
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
        tokens.append(f"residual:{render(result.residual, 'r')}")
    return tuple(sorted(tokens))


def periodicity_scan(k: int, n_range) -> PeriodicityReport:
    """Factor the real Grassmannians G(n, k) and group them by shape.

    n runs over every integer from the least to the greatest of the integers in
    n_range, so (4, 12), range(4, 13) and range(4, 13, 2) all scan n = 4..12.
    """
    if k not in (2, 3):
        raise BadParams("periodicity_scan handles k = 2 and k = 3")
    try:
        ns = list(n_range)  # read once: an iterator has no second pass
    except TypeError:
        ns = None
    if not ns:
        raise BadParams("periodicity_scan needs a non-empty range")
    if not all(isinstance(n, int) for n in ns):
        raise BadParams("periodicity_scan needs integer n")
    lo, hi = min(ns), max(ns)
    if lo <= k:
        raise BadParams("range must stay within k < n")
    entries = []
    sigs = {}
    for n in range(lo, hi + 1):
        result = factor_into_catalog(catalog_quantity("G", (n, k)))
        sig = _signature(result, n)
        sigs[n] = sig
        entries.append((n, sig, result.display()))
    period = 0
    for p in range(1, hi - lo + 1):
        if all(sigs[n] == sigs[n + p] for n in range(lo, hi - p + 1)):
            period = p
            break
    return PeriodicityReport(k=k, entries=tuple(entries), period=period)
