"""Catalog of named quantities for the classical manifolds and groups.

Every entry is a constructor called with the integer parameters its arity
names (`p,q,k` calls `build(p, q, k)`), returning an exact quantity.  Apart
from NC and CSS, which are sums over such quantities, every entry is
scale * R^a * prod (R^m - 1)^k, and each is built in one place, `_quotient`.
A row states its factors as (scale, a, pairs) triples taken from five blocks
(sphere, stereographic sphere, projective, phantom and Grassmann spaces), and
a quotient row names the factors it divides by.  The pairs are merged and the
size is read from them before any arithmetic; the product is then built on
plain R-coefficients, each division by R^m - 1 one top-down pass that raises
on a remainder, so a transcription slip surfaces as InternalDivisionFailed
instead of a silently wrong polynomial.  The quantity that `_quotient`
returns keeps its merged factor (scale, a, pairs), from which `factorize`
reads its cyclotomic exponents; arithmetic on it returns plain quantities,
so a sum such as NC or CSS keeps none.  Parameters are a list of integers
and are checked in one place, against the registry's validity text, before an
entry is built; a builder called directly outside it is refused by
`_quotient`, either for a factor R^m - 1 with m < 1 or for a remainder.
The builders keep no results: one cache in `catalog_entry`, keyed by (id,
params), keeps at most 1,024 built entries, each of at most 2^16 estimated
bits, and drops the oldest first, so its memory stays bounded however many
distinct entries are built.  A parsed call is that key as it stands, so
`catalog_entry` probes the cache with the id and params it is given first.
Independent combinatorial oracles (Schubert cell enumeration and the Gaussian
binomial recurrence) live here as well.
"""

from __future__ import annotations

import operator
import re
from itertools import chain, combinations, pairwise
from math import comb, gcd
from typing import NamedTuple

from .quantity import (
    SIZE_BUDGET,
    InexactDivision,
    MorphPoly,
    NonZeroRemainder,
    P,
    R,
    UsageError,
    _check_size,
    _normal_form,
    _normalised,
)


class UnknownEntry(UsageError):
    pass


class BadParams(UsageError):
    pass


class InternalDivisionFailed(InexactDivision):
    pass


class _Product(MorphPoly):
    """A quantity built as one factor scale * R^a * prod (R^m - 1)^k, kept as `merged`.

    `merged` is (scale, a, ((m, k), ...)) with the pairs merged, set once by
    `_quotient`.  It compares and hashes as the plain quantity of its ints.
    """

    __slots__ = ("merged",)


def _quotient(factors, over=()) -> MorphPoly:
    """The product of the (scale, a, pairs) factors over that of `over`, on R-coefficients.

    A factor is scale * R^a * prod (R^m - 1)^k over its (m, k) pairs.  The size
    is checked before any arithmetic, in two steps:

    - Both iterables are consumed lazily with a running total of the degree.
      The divisors come first, and each block lists its divisor pairs first,
      so the total runs above the final degree by at most one divisor pair,
      and a call whose degree alone is over the budget is refused before the
      rest of its pairs exist.
    - The merged pairs {m: k} give the degree d = a + sum(m*k) and a
      coefficient total V.  With no k < 0, V = scale * 2^sum(k) bounds the
      absolute sum of the coefficients, 2 for each R^m - 1.  Otherwise V is
      that times prod m^k, which for sum(k) = 0 is the value at R = 1.  The
      estimate is (d + 1) * bits(V // (d + 1)), the bits of the mean
      coefficient; with no divisors, V // (d + 1) is raised to _peak's bound.

    The product is built by `_times_pairs`; a division that leaves a
    remainder raises NonZeroRemainder.  The result keeps its merged factor.
    """
    scales = {-1: 1, 1: 1}  # of the divisors and of the factors
    shift = degree = width = step = 0
    merged, gaps = {}, []
    for sign, side in ((-1, over), (1, factors)):
        for scale, a, pairs in side:
            scales[sign] *= scale
            shift += sign * a
            degree += sign * a
            start, own_step = degree, 0
            for m, k in pairs:
                if m < 1:
                    raise BadParams("a factor R^m - 1 needs m >= 1")
                own_step = gcd(own_step, m)
                k *= sign
                merged[m] = merged.get(m, 0) + k
                degree += m * k
                if degree >= SIZE_BUDGET:  # the estimate below is at least degree + 1
                    _check_size(degree, 1)
            own = degree - start
            if own_step == own > 0:  # a polynomial in R^own of degree 1
                gaps.append(own)
            elif own:
                width += own
                step = gcd(step, own_step)
    scale, rest = divmod(scales[1], scales[-1])
    if rest:
        raise NonZeroRemainder(f"the scale {scales[-1]} leaves a non-zero remainder")
    if shift < 0:
        raise NonZeroRemainder(f"R^{-shift} leaves a non-zero remainder")
    if degree >= 0:
        num, den, total = scale, 1, sum(merged.values())
        if min(merged.values(), default=0) < 0:
            for m, k in merged.items():
                if k > 0:
                    num *= m ** k
                else:
                    den *= m ** -k
        value = (num << max(total, 0)) // (den << max(-total, 0))
        peak = value // (degree + 1)
        if not over and (degree + 1) * value.bit_length() > SIZE_BUDGET:  # else any peak passes
            peak = max(peak, _peak(value, width, step, gaps))
        _check_size(degree, peak.bit_length())
    c = _times_pairs([scale], merged.items())
    if c is None:
        raise NonZeroRemainder("a factor R^m - 1 leaves a non-zero remainder")
    q = _Product.__new__(_Product)
    q._ints, q._shift = _normal_form([0] * shift + c, 0)
    q.merged = scale, shift, tuple(merged.items())
    return q


def _times_pairs(c, pairs):
    """c * prod (R^m - 1)^k over the (m, k) pairs, on R-coefficients; None on a remainder.

    c[i] is the coefficient of R^i.  Every k > 0 is multiplied in first, so
    each division after it is exact whenever the whole product is a
    polynomial; each division by R^m - 1 is one top-down pass.
    """
    c = list(c)
    for m, k in pairs:
        for _ in range(k):  # times R^m - 1
            shifted = [0] * m + c
            shifted[:len(c)] = map(operator.sub, shifted[:len(c)], c)
            c = shifted
    for m, k in pairs:
        for _ in range(-k):  # over R^m - 1: quotient q[i - m] = c[i] + q[i], top down
            for i in range(len(c) - 1 - m, -1, -1):
                c[i] += c[i + m]
            if any(c[:m]):  # what is left below R^m is the remainder
                return None
            del c[:m]
    return c


def _peak(value: int, width: int, step: int, gaps) -> int:
    """A lower bound on the largest coefficient of a product of factors with non-negative terms.

    A factor prod (R^m - 1)^k is a polynomial in R^g, g the gcd of its m.  When
    g is its degree e, as in R^m + 1 = (R^2m - 1)/(R^m - 1), it has terms at
    R^0 and R^e only: a gap of e.  The other factors are counted dense: their
    degrees sum to `width`, and `step`, the gcd of their g, divides their
    exponents.  The product's coefficients sum to `value`, and a C(J, s) / 2^J
    share of it comes from the terms that take s of the J gaps.  Their
    exponents lie between the sum of the s least gaps and `width` past the sum
    of the s largest, `spread` apart, and differ by multiples of the gcd of
    `step` and the gaps' differences; so the share at s = J // 2 falls on at
    most spread / gcd + 1 exponents.  In NGs(200000, 20, 20), the 20 factors
    R^m + 1 with m = 199980..199999, that is 184756 / 2^20 of the value on 101
    exponents: the bound reads 11 bits, the largest coefficient has 13, and the
    mean over the degree 3,999,790 reads 0.
    """
    gaps.sort()
    half = len(gaps) // 2
    spread = max(sum(gaps[len(gaps) - half:]) - sum(gaps[:half]) + width, 0)
    step = gcd(step, *(g - gaps[0] for g in gaps))
    return value * comb(len(gaps), half) // ((spread // step + 1 if step else 1) << len(gaps))


# -- the five blocks: (scale, a, pairs) factors, divisor pairs first ----------


def _sphere(n: int):
    """S^n = 2*(R^(n+1) - 1)/(R - 1): two cells in every dimension up to n."""
    return 2, 0, ((1, -1), (n + 1, 1))


def _stereographic(n: int):
    """R^n + 1 = (R^(2n) - 1)/(R^n - 1), which is 2 at n = 0."""
    return (1, 0, ((n, -1), (2 * n, 1))) if n else (2, 0, ())


def _projective(n: int, step: int):
    """(R^(step*(n+1)) - 1)/(R^step - 1): RP^n, CP^n, HP^n for step 1, 2, 4."""
    return 1, 0, ((step, -1), (step * (n + 1), 1))


def _phantom(n: int, step: int):
    """(R^(step*(n+1)) + 1)/(R^step + 1) for even n: the phantom projective spaces."""
    top = step * (n + 1)
    return 1, 0, ((top, -1), (2 * step, -1), (step, 1), (2 * top, 1))


def _grassmann(n: int, k: int, step: int):
    """The Gaussian binomial: prod over j = 1..k of (R^(step*(n-j+1)) - 1)/(R^(step*j) - 1).

    G(n, k) = G(n, n - k), so k <= n/2 and the top and bottom factors stay apart.
    """
    if n >= k > n - k:
        k = n - k
    return 1, 0, (pair for j in range(1, k + 1)
                  for pair in ((step * j, -1), (step * (n - j + 1), 1)))


def _linear_frames(n: int, k: int):
    """R^n - R^j = R^j * (R^(n-j) - 1) for j < k: the choices of each of k independent vectors."""
    return ((1, j, ((n - j, 1),)) for j in range(k))


def _conic(m: int):
    """The complex-coordinate compactification: CP^n * SS^(2n) for m = 2n, CP^m odd."""
    if m % 2 == 0:
        return _projective(m // 2, 2), _stereographic(m)
    return (_projective(m, 2),)


# -- builders --------------------------------------------------------------


def sphere(n: int) -> MorphPoly:
    return _quotient([_sphere(n)])


def poincare_sphere(n: int) -> MorphPoly:
    """The stereographic sphere R^n + 1."""
    return _quotient([_stereographic(n)])


def projective(n: int, step: int = 1) -> MorphPoly:
    return _quotient([_projective(n, step)])


def phantom(n: int, step: int = 1) -> MorphPoly:
    return _quotient([_phantom(n, step)])


def orthogonal(n: int) -> MorphPoly:
    return _quotient(map(_sphere, range(n)))


def special_orthogonal(n: int) -> MorphPoly:
    return _quotient(map(_sphere, range(1, n)))


def general_linear(n: int) -> MorphPoly:
    return _quotient(_linear_frames(n, n))


def unitary(n: int) -> MorphPoly:
    return _quotient(map(_sphere, range(1, 2 * n, 2)))


def special_unitary(n: int) -> MorphPoly:
    return _quotient(map(_sphere, range(3, 2 * n, 2)))


def symplectic(n: int) -> MorphPoly:
    return _quotient(map(_sphere, range(3, 4 * n, 4)))


def stiefel(n: int, k: int) -> MorphPoly:
    return _quotient(map(_sphere, range(n - k, n)))


def stiefel_linear(n: int, k: int) -> MorphPoly:
    return _quotient(_linear_frames(n, k))


def grassmannian(n: int, k: int, step: int = 1) -> MorphPoly:
    return _quotient([_grassmann(n, k, step)])


def oriented_grassmannian(n: int, k: int) -> MorphPoly:
    # the Stiefel manifold V(n, k) over SO(k)
    return _quotient(map(_sphere, range(n - k, n)), over=map(_sphere, range(1, k)))


_SPIN = {3: [3], 4: [3, 3], 5: [7, 3], 6: [7, 5, 3]}


def spin(m: int) -> MorphPoly:
    return _quotient(map(_sphere, _SPIN[m]))


def conformal_compactification(p: int, q: int) -> MorphPoly:
    # SS(p) * RP(q) solves Rbar(p, q) = R^(p+q) + Rbar(p-1, q-1)*R + 1, Rbar(p, 0) = R^p + 1
    return _quotient([_stereographic(p), _projective(q, 1)])


def twistor_stereographic(p: int, q: int) -> MorphPoly:
    # with C = R^2, SS(2p-1) * CP(q-1) solves TT(p, q) = C^(p+q-2)*R + TT(p-1, q-1)*C + 1,
    # TT(p, 1) = C^(p-1)*R + 1
    return _quotient([_stereographic(2 * p - 1), _projective(q - 1, 2)])


def compact_complex_sphere(m: int) -> MorphPoly:
    return _quotient(map(_sphere, (m + 1, m)), over=[_sphere(1)])


def conic_compactification(m: int) -> MorphPoly:
    return _quotient(_conic(m))


def conic_open(m: int) -> MorphPoly:
    if m == 0:
        return MorphPoly.constant(2)
    return conic_compactification(m) - conic_compactification(m - 1)


class EntrySpec(NamedTuple):
    id: str
    arity: str
    validity: str
    citation: str
    check: callable
    build: callable


class CatalogEntry(NamedTuple):
    id: str
    params: tuple
    quantity: MorphPoly
    citation: str


_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


def _validity_check(arity: str, validity: str):
    """The parameter check that an entry's validity text states.

    The text is a comma-separated list of clauses over the names in `arity`:
    comparison chains of names, integers and multiples such as `2k`, an
    `even` prefix, a range `m in 3..6`, and a bare name that shares the next
    clause's bound (`a, b >= 0`).  In the variadic arity `n,k1..ks` the chain
    `k1 < .. < ks` runs through every parameter after the first.
    """
    names = arity.split(",")
    variadic = names[-1] == "k1..ks"
    index = {name: i for i, name in enumerate(names)}
    if variadic:
        index.update(k1=len(names) - 1, ks=-1)

    def term(token):
        coeff, name = re.fullmatch(r"(\d*)([a-z]\w*)?", token).groups()
        if name is None:
            return lambda ps: int(coeff)
        i, c = index[name], int(coeff or 1)
        return lambda ps: c * ps[i]

    tests = []
    clauses = validity.split(", ")
    for clause, following in zip(clauses, clauses[1:] + [""]):
        if clause in index:  # "a, b >= 0": a takes b's bound
            clause += following[len(following.split()[0]):]
        if clause.startswith("even "):
            i = index[clause.split()[1]]
            tests.append(lambda ps, i=i: ps[i] % 2 == 0)
            clause = clause[len("even "):]
        bounds = re.fullmatch(r"(\w+) in (\d+)\.\.(\d+)", clause)
        if bounds:
            clause = f"{bounds[2]} <= {bounds[1]} <= {bounds[3]}"
        tokens = clause.split()
        for left, op, right in zip(tokens[0::2], tokens[1::2], tokens[2::2]):
            cmp = _COMPARE[op]
            if right == "..":
                tests.append(lambda ps, s=index[left], cmp=cmp: all(map(cmp, ps[s:], ps[s + 1:])))
            elif left != "..":
                tests.append(lambda ps, a=term(left), b=term(right), cmp=cmp: cmp(a(ps), b(ps)))

    def check(ps) -> bool:
        arity_ok = len(ps) >= len(names) if variadic else len(ps) == len(names)
        return arity_ok and all(test(ps) for test in tests)

    return check


def _specs():
    rows = [
        ("S", "n", "n >= 0", "round sphere: two cells per dimension", sphere),
        ("SS", "n", "n >= 0", "stereographic sphere R^n + 1", poincare_sphere),
        ("RP", "n", "n >= 0", "real projective space", lambda n: projective(n, 1)),
        ("CP", "n", "n >= 0", "complex projective space", lambda n: projective(n, 2)),
        ("HP", "n", "n >= 0", "quaternionic projective space", lambda n: projective(n, 4)),
        ("RPh", "n", "even n >= 0", "phantom real projective space", lambda n: phantom(n, 1)),
        ("CPh", "n", "even n >= 0", "phantom complex projective space",
         lambda n: phantom(n, 2)),
        ("HPh", "n", "even n >= 0", "phantom quaternionic projective space",
         lambda n: phantom(n, 4)),
        ("O", "n", "n >= 0", "orthogonal group as nested frame spheres", orthogonal),
        ("SO", "n", "n >= 1", "special orthogonal group", special_orthogonal),
        ("GL", "n", "n >= 0", "general linear group", general_linear),
        ("SL", "n", "n >= 1", "special linear group GL(n)/(R - 1)",
         lambda n: _quotient(_linear_frames(n, n), over=[(1, 0, ((1, 1),))])),
        ("SOpq", "p,q", "p >= 1, q >= 1", "pseudo-orthogonal group O(p)*SO(q)*R^(p*q)",
         lambda p, q: _quotient(chain(map(_sphere, range(p)), map(_sphere, range(1, q)),
                                      [(1, p * q, ())]))),
        ("U", "n", "n >= 0", "unitary group: odd spheres", unitary),
        ("SU", "n", "n >= 1", "special unitary group", special_unitary),
        ("Cstr", "n", "n >= 1", "complex structures SO(2n)/U(n): even spheres",
         lambda n: _quotient(map(_sphere, range(2, 2 * n, 2)))),
        ("Upq", "p,q", "p >= 1, q >= 1", "pseudo-unitary frames with flat factors",
         lambda p, q: _quotient(chain(map(_sphere, range(1, 2 * p, 2)), [(1, 2 * p * q, ())],
                                      map(_sphere, range(1, 2 * q, 2))))),
        ("Sp", "n", "n >= 0", "compact symplectic group: quaternionic frames", symplectic),
        ("Spin", "m", "m in 3..6", "spin group via low-dimensional isomorphisms", spin),
        ("SOspin", "m", "m in 3..6", "rotation group as Spin(m)/2",
         lambda m: _quotient(map(_sphere, _SPIN[m]), over=[(2, 0, ())])),
        ("V", "n,k", "0 <= k <= n", "Stiefel manifold of orthonormal k-frames", stiefel),
        ("VL", "n,k", "0 <= k <= n", "linearly independent k-frames", stiefel_linear),
        ("G", "n,k", "0 <= k <= n", "real Grassmannian of k-planes",
         lambda n, k: grassmannian(n, k, 1)),
        ("Gor", "n,k", "1 <= k <= n", "oriented Grassmannian", oriented_grassmannian),
        ("Gc", "n,k", "0 <= k <= n", "complex Grassmannian", lambda n, k: grassmannian(n, k, 2)),
        ("Gh", "n,k", "0 <= k <= n", "quaternionic Grassmannian",
         lambda n, k: grassmannian(n, k, 4)),
        ("Flag", "n,k1..ks", "0 < k1 < .. < ks < n", "flag manifold as nested Grassmannians",
         lambda n, *ks: _quotient(_grassmann(a, b, 1) for a, b in pairwise((n, *ks[::-1])))),
        ("NC", "n", "n >= 2", "nullcone 1 + S(n-1)*S(n-2)*Rp",
         lambda n: 1 + _quotient(map(_sphere, (n - 1, n - 2))) * P),
        ("CS", "m", "m >= 0", "complex sphere: sphere tangent bundle S(m)*R^m",
         lambda m: _quotient([_sphere(m), (1, m, ())])),
        ("CSbar", "m", "m >= 0", "compact complex sphere S(m+1)*S(m)/S(1)",
         compact_complex_sphere),
        ("CSS", "m", "m >= 0", "complex sphere, complex-coordinate count", conic_open),
        ("CSSbar", "m", "m >= 0", "compactified complex sphere, complex-coordinate count",
         conic_compactification),
        ("Spq", "a,b", "a, b >= 0", "projectivized nullcone S(a)*RP(b)",
         lambda a, b: _quotient([_sphere(a), _projective(b, 1)])),
        ("Rbar", "p,q", "p >= q >= 0", "conformal compactification of flat signature space",
         conformal_compactification),
        ("NG", "p,q,k", "p >= q >= k >= 1", "null Grassmannian G(p,k)*S(q-1)..S(q-k)",
         lambda p, q, k: _quotient(chain([_grassmann(p, k, 1)], map(_sphere, range(q - k, q))))),
        ("NGs", "p,q,k", "p >= q >= k >= 1", "stereographic null Grassmannian",
         lambda p, q, k: _quotient(chain([_grassmann(q, k, 1)],
                                         map(_stereographic, range(p - k, p))))),
        ("NGn", "n,k", "n >= 2k >= 2", "null planes in complex n-space",
         lambda n, k: _quotient(map(_sphere, range(n - 2 * k, n)),
                                over=map(_sphere, range(1, 2 * k, 2)))),
        ("NGns", "n,k", "n >= 2k >= 2", "stereographic null planes in complex n-space",
         lambda n, k: _quotient(chain.from_iterable(_conic(n - 2 * j) for j in range(1, k + 1)),
                                over=(_projective(i, 2) for i in range(1, k)))),
        ("T", "p,q", "p, q >= 1", "twistor space S(2p-1)*CP(q-1)",
         lambda p, q: _quotient([_sphere(2 * p - 1), _projective(q - 1, 2)])),
        ("TT", "p,q", "p >= q >= 1", "stereographic twistor space", twistor_stereographic),
        ("NGc", "p,q,k", "p >= q >= k >= 1", "null planes for the pseudo-hermitian form",
         lambda p, q, k: _quotient(chain(map(_sphere, range(2 * (p - k) + 1, 2 * p, 2)),
                                         map(_sphere, range(2 * (q - k) + 1, 2 * q, 2))),
                                   over=map(_sphere, range(1, 2 * k, 2)))),
        ("NGcs", "p,q,k", "p >= q >= k >= 1", "stereographic pseudo-hermitian null planes",
         lambda p, q, k: _quotient(chain(map(_stereographic, range(2 * (p - k) + 1, 2 * p, 2)),
                                         [_grassmann(q, k, 2)]))),
        ("LS", "p", "p >= 1", "Lie sphere S(p-1)*RP(1)",
         lambda p: _quotient([_sphere(p - 1), _projective(1, 1)])),
    ]
    return [EntrySpec(i, a, v, c, _validity_check(a, v), bld) for i, a, v, c, bld in rows]


_REGISTRY = {spec.id.lower(): spec for spec in _specs()}
ENTRY_IDS = frozenset(spec.id for spec in _REGISTRY.values())


def registry_table():
    """Machine-readable registry rows: (id, arity, validity, citation)."""
    return [
        (spec.id, spec.arity, spec.validity, spec.citation)
        for spec in sorted(_REGISTRY.values(), key=lambda s: s.id)
    ]


def lookup(entry_id: str) -> EntrySpec:
    spec = _REGISTRY.get(entry_id.lower())
    if spec is None:
        raise UnknownEntry(f"unknown catalog entry {entry_id!r}")
    return spec


def catalog_quantity(entry_id: str, params) -> MorphPoly:
    return catalog_entry(entry_id, params).quantity


# The one cache of built entries, keyed by (id, params), oldest first.  An entry
# is kept when len(ints) * (bits of its largest |c| + 64) is at most
# _CACHED_BITS, the 64 counting each coefficient's pointer and object, and at
# most _CACHED_ENTRIES are kept.  That is 2^16 bits (8 KiB) each and 8 MiB in
# all by the estimate; a CPython int below 2^30 takes 36 bytes with its
# pointer, not 8, so the cache holds at most about 40 MiB.
_CACHED_BITS = SIZE_BUDGET >> 6
_CACHED_ENTRIES = 1024
_ENTRIES = {}


def catalog_entry(entry_id: str, params) -> CatalogEntry:
    try:  # a parsed call is the cache's exact key: (id, tuple of ints)
        entry = _ENTRIES.get((entry_id, params))
    except TypeError:  # unhashable params
        entry = None
    if entry is not None:
        return entry
    spec = lookup(entry_id)
    given = params
    try:  # a list of params, each converting with int() and, unless a str, equal to its int
        if isinstance(given, (str, bytes, bytearray)):  # iterable, but one value, not a list
            raise TypeError
        given = list(given)
        params = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        params = None
    if params is None or any(i != p for i, p in zip(params, given) if not isinstance(p, str)):
        raise BadParams(f"{spec.id}({spec.arity}) needs integer parameters; got {given!r}")
    key = spec.id, params
    entry = _ENTRIES.get(key)
    if entry is not None:
        return entry
    if not spec.check(params):
        raise BadParams(
            f"{spec.id}({spec.arity}) needs {spec.validity}; got {list(params)}"
        )
    try:
        q = spec.build(*params)
    except NonZeroRemainder as exc:
        raise InternalDivisionFailed(
            f"{spec.id}{list(params)}: internal exact division failed: {exc}"
        ) from exc
    entry = CatalogEntry(spec.id, params, q, spec.citation)
    ints = q._ints
    if (len(ints) * 65 <= _CACHED_BITS  # else over the bound at any coefficient size
            and len(ints) * (max(map(abs, ints), default=0).bit_length() + 64) <= _CACHED_BITS):
        if len(_ENTRIES) >= _CACHED_ENTRIES:
            del _ENTRIES[next(iter(_ENTRIES))]
        _ENTRIES[key] = entry
    return entry


# -- independent oracles --------------------------------------------------


def schubert_cells(n: int, k: int):
    """Cell counts of the Grassmannian of k-planes in n-space, top dimension first.

    Brute force: every k-subset {j1 < .. < jk} of {1..n} is a pivot pattern and
    contributes a cell of dimension sum(j_i - i).
    """
    if not 0 < k < n:
        raise BadParams("schubert_cells needs 0 < k < n")
    top = k * (n - k)
    counts = [0] * (top + 1)
    for pivots in combinations(range(1, n + 1), k):
        dim = sum(j - i for i, j in enumerate(pivots, start=1))
        counts[dim] += 1
    return list(reversed(counts))


def gaussian_binomial(n: int, k: int) -> MorphPoly:
    """Gaussian binomial in R by the Pascal-type recurrence C(n,k) = C(n-1,k-1) + R^k*C(n-1,k).

    One row, no recursion and no memo: after i passes row[j] is C(j + i, j),
    so n - k passes leave C(n, k) in row[k].
    """
    if k < 0 or n < 0 or k > n:
        raise BadParams("gaussian_binomial needs 0 <= k <= n")
    row = [MorphPoly.constant(1)] * (k + 1)
    for _ in range(n - k):
        for j in range(1, k + 1):
            row[j] = row[j - 1] + R ** j * row[j]
    return row[k]
