"""Catalog of named quantities for the classical manifolds and groups.

Every entry is a constructor called with the integer parameters its arity
names (`p,q,k` calls `build(p, q, k)`), returning an exact quantity.
Quotient-defined entries run through exact division on purpose: a transcription
slip then surfaces as InternalDivisionFailed instead of a silently wrong
polynomial.  Spheres, projective and phantom spaces and Grassmannians are
quotients of factors R^m - 1, divided exactly in the R basis, where each
division is one pass over small integers and still raises on a remainder.
Independent combinatorial oracles (Schubert cell enumeration and the Gaussian
binomial recurrence) live here as well.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, pairwise
from math import prod

from .quantity import (
    MorphError,
    MorphPoly,
    NonZeroRemainder,
    P,
    R,
    _check_size,
    _normalised,
    div_exact,
)


class UnknownEntry(MorphError):
    pass


class BadParams(MorphError):
    pass


class InternalDivisionFailed(MorphError):
    pass


def _r_power_quotient(pairs, scale: int = 1) -> MorphPoly:
    """scale * prod (R^m - 1)^k over the (m, k) pairs, built on R-coefficients.

    Every factor with k > 0 is multiplied in first, so each division after it
    is exact whenever the whole quotient is a polynomial; a division that
    leaves a remainder raises NonZeroRemainder.
    """
    if any(m < 1 for m, _ in pairs):
        raise BadParams("a factor R^m - 1 needs m >= 1")
    _check_size(sum(m * k for m, k in pairs if k > 0),
                sum(k for _, k in pairs if k > 0) + scale.bit_length())
    c = [scale]  # c[i] is the coefficient of R^i
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
                raise NonZeroRemainder(f"R^{m} - 1 leaves a non-zero remainder")
            del c[:m]
    return _normalised(c, 0)


def _stereographic(n: int):
    """Pairs and scale of R^n + 1 = (R^(2n) - 1)/(R^n - 1), which is 2 at n = 0."""
    return (((2 * n, 1), (n, -1)), 1) if n else ((), 2)


@lru_cache(maxsize=None)
def sphere(n: int) -> MorphPoly:
    """S^n = 2*(R^(n+1) - 1)/(R - 1): two cells in every dimension up to n."""
    if n < 0:
        raise BadParams("sphere dimension must be >= 0")
    return _r_power_quotient(((n + 1, 1), (1, -1)), scale=2)


def poincare_sphere(n: int) -> MorphPoly:
    """The stereographic sphere R^n + 1."""
    if n < 0:
        raise BadParams("sphere dimension must be >= 0")
    return _r_power_quotient(*_stereographic(n))


@lru_cache(maxsize=None)
def projective(n: int, step: int = 1) -> MorphPoly:
    # (R^(step*(n+1)) - 1) / (R^step - 1): RP^n, CP^n, HP^n for step 1, 2, 4
    if n < 0:
        raise BadParams("projective dimension must be >= 0")
    return _r_power_quotient(((step * (n + 1), 1), (step, -1)))


@lru_cache(maxsize=None)
def phantom(n: int, step: int = 1) -> MorphPoly:
    # (R^(step*(n+1)) + 1) / (R^step + 1) for even n: the phantom projective spaces
    if n < 0 or n % 2:
        raise BadParams("phantom projective spaces exist in even dimensions")
    top = step * (n + 1)
    return _r_power_quotient(((2 * top, 1), (top, -1), (step, 1), (2 * step, -1)))


def _product(factors) -> MorphPoly:
    """The product of the factors; its size is checked as they are built, before any multiply."""
    built, degree, bits = [], 0, 0
    for f in factors:
        built.append(f)
        degree += f.degree()
        bits += (sum(map(abs, f._ints)) - 1).bit_length()
        _check_size(degree, bits)
    return prod(built, start=MorphPoly.constant(1))


@lru_cache(maxsize=None)
def orthogonal(n: int) -> MorphPoly:
    return _product(sphere(j) for j in range(n))


@lru_cache(maxsize=None)
def special_orthogonal(n: int) -> MorphPoly:
    return _product(sphere(j) for j in range(1, n))


@lru_cache(maxsize=None)
def general_linear(n: int) -> MorphPoly:
    return _product(R ** n - R ** j for j in range(n))


def unitary(n: int) -> MorphPoly:
    return _product(sphere(2 * j - 1) for j in range(1, n + 1))


def special_unitary(n: int) -> MorphPoly:
    return _product(sphere(2 * j - 1) for j in range(2, n + 1))


def symplectic(n: int) -> MorphPoly:
    return _product(sphere(4 * j - 1) for j in range(1, n + 1))


def stiefel(n: int, k: int) -> MorphPoly:
    return _product(sphere(n - j) for j in range(1, k + 1))


def stiefel_linear(n: int, k: int) -> MorphPoly:
    return _product(R ** n - R ** j for j in range(k))


@lru_cache(maxsize=None)
def grassmannian(n: int, k: int, step: int = 1) -> MorphPoly:
    # the Gaussian binomial: prod over j = 1..k of (R^(step*(n-j+1)) - 1)/(R^(step*j) - 1)
    top = [(step * (n - j + 1), 1) for j in range(1, k + 1)]
    bottom = [(step * j, -1) for j in range(1, k + 1)]
    return _r_power_quotient(top + bottom)


def oriented_grassmannian(n: int, k: int) -> MorphPoly:
    return div_exact(stiefel(n, k), special_orthogonal(k))


_SPIN = {3: [3], 4: [3, 3], 5: [7, 3], 6: [7, 5, 3]}


def spin(m: int) -> MorphPoly:
    return _product(sphere(j) for j in _SPIN[m])


def conformal_compactification(p: int, q: int) -> MorphPoly:
    # SS(p) * RP(q) solves Rbar(p, q) = R^(p+q) + Rbar(p-1, q-1)*R + 1, Rbar(p, 0) = R^p + 1
    pairs, scale = _stereographic(p)
    return _r_power_quotient((*pairs, (q + 1, 1), (1, -1)), scale)


def twistor_stereographic(p: int, q: int) -> MorphPoly:
    # with C = R^2, SS(2p-1) * CP(q-1) solves TT(p, q) = C^(p+q-2)*R + TT(p-1, q-1)*C + 1,
    # TT(p, 1) = C^(p-1)*R + 1
    return _r_power_quotient(((4 * p - 2, 1), (2 * p - 1, -1), (2 * q, 1), (2, -1)))


def compact_complex_sphere(m: int) -> MorphPoly:
    return div_exact(sphere(m + 1) * sphere(m), sphere(1))


def conic_compactification(m: int) -> MorphPoly:
    # the complex-coordinate compactification: CP^n * SS^(2n) for m = 2n, CP^m odd
    if m % 2 == 0:
        return projective(m // 2, step=2) * poincare_sphere(m)
    return projective(m, step=2)


def conic_open(m: int) -> MorphPoly:
    if m == 0:
        return MorphPoly.constant(2)
    return conic_compactification(m) - conic_compactification(m - 1)


@dataclass(frozen=True)
class EntrySpec:
    id: str
    arity: str
    validity: str
    citation: str
    check: callable
    build: callable


@dataclass(frozen=True)
class CatalogEntry:
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
         lambda n: div_exact(general_linear(n), R - 1)),
        ("SOpq", "p,q", "p >= 1, q >= 1", "pseudo-orthogonal group O(p)*SO(q)*R^(p*q)",
         lambda p, q: orthogonal(p) * special_orthogonal(q) * R ** (p * q)),
        ("U", "n", "n >= 0", "unitary group: odd spheres", unitary),
        ("SU", "n", "n >= 1", "special unitary group", special_unitary),
        ("Cstr", "n", "n >= 1", "complex structures SO(2n)/U(n): even spheres",
         lambda n: _product(sphere(2 * j) for j in range(1, n))),
        ("Upq", "p,q", "p >= 1, q >= 1", "pseudo-unitary frames with flat factors",
         lambda p, q: _product(sphere(2 * j - 1) * R ** (2 * q) for j in range(1, p + 1))
         * unitary(q)),
        ("Sp", "n", "n >= 0", "compact symplectic group: quaternionic frames", symplectic),
        ("Spin", "m", "m in 3..6", "spin group via low-dimensional isomorphisms", spin),
        ("SOspin", "m", "m in 3..6", "rotation group as Spin(m)/2",
         lambda m: div_exact(spin(m), MorphPoly.constant(2))),
        ("V", "n,k", "0 <= k <= n", "Stiefel manifold of orthonormal k-frames", stiefel),
        ("VL", "n,k", "0 <= k <= n", "linearly independent k-frames", stiefel_linear),
        ("G", "n,k", "0 <= k <= n", "real Grassmannian of k-planes",
         lambda n, k: grassmannian(n, k, 1)),
        ("Gor", "n,k", "1 <= k <= n", "oriented Grassmannian", oriented_grassmannian),
        ("Gc", "n,k", "0 <= k <= n", "complex Grassmannian", lambda n, k: grassmannian(n, k, 2)),
        ("Gh", "n,k", "0 <= k <= n", "quaternionic Grassmannian",
         lambda n, k: grassmannian(n, k, 4)),
        ("Flag", "n,k1..ks", "0 < k1 < .. < ks < n", "flag manifold as nested Grassmannians",
         lambda n, *ks: _product(grassmannian(a, b, 1) for a, b in pairwise((n, *ks[::-1])))),
        ("NC", "n", "n >= 2", "nullcone 1 + S(n-1)*S(n-2)*Rp",
         lambda n: 1 + sphere(n - 1) * sphere(n - 2) * P),
        ("CS", "m", "m >= 0", "complex sphere: sphere tangent bundle S(m)*R^m",
         lambda m: sphere(m) * R ** m),
        ("CSbar", "m", "m >= 0", "compact complex sphere S(m+1)*S(m)/S(1)",
         compact_complex_sphere),
        ("CSS", "m", "m >= 0", "complex sphere, complex-coordinate count", conic_open),
        ("CSSbar", "m", "m >= 0", "compactified complex sphere, complex-coordinate count",
         conic_compactification),
        ("Spq", "a,b", "a, b >= 0", "projectivized nullcone S(a)*RP(b)",
         lambda a, b: sphere(a) * projective(b, 1)),
        ("Rbar", "p,q", "p >= q >= 0", "conformal compactification of flat signature space",
         conformal_compactification),
        ("NG", "p,q,k", "p >= q >= k >= 1", "null Grassmannian G(p,k)*S(q-1)..S(q-k)",
         lambda p, q, k: grassmannian(p, k, 1) * _product(sphere(q - j) for j in range(1, k + 1))),
        ("NGs", "p,q,k", "p >= q >= k >= 1", "stereographic null Grassmannian",
         lambda p, q, k: grassmannian(q, k, 1)
         * _product(poincare_sphere(p - j) for j in range(1, k + 1))),
        ("NGn", "n,k", "n >= 2k >= 2", "null planes in complex n-space",
         lambda n, k: div_exact(_product(sphere(n - j) for j in range(1, 2 * k + 1)), unitary(k))),
        ("NGns", "n,k", "n >= 2k >= 2", "stereographic null planes in complex n-space",
         lambda n, k: div_exact(
             _product(conic_compactification(n - 2 * j) for j in range(1, k + 1)),
             _product(projective(i, 2) for i in range(1, k)))),
        ("T", "p,q", "p, q >= 1", "twistor space S(2p-1)*CP(q-1)",
         lambda p, q: sphere(2 * p - 1) * projective(q - 1, 2)),
        ("TT", "p,q", "p >= q >= 1", "stereographic twistor space", twistor_stereographic),
        ("NGc", "p,q,k", "p >= q >= k >= 1", "null planes for the pseudo-hermitian form",
         lambda p, q, k: div_exact(
             _product(sphere(2 * p - 2 * j + 1) * sphere(2 * q - 2 * j + 1)
                      for j in range(1, k + 1)),
             unitary(k))),
        ("NGcs", "p,q,k", "p >= q >= k >= 1", "stereographic pseudo-hermitian null planes",
         lambda p, q, k: _product(poincare_sphere(2 * p - 2 * j + 1) for j in range(1, k + 1))
         * grassmannian(q, k, 2)),
        ("LS", "p", "p >= 1", "Lie sphere S(p-1)*RP(1)",
         lambda p: sphere(p - 1) * projective(1, 1)),
    ]
    return [EntrySpec(i, a, v, c, _validity_check(a, v), bld) for i, a, v, c, bld in rows]


_REGISTRY = {spec.id.lower(): spec for spec in _specs()}


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


def catalog_entry(entry_id: str, params) -> CatalogEntry:
    spec = lookup(entry_id)
    params = tuple(int(p) for p in params)
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
    return CatalogEntry(id=spec.id, params=params, quantity=q, citation=spec.citation)


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


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> MorphPoly:
    """Gaussian binomial in R by the Pascal-type recurrence C(n,k) = C(n-1,k-1) + R^k*C(n-1,k)."""
    if k < 0 or n < 0 or k > n:
        raise BadParams("gaussian_binomial needs 0 <= k <= n")
    if k == 0 or k == n:
        return MorphPoly.constant(1)
    return gaussian_binomial(n - 1, k - 1) + R ** k * gaussian_binomial(n - 1, k)
