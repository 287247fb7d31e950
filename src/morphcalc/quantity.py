"""Exact arithmetic for quantity polynomials in the line R and the halfline Rp.

A quantity is a polynomial with rational coefficients whose denominators are
powers of two.  The canonical internal form is the pure halfline basis: a
sparse map from Rp-exponents to coefficients, using the substitution
R = 2*Rp + 1.  Integer polynomials in R embed into integer polynomials in Rp,
so equality, classification and rendering are all decided on this one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


class MorphError(Exception):
    """Base class for quantity-domain errors."""


class DivisionByZero(MorphError):
    pass


class NonZeroRemainder(MorphError):
    """Division has no exact quantity solution."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotSemiIntegrable(MorphError):
    pass


class MixedFormUnavailable(MorphError):
    pass


class ZeroQuantity(MorphError):
    pass


def is_dyadic(value: Fraction) -> bool:
    den = value.denominator
    return den & (den - 1) == 0


def _fmt_frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class MorphPoly:
    """A quantity: exact polynomial over the halfline symbol Rp (R = 2*Rp + 1)."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, p_coeffs=None):
        coeffs = {}
        for exp, raw in dict(p_coeffs or {}).items():
            exp = int(exp)
            if exp < 0:
                raise ValueError("negative exponent in quantity polynomial")
            c = Fraction(raw)
            if c == 0:
                continue
            if not is_dyadic(c):
                raise ValueError(f"coefficient {c} has a non power-of-two denominator")
            coeffs[exp] = c
        self._coeffs = coeffs
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MorphPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "MorphPoly":
        return cls({0: Fraction(value)})

    @classmethod
    def halfline(cls) -> "MorphPoly":
        return cls({1: 1})

    @classmethod
    def line(cls) -> "MorphPoly":
        return cls({1: 2, 0: 1})

    @classmethod
    def from_r_coeffs(cls, r_coeffs) -> "MorphPoly":
        """Build from a map R-exponent -> coefficient via R^k = (2*Rp + 1)^k."""
        coeffs = {}
        for k, raw in dict(r_coeffs).items():
            k = int(k)
            c = Fraction(raw)
            if c == 0:
                continue
            for j in range(k + 1):
                coeffs[j] = coeffs.get(j, Fraction(0)) + c * comb(k, j) * (1 << j)
        return cls(coeffs)

    # -- views ---------------------------------------------------------

    def p_coeffs(self) -> dict:
        return dict(self._coeffs)

    def p_coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    def r_coeffs(self) -> dict:
        """Coefficients over R, via Rp^p = ((R - 1)/2)^p.  May be half-integral."""
        out = {}
        for p, c in self._coeffs.items():
            scale = Fraction(1, 1 << p)
            for j in range(p + 1):
                sign = -1 if (p - j) % 2 else 1
                out[j] = out.get(j, Fraction(0)) + c * comb(p, j) * sign * scale
        return {j: c for j, c in out.items() if c != 0}

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        if not self._coeffs:
            raise ZeroQuantity("the zero quantity has no degree")
        return max(self._coeffs)

    def leading_p(self) -> Fraction:
        return self._coeffs[self.degree()]

    # -- ring structure --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, MorphPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MorphPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MorphPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MorphPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MorphPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MorphPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return div_exact(self, other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if self._hash is None:
            coeffs = self._coeffs
            if coeffs.keys() <= {0}:  # a constant equals its value, so hashes as it
                self._hash = hash(coeffs.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(coeffs.items())))
        return self._hash

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"MorphPoly({render(self, 'p')!r})"

    def __str__(self):
        return render(self, "r")


R = MorphPoly.line()
P = MorphPoly.halfline()


def _divmod_dicts(num, den):
    """Long division in the rational polynomial ring; plain dict arithmetic."""
    dd = max(den)
    dl = den[dd]
    rem = dict(num)
    quo = {}
    while rem and max(rem) >= dd:
        e = max(rem)
        f = rem[e] / dl
        k = e - dd
        quo[k] = quo.get(k, Fraction(0)) + f
        for de, dc in den.items():
            ne = de + k
            nv = rem.get(ne, Fraction(0)) - dc * f
            if nv:
                rem[ne] = nv
            elif ne in rem:
                del rem[ne]
    return quo, rem


def div_exact(num: MorphPoly, den: MorphPoly) -> MorphPoly:
    """Exact quotient num/den, or NonZeroRemainder if no quantity solves c*den = num."""
    num = MorphPoly._coerce(num)
    den = MorphPoly._coerce(den)
    if den is None or num is None:
        raise TypeError("div_exact expects quantities")
    if den.is_zero():
        raise DivisionByZero("division by the zero quantity")
    if num.is_zero():
        return MorphPoly.zero()
    quo, rem = _divmod_dicts(num._coeffs, den._coeffs)
    if rem:
        raise NonZeroRemainder(
            f"non-zero remainder {_render_powers(rem, 'Rp')}",
            remainder=rem,
        )
    if not all(is_dyadic(c) for c in quo.values()):
        raise NonZeroRemainder(
            "quotient needs non power-of-two denominators; no quantity solution"
        )
    return MorphPoly(quo)


def evaluate_at(q: MorphPoly, r_value) -> Fraction:
    """Exact value of q at R = r_value (so Rp = (r_value - 1)/2)."""
    r_value = Fraction(r_value)
    p_value = (r_value - 1) / 2
    total = Fraction(0)
    for e, c in q._coeffs.items():
        total += c * p_value ** e
    return total


def euler(q: MorphPoly):
    """Euler characteristic: the value at R = -1.  Integer for integer quantities."""
    value = evaluate_at(q, -1)
    return value.numerator if value.denominator == 1 else value


def dimension(q: MorphPoly) -> int:
    if q.is_zero():
        raise ZeroQuantity("the zero quantity has no dimension")
    return q.degree()


# -- classification -----------------------------------------------------


@dataclass(frozen=True)
class Classification:
    is_object: bool
    integrable: bool
    semi_integrable: bool
    integer_type: bool
    half_integer_type: bool
    just_another_type: bool
    label: str


def classify(q: MorphPoly) -> Classification:
    """Object-hood and the representability hierarchy of a quantity.

    is_object: integer halfline coefficients with positive leading coefficient.
    integrable: non-negative integer R-coefficients (a cell complex).
    semi_integrable: non-negative integer halfline coefficients, which holds
        exactly when some sum of terms c * Rp^j * R^k with c >= 0 evaluates to q.
    integer_type: integer R-coefficients with positive leading coefficient.
    """
    if q.is_zero():
        return Classification(False, False, False, False, False, False, "NotAnObject")

    pvals = list(q._coeffs.values())
    p_integers = all(c.denominator == 1 for c in pvals)
    is_object = p_integers and q.leading_p() >= 1

    semi = p_integers and all(c >= 0 for c in pvals)

    rc = q.r_coeffs()
    r_integers = all(c.denominator == 1 for c in rc.values())
    r_lead = rc[max(rc)]
    integer_type = r_integers and r_lead >= 1
    integrable = integer_type and all(c >= 0 for c in rc.values())

    half = semi and not integer_type
    just_another = is_object and not semi and not integer_type

    if not is_object:
        label = "NotAnObject"
    elif integrable:
        label = "Integrable"
    elif semi and integer_type:
        label = "SemiIntegrableIntegerType"
    elif half:
        label = "HalfIntegerType"
    elif integer_type:
        label = "IntegerTypeNotSemiIntegrable"
    else:
        label = "JustAnotherType"

    return Classification(
        is_object=is_object,
        integrable=integrable,
        semi_integrable=semi,
        integer_type=integer_type,
        half_integer_type=half,
        just_another_type=just_another,
        label=label,
    )


# -- minimal semi-integral form -----------------------------------------


@dataclass(frozen=True)
class SemiIntegralForm:
    """Representation sum(c * Rp^p * R^r) with positive integer c and minimal max p."""

    terms: tuple  # ((p_exp, r_exp, coeff), ...) sorted by (p desc, r desc)
    j_max: int

    def quantity(self) -> MorphPoly:
        total = MorphPoly.zero()
        for p, r, c in self.terms:
            total = total + MorphPoly({p: c}) * MorphPoly.from_r_coeffs({r: 1})
        return total


def _term_vector(p, r, degree):
    # halfline expansion of Rp^p * R^r as a dense tuple up to `degree`
    vec = [0] * (degree + 1)
    for j in range(r + 1):
        vec[p + j] = comb(r, j) * (1 << j)
    return tuple(vec)


def _search_min_rep(q: MorphPoly, j_bound: int):
    """Best representation with halfline exponent <= j_bound, or None.

    Best means: minimal sum of coefficients on terms with p > 0, then the
    lexicographically smallest coefficient vector with terms ordered by
    (p desc, r desc).  Bounded exhaustive search; exact at desk scale.
    """
    degree = q.degree()
    target = [0] * (degree + 1)
    for e, c in q._coeffs.items():
        if c.denominator != 1 or c < 0:
            return None
        target[e] = c.numerator
    terms = [
        (p, r)
        for p in range(min(j_bound, degree), -1, -1)
        for r in range(degree - p, -1, -1)
    ]
    vectors = {t: _term_vector(t[0], t[1], degree) for t in terms}
    suffix_top = [0] * (len(terms) + 1)
    suffix_top[len(terms)] = -1
    for i in range(len(terms) - 1, -1, -1):
        suffix_top[i] = max(suffix_top[i + 1], terms[i][0] + terms[i][1])

    best = None  # (possum, coeff_vector)

    def residual_ok(res, index):
        # anything still needed above the top degree of the remaining terms is dead
        return all(res[d] == 0 for d in range(suffix_top[index] + 1, degree + 1))

    def rec(index, res, possum, coeffs):
        nonlocal best
        if best is not None and possum > best[0]:
            return
        if index == len(terms):
            if all(v == 0 for v in res):
                cand = (possum, tuple(coeffs))
                if best is None or cand < (best[0], best[1]):
                    best = cand
            return
        if not residual_ok(res, index):
            return
        p, r = terms[index]
        vec = vectors[(p, r)]
        # c is capped by the residual's top coefficient this term can reach;
        # the break below prunes once any coefficient would go negative
        top = p + r
        cmax = res[top] // vec[top]
        for c in range(0, cmax + 1):
            if c:
                new = list(res)
                bad = False
                for d in range(p, top + 1):
                    new[d] = res[d] - c * vec[d]
                    if new[d] < 0:
                        bad = True
                        break
                if bad:
                    break
                nres = new
            else:
                nres = list(res)
            coeffs.append(c)
            rec(index + 1, nres, possum + (c if p > 0 else 0), coeffs)
            coeffs.pop()

    rec(0, list(target), 0, [])
    if best is None:
        return None
    assignment = tuple(
        (p, r, c) for (p, r), c in zip(terms, best[1]) if c
    )
    return assignment


def semi_integral_minimal(q: MorphPoly) -> SemiIntegralForm:
    """The minimal-j halfline representation of a semi-integrable quantity."""
    cls = classify(q)
    if not cls.semi_integrable:
        raise NotSemiIntegrable(f"{render(q, 'r')} is not semi-integrable")
    degree = q.degree()
    for j in range(degree + 1):
        if j == 0 and not cls.integrable:
            continue
        found = _search_min_rep(q, j)
        if found is not None:
            j_max = max((p for p, _, _ in found), default=0)
            return SemiIntegralForm(terms=found, j_max=j_max)
    raise NotSemiIntegrable("no halfline representation found")  # unreachable


# -- rendering -----------------------------------------------------------


def _render_terms(parts) -> str:
    # parts: list of (coeff: Fraction, symbol_factors: [(name, exp), ...])
    out = []
    for coeff, syms in parts:
        mag = abs(coeff)
        factors = []
        syms = [(name, e) for name, e in syms if e != 0]
        if mag != 1 or not syms:
            factors.append(_fmt_frac(mag))
        for name, e in syms:
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not out:
            out.append(body if coeff > 0 else f"0 - {body}")
        else:
            out.append(f"{' + ' if coeff > 0 else ' - '}{body}")
    return "".join(out)


def _render_powers(coeffs, var) -> str:
    # coeffs: exponent -> coefficient, rendered by descending powers of var
    return _render_terms([(coeffs[e], [(var, e)]) for e in sorted(coeffs, reverse=True)])


def render(q: MorphPoly, basis: str = "r") -> str:
    """Deterministic text form of a quantity in the chosen basis.

    basis "r": powers of R, descending (half-integral coefficients exact).
    basis "p": powers of Rp, descending.
    basis "mixed": the minimal semi-integral form c * Rp^j * R^k.
    """
    if basis not in ("r", "p", "mixed"):
        raise ValueError(f"unknown basis {basis!r}")
    if q.is_zero():
        return "0"
    if basis == "p":
        return _render_powers(q.p_coeffs(), "Rp")
    if basis == "r":
        return _render_powers(q.r_coeffs(), "R")
    try:
        form = semi_integral_minimal(q)
    except NotSemiIntegrable as exc:
        raise MixedFormUnavailable(str(exc)) from exc
    return _render_terms(
        [(Fraction(c), [("Rp", p), ("R", r)]) for p, r, c in form.terms]
    )
