"""Exact arithmetic for quantity polynomials in the line R and the halfline Rp.

A quantity is a polynomial with rational coefficients whose denominators are
powers of two, that is a polynomial over Z[1/2].  The internal form is the
line basis: a dense tuple of Python ints c and one shift s, meaning
sum(c[i] * R^i) / 2^s.  The tuple has no trailing zeros, and some c[i] is odd
whenever s > 0, so each quantity has exactly one such form and its
denominators are powers of two by construction.  Since R = 2*Rp + 1, the
polynomials over Z[1/2] in R are exactly those in Rp, so the halfline basis is
a view: one integer Taylor shift each way, both in this module.
Multiplication is integer convolution and division is long division over Z.
Text is formatted from the ints too, by `_render_terms`.  A `Fraction` appears
only in the `r_coeffs`/`p_coeffs` views, `evaluate_at`, the remainder map of
`NonZeroRemainder`, the hash of a constant, and where one is taken as input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb, gcd
from operator import add, or_, sub
from typing import NamedTuple


class MorphError(Exception):
    """Base class for quantity-domain errors.

    Each class states how the command line reports it: `kind` prefixes the
    message on stderr and `exit_status` is the exit code.  A class outside the
    two bases below is a violated precondition (exit 4).
    """

    exit_status = 4
    kind = "precondition violated"


class UsageError(MorphError):
    """Unreadable input: bad syntax, an unknown name or entry, bad parameters, a bad corpus."""

    exit_status = 2
    kind = "error"


class InexactDivision(MorphError):
    """A division has no exact quantity quotient."""

    exit_status = 3
    kind = "inexact division"


class DivisionByZero(InexactDivision):
    pass


class NonZeroRemainder(InexactDivision):
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


class SizeLimitExceeded(MorphError):
    """The estimated size of a result exceeds SIZE_BUDGET."""


# Largest accepted estimate of a result's size, (degree + 1) * coefficient bits.
# A power base^e takes degree e * deg(base) and e * bits(sum |c_i| - 1) bits, a
# product a * b degree deg a + deg b and bits(max|a| * max|b| * t - 1) bits, t
# the fewer non-zero coefficients of the two.  A catalog entry scale * R^a *
# prod (R^m - 1)^k of degree d is estimated from its pairs as
# (d + 1) * bits(V // (d + 1)), V its coefficient total, the mean raised for
# sparse products such as prod (R^m + 1) (see catalog._quotient and
# catalog._peak).  Dense arithmetic near the budget takes seconds: Rp^2000 sits
# just below.
SIZE_BUDGET = 1 << 22

# Largest accepted estimate of the halfline view's size, in bits (see
# `_view_bits`).  The view of a degree-d quantity holds about d^2 bits however
# small its R-coefficients, so it has a bound of its own, above SIZE_BUDGET:
# S(3000) in the Rp basis, estimated at 18 M bits, is answered in about 2 s;
# R^20000, at 800 M bits, is refused.
VIEW_BUDGET = 1 << 25

# Largest accepted number of values the mixed-form search tries, summed over
# the halfline bounds of one `semi_integral_minimal` call: each step of
# `_dp_min_rep` adds the length of every range of E'_(k-1) it loops over.
# Rp^3*R^10 + R^13 tries 1.5 M values and is answered in about 0.25 s;
# Rp^4*R^4 + R^8, at 25.6 M, is refused.
SEARCH_BUDGET = 1 << 23


def _check_size(degree: int, bits: int) -> None:
    size = (degree + 1) * max(bits, 1)
    if size > SIZE_BUDGET:
        raise SizeLimitExceeded(
            f"the result would hold about {size} bits, over the size budget of {SIZE_BUDGET}"
        )


def _dyadic_ints(coeffs):
    """Dense ints and shift of an exponent -> coefficient map over Z[1/2]."""
    terms = {}
    shift = 0
    for exp, raw in dict(coeffs or {}).items():
        exp = int(exp)
        if exp < 0:
            raise ValueError("negative exponent in quantity polynomial")
        c = Fraction(raw)
        if c == 0:
            continue
        den = c.denominator
        if den & (den - 1):
            raise ValueError(f"coefficient {c} has a non power-of-two denominator")
        terms[exp] = c
        shift = max(shift, den.bit_length() - 1)
    ints = [0] * (max(terms, default=-1) + 1)
    for exp, c in terms.items():
        ints[exp] = c.numerator << (shift + 1 - c.denominator.bit_length())
    return ints, shift


def _normal_form(ints, shift):
    """ints / 2^shift without trailing zeros and with no power of two left to cancel."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    ints = ints[:n]
    if shift:
        low = reduce(or_, ints, 0)
        k = min(shift, (low & -low).bit_length() - 1) if low else shift
        if k:
            ints = [c >> k for c in ints]
            shift -= k
    return tuple(ints), shift


def _normalised(ints, shift) -> "MorphPoly":
    """The quantity sum(ints[i] * R^i) / 2^shift in normal form."""
    q = MorphPoly.__new__(MorphPoly)
    q._ints, q._shift = _normal_form(ints, shift)
    return q


def _add_scaled(ints, shift, c, q, offset) -> int:
    """Add c * R^offset * q into the quantity ints / 2^shift, a list it extends; the new shift."""
    t, s = q._ints, q._shift
    if s > shift:
        ints[:] = [x << (s - shift) for x in ints]
        shift = s
    c <<= shift - s
    if c != 1:
        t = [*map(c.__mul__, t)]
    end = offset + len(t)
    if len(ints) <= offset:
        ints += [0] * (offset - len(ints))
        ints += t
    else:
        if len(ints) < end:
            ints += [0] * (end - len(ints))
        ints[offset:end] = map(add, ints[offset:end], t)
    return shift


def _view_bits(ints) -> int:
    """A bound on the bits of the halfline ints of sum(ints[i] * R^i), all d + 1 of them.

    Each |h_j| <= sum |c_i| * C(i, j) * 2^j <= max|c| * (d + 1) * 4^d.
    """
    n = len(ints)
    return n * (max(map(abs, ints), default=0).bit_length() + n.bit_length() + 2 * n - 2)


def _halfline_ints(ints, shift):
    """sum(ints[i] * R^i) / 2^shift as halfline ints and shift, in normal form.

    The one change to the halfline basis, by Horner in R = 2*Rp + 1.  A view
    estimated over VIEW_BUDGET raises SizeLimitExceeded before any work.
    """
    bits = _view_bits(ints)
    if bits > VIEW_BUDGET:
        raise SizeLimitExceeded(
            f"the halfline form would hold about {bits} bits, over the view budget of {VIEW_BUDGET}"
        )
    acc = list(ints[-1:])
    for k in range(len(ints) - 2, -1, -1):  # acc -> acc * (2*Rp + 1) + ints[k]
        twice = [c << 1 for c in acc]
        acc = [acc[0] + ints[k], *map(add, acc[1:], twice), twice[-1]]
    return _normal_form(acc, shift)


class MorphPoly:
    """A quantity: exact polynomial over the line symbol R, read also in Rp = (R - 1)/2.

    Stored as ints c and a shift s meaning sum(c[i] * R^i) / 2^s, with no
    trailing zeros in c and an odd c[i] whenever s > 0.  The constructor takes
    halfline coefficients, `from_r_coeffs` line coefficients.
    """

    __slots__ = ("_ints", "_shift")

    def __init__(self, p_coeffs=None):
        c, shift = _dyadic_ints(p_coeffs)
        d = max(len(c) - 1, 0)
        # sum c[i] * ((R - 1)/2)^i = sum (c[i] << (d - i)) * (R - 1)^i / 2^d,
        # expanded by Horner in (R - 1): acc -> acc * (R - 1) + (c[i] << (d - i))
        acc = c[-1:]
        for i in range(d - 1, -1, -1):
            acc = [(c[i] << (d - i)) - acc[0], *map(sub, acc, acc[1:]), acc[-1]]
        self._ints, self._shift = _normal_form(acc, shift + d)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MorphPoly":
        return _normalised([], 0)

    @classmethod
    def constant(cls, value) -> "MorphPoly":
        if isinstance(value, int):
            return _normalised([value], 0)
        return cls.from_r_coeffs({0: value})

    @classmethod
    def halfline(cls) -> "MorphPoly":
        return _normalised([-1, 1], 1)

    @classmethod
    def line(cls) -> "MorphPoly":
        return _normalised([0, 1], 0)

    @classmethod
    def from_r_coeffs(cls, r_coeffs) -> "MorphPoly":
        """Build from a map R-exponent -> coefficient."""
        return _normalised(*_dyadic_ints(r_coeffs))

    # -- views ---------------------------------------------------------

    def p_coeffs(self) -> dict:
        ints, shift = _halfline_ints(self._ints, self._shift)
        return {e: Fraction(c, 1 << shift) for e, c in enumerate(ints) if c}

    def r_coeffs(self) -> dict:
        """Coefficients over R.  May be half-integral."""
        den = 1 << self._shift
        return {e: Fraction(c, den) for e, c in enumerate(self._ints) if c}

    def is_zero(self) -> bool:
        return not self._ints

    def degree(self) -> int:
        if not self._ints:
            raise ZeroQuantity("the zero quantity has no degree")
        return len(self._ints) - 1

    # -- ring structure --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, MorphPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MorphPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        shift = max(self._shift, other._shift)
        if self._shift < shift:
            a = [c << (shift - self._shift) for c in a]
        elif other._shift < shift:
            b = [c << (shift - other._shift) for c in b]
        if len(a) < len(b):
            a, b = b, a
        return _normalised([*map(add, a, b), *a[len(b):]], shift)

    __radd__ = __add__

    def __neg__(self):
        return _normalised([-c for c in self._ints], self._shift)

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
        a, b = self._ints, other._ints
        if not a or not b:
            return MorphPoly.zero()
        if len(a) < len(b):
            a, b = b, a
        # a coefficient of the product sums at most t products, each at most top, t
        # the fewer non-zero coefficients of the two; the - 1 follows __pow__'s
        # bits(sum |c| - 1).  t <= len(b) bounds the size first, without a count.
        top = max(map(abs, a)) * max(map(abs, b))
        if (len(a) + len(b) - 1) * ((top * len(b) - 1).bit_length() or 1) > SIZE_BUDGET:
            _check_size(len(a) + len(b) - 2,
                        (top * min(len(a) - a.count(0), len(b) - b.count(0)) - 1).bit_length())
        shift = self._shift + other._shift
        # a monomial c * R^j / 2^s times the other operand is one scaled shift
        mono, rest = (b, a) if b.count(0) == len(b) - 1 else (a, b)
        if mono.count(0) == len(mono) - 1:
            return _normalised([*mono[:-1], *map(mono[-1].__mul__, rest)], shift)
        # each non-zero coefficient of b takes one pass over a.  Loop over a instead
        # when that takes fewer steps, as for a long sparse a such as R^m + 1; with
        # b at most 8 long, b's loop is at most 8 passes and is kept uncounted.
        if len(b) > 8 and (len(a) - a.count(0)) * len(b) < (len(b) - b.count(0)) * len(a):
            a, b = b, a
        n = len(a)
        out = [0] * (n + len(b) - 1)
        for i in compress(range(len(b)), b):
            out[i:i + n] = map(add, out[i:i + n], map(b[i].__mul__, a))
        return _normalised(out, shift)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if self._ints:  # the coefficients of q^n are at most sum(|c[i]|)^n
            _check_size(n * self.degree(), n * (sum(map(abs, self._ints)) - 1).bit_length())
        if not n:
            return MorphPoly.constant(1)
        c = self._ints
        if c.count(0) == len(c) - 1:  # (c * R^j / 2^s)^n = c^n * R^(jn) / 2^(sn)
            return _normalised([0] * (n * (len(c) - 1)) + [c[-1] ** n], n * self._shift)
        result = self  # left to right over the bits of n after the leading one
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return div_exact(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return div_exact(other, self)

    def __eq__(self, other):
        if isinstance(other, Fraction) and other.denominator & (other.denominator - 1):
            return False  # a non power-of-two denominator is no quantity's value
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._ints == other._ints and self._shift == other._shift

    def __hash__(self):
        c = self._ints
        if len(c) <= 1:  # a constant equals its value, so hashes as it
            return hash(Fraction(c[0], 1 << self._shift) if c else 0)
        return hash((c, self._shift))

    def __bool__(self):
        return bool(self._ints)

    def __repr__(self):
        return f"MorphPoly({render(self, 'r')!r})"

    def __str__(self):
        return render(self, "r")


R = MorphPoly.line()
P = MorphPoly.halfline()


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
    # Long division of the ints, keeping mult * num_ints == quo * den_ints + rem.
    # A top coefficient that the lead does not divide scales rem and quo by
    # |lead|/gcd, so a power-of-two lead only ever scales by powers of two.
    rem = list(num._ints)
    low = den._ints[:-1]
    lead = den._ints[-1]
    quo = [0] * max(len(rem) - len(low), 0)
    mult = 1
    for k in range(len(quo) - 1, -1, -1):
        top = rem.pop()
        if not top:
            continue
        f, r = divmod(top, lead)
        if r:
            m = abs(lead) // gcd(top, lead)
            mult *= m
            rem = [c * m for c in rem]
            quo = [c * m for c in quo]
            f = top * m // lead
        quo[k] = f
        if low:
            rem[k:] = map(sub, rem[k:], map(f.__mul__, low))
    if any(rem):
        while not rem[-1]:  # the view costs the square of the length it is given
            rem.pop()
        try:
            rem, shift = _halfline_ints(rem, num._shift)
        except SizeLimitExceeded:  # too large to write out, so named by its degree
            raise NonZeroRemainder(f"non-zero remainder of degree {len(rem) - 1}") from None
        mult <<= shift  # the remainder is sum(rem[e] * Rp^e) / mult
        raise NonZeroRemainder(
            f"non-zero remainder {_render_terms(_powers(rem, 'Rp'), mult)}",
            remainder={e: Fraction(c, mult) for e, c in enumerate(rem) if c},
        )
    # The quotient is quo * 2^(den shift - num shift) / mult.  Long division
    # scales by an odd factor only where a quotient coefficient has it in its
    # denominator, and the last such coefficient keeps it, so an odd factor of
    # mult means a non-dyadic quotient.
    twos = (mult & -mult).bit_length() - 1
    if mult >> twos > 1:
        raise NonZeroRemainder(
            "quotient needs non power-of-two denominators; no quantity solution"
        )
    shift = num._shift + twos - den._shift
    if shift < 0:
        quo = [c << -shift for c in quo]
        shift = 0
    return _normalised(quo, shift)


def evaluate_at(q: MorphPoly, r_value) -> Fraction:
    """Exact value of q at R = r_value, by Horner in R."""
    a, b = Fraction(r_value).as_integer_ratio()
    c = q._ints
    if not c:
        return Fraction(0)
    # Horner over Z: sum c[i] * a^i * b^(d - i), over b^d * 2^shift
    total, scale = c[-1], 1
    for x in reversed(c[:-1]):
        scale *= b
        total = total * a + x * scale
    return Fraction(total, scale << q._shift)


def euler(q: MorphPoly):
    """Euler characteristic: the value at R = -1.  Integer for integer quantities."""
    value = evaluate_at(q, -1)
    return value.numerator if value.denominator == 1 else value


def dimension(q: MorphPoly) -> int:
    if q.is_zero():
        raise ZeroQuantity("the zero quantity has no dimension")
    return q.degree()


# -- classification -----------------------------------------------------


class Classification(NamedTuple):  # the field order is the order `morphcalc classify` prints
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

    integer_type = q._shift == 0 and q._ints[-1] >= 1
    integrable = integer_type and min(q._ints) >= 0
    if integrable:  # non-negative integers in R stay so in Rp = (R - 1)/2
        is_object = semi = True
    elif q._ints[-1] < 0:  # the leading halfline coefficient is c_d * 2^d / 2^s, as negative
        is_object = semi = False
    else:
        p_ints, p_shift = _halfline_ints(q._ints, q._shift)
        is_object = p_shift == 0 and p_ints[-1] >= 1
        semi = is_object and min(p_ints) >= 0

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


class SemiIntegralForm(NamedTuple):
    """Representation sum(c * Rp^p * R^r) with positive integer c and minimal max p."""

    terms: tuple  # ((p_exp, r_exp, coeff), ...) sorted by (p desc, r desc)
    j_max: int

    def quantity(self) -> MorphPoly:
        return sum((c * P ** p * R ** r for p, r, c in self.terms), MorphPoly.zero())


def _dp_min_rep(c, j_bound: int, tried: list):
    """The best representation of sum(c[i] * Rp^i) with halfline exponent <= j_bound, or None.

    c are the non-negative halfline ints of a semi-integrable quantity, as
    `semi_integral_minimal` reads them from its one view.

    Best means: minimal sum of coefficients on terms with p > 0, then the
    lexicographically smallest coefficient vector with terms ordered by
    (p desc, r desc).  Found by one dynamic program over R-degree; the tests
    check it against an exhaustive search.

    Sweep r = 0..degree.  The terms chosen with R-exponent < r leave
    q - (their sum) = R^r * E, with E an integer polynomial in Rp (E = q at
    r = 0).  Step r takes a_p * Rp^p * R^r off for p <= J and divides the
    rest by R = 2*Rp + 1: E - sum(a_p * Rp^p) = R * E'.  From the top down,
    E'_(k-1) = (E_k - a_k - E'_k) / 2, so above J the quotient is forced,
    below it each E'_(k-1) in 0..min((E_k - E'_k) // 2, E_(k-1)) fixes a_k,
    and a_0 = E_0 - E'_0 is what remains.  Every E' must stay >= 0, because
    the terms still to come have non-negative halfline coefficients.  All
    states of one step share E' from index J up, so a step has at most one
    state per E'_0..E'_(J-1).

    The objective is one exact integer cost: a unit of a_(p,r) with p > 0
    costs big + w(p, r), where w are mixed-radix weights over the bounds
    a_(p,r) <= min_j c_(p+j) // (C(r, j) * 2^j) in (p desc, r desc) order and
    big exceeds every sum of weights.  The cheapest path is then the
    minimal p > 0 sum with its lexicographic tie-break.

    A step keeps only the successors E' in which no E'_k can grow by one.
    Growing E'_k takes 1 from a_k and 2 from a_(k+1), so it needs a_k >= 1
    and a_(k+1) >= 2.  It saves at least 2 * big in this step and costs at
    most big + w in the next one, where the same later choices stay open,
    so the cheapest path never runs through the smaller E'.

    tried is a one-item list that counts the values of E'_(k-1) tried, shared
    by the bounds of one call of `semi_integral_minimal`; past SEARCH_BUDGET
    the search raises MixedFormUnavailable.
    """
    degree = len(c) - 1
    j_bound = min(j_bound, degree)
    weight = {}
    big = 1
    for p in range(1, j_bound + 1):  # least significant first: (p asc, r asc)
        for r in range(degree - p + 1):
            weight[p, r] = big
            big *= min(c[p + j] // (comb(r, j) << j) for j in range(r + 1)) + 1

    steps = []  # per r: E' -> (cost, E, (a_0, ..., a_top))
    states = {tuple(c): (0, None, ())}
    for r in range(degree + 1):
        n = degree - r
        top = min(j_bound, n)
        e = next(iter(states))  # any state: they agree from index J up
        forced = [0] * (n + 1)  # E' with the sentinel E'_n = 0
        for k in range(n, top, -1):
            d = e[k] - forced[k]
            if d < 0 or d & 1:
                return None
            forced[k - 1] = d >> 1
        unit = [0] + [big + weight[p, r] for p in range(1, top + 1)]
        step = {}

        def choose(k, e, new, cost, coeffs):
            # coeffs = (a_(k+1), ..., a_top); skip E' whose E'_k could still grow
            if k:
                d = e[k] - new[k]
                if d < 0:
                    return
                xs = range(min(d >> 1, e[k - 1]) + 1)
                tried[0] += len(xs)
                if tried[0] > SEARCH_BUDGET:
                    raise MixedFormUnavailable(f"the mixed-form search tried {tried[0]} values, "
                                               f"over the search budget of {SEARCH_BUDGET}")
                for x in xs:
                    a = d - 2 * x
                    if a and k < top and coeffs[0] > 1:
                        continue
                    new[k - 1] = x
                    choose(k - 1, e, new, cost + a * unit[k], (a, *coeffs))
                return
            a0 = e[0] - new[0] if n else e[0]
            if a0 < 0 or a0 and top and coeffs[0] > 1:
                return
            key = tuple(new[:n])
            old = step.get(key)
            if old is None or cost < old[0]:
                step[key] = (cost, e, (a0, *coeffs))

        for e, (cost, _, _) in states.items():
            choose(top, e, list(forced), cost, ())
        if not step:
            return None
        steps.append(step)
        states = step

    terms = []
    e = ()
    for r in range(degree, -1, -1):
        _, e, coeffs = steps[r][e]
        terms.extend((p, r, a) for p, a in enumerate(coeffs) if a)
    return tuple(sorted(terms, reverse=True))


def semi_integral_minimal(q: MorphPoly) -> SemiIntegralForm:
    """The minimal-j halfline representation of a semi-integrable quantity.

    Reads one halfline view, after refusing the zero quantity and a negative
    leading R-coefficient without one, and raises NotSemiIntegrable unless
    that view has shift 0 and no negative coefficient.  Then tries j = s,
    s + 1, ... with `_dp_min_rep` on the view, s the shift of q; the first
    feasible bound wins, and is j_max.  A term c * Rp^p * R^r is
    c * (R - 1)^p * R^r / 2^p, so a sum of terms with p <= j has
    R-coefficients in 2^-j Z, and no j below the denominator exponent s is
    feasible; the form found at bound j uses p = j, since no bound below it
    is feasible.  The values the search tries are counted over all bounds,
    and past SEARCH_BUDGET it raises MixedFormUnavailable (exit 4).
    """
    if q._ints and q._ints[-1] > 0:  # so has the leading halfline coefficient
        c, shift = _halfline_ints(q._ints, q._shift)
        if not shift and min(c) >= 0:
            tried = [0]  # values of E' tried, over every bound
            for j in range(q._shift, len(c)):
                found = _dp_min_rep(c, j, tried)
                if found is not None:
                    return SemiIntegralForm(terms=found, j_max=j)
    raise NotSemiIntegrable(f"{render(q, 'r')} is not semi-integrable")


# -- rendering -----------------------------------------------------------

BASES = ("r", "p", "mixed")  # the names `render` takes, in the order they are offered


def _power(var: str, e: int) -> str:
    return f"{var}^{e}" if e > 1 else var if e else ""


def _powers(ints, var):
    """(c, monomial) pairs of sum(ints[e] * var^e), by descending e."""
    return ((ints[e], _power(var, e)) for e in range(len(ints) - 1, -1, -1) if ints[e])


def _render_terms(terms, den: int = 1) -> str:
    """Text of sum(c * monomial) / den over (int c, monomial text) pairs in print order.

    The one int -> text conversion: each c/den is reduced by one gcd.  A
    coefficient over Python's int/str digit limit raises SizeLimitExceeded.
    """
    out = []
    for c, mono in terms:
        a = abs(c)
        if a == den:
            body = mono or "1"
        else:
            g = gcd(a, den)
            try:
                mag = f"{a // g}/{den // g}" if g < den else str(a // g)
            except ValueError:
                raise SizeLimitExceeded(
                    "a coefficient exceeds Python's int/str digit limit") from None
            body = f"{mag}*{mono}" if mono else mag
        out.append(f" + {body}" if c > 0 else f" - {body}")
    text = "".join(out)
    return text[3:] if text[1] == "+" else f"0{text}"


def render(q: MorphPoly, basis: str = "r") -> str:
    """Deterministic text form of a quantity in the chosen basis.

    basis "r": powers of R, descending (half-integral coefficients exact).
    basis "p": powers of Rp, descending.
    basis "mixed": the minimal semi-integral form c * Rp^j * R^k.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if q.is_zero():
        return "0"
    if basis == "r":
        return _render_terms(_powers(q._ints, "R"), 1 << q._shift)
    if basis == "p":
        ints, shift = _halfline_ints(q._ints, q._shift)
        return _render_terms(_powers(ints, "Rp"), 1 << shift)
    try:
        form = semi_integral_minimal(q)
    except NotSemiIntegrable as exc:
        raise MixedFormUnavailable(str(exc)) from exc
    return _render_terms(
        (c, "*".join(filter(None, (_power("Rp", p), _power("R", r))))) for p, r, c in form.terms
    )
