"""Stability normal forms for cell complexes under the rewrite R^j = 2*R^j + R^(j-1).

A cell complex is a quantity with non-negative integer R-coefficients and a
positive leading coefficient.  Both rewrite directions preserve the dimension
and the Euler characteristic, and every complex reduces to exactly one of
a * R^n (a >= 1) or R^n + b * R^(n-1) (b >= 1).  The closed form here reads
that final shape off the preserved pair; `rewrite_reachable` is the oracle
that certifies it by an explicit rewrite path.  Every rewrite can be undone by
the other direction, so the rewrite graph is undirected, and a path between
two complexes may be built or searched for from both ends at once.

The oracle answers first with a certificate: `_reduce` walks each end to its
final shape by the rewrite rule alone, applying each rewrite only where its
guard holds and counting runs of equal rewrites in one step.  When both walks
end at the same complex within step_bound rewrites together, the first walk
followed by the second read backwards is a path the search would also find.
The walk never reads the closed form or the Euler characteristic.  Only when
the certificate does not fit the bound does the oracle run a bidirectional
breadth-first search, which is exact at the shortest path length.

The search stores each state as one int, coefficient c_j in a w-bit field j,
so a rewrite is one add or subtract of one unit in fields j and j-1.  No field
overflows: every rewrite moves the total number of cells by exactly 2, so
within step_bound layers no count exceeds max(total1, total2) + 2*step_bound,
which w is chosen to hold; and a rewrite subtracts only from fields its guard
has checked to be at least 1 (at least 2 for c_j), so none borrows.
`rewrite_neighbors` stays as the tuple form of the same rule.
"""

from __future__ import annotations

from typing import NamedTuple

from .quantity import (  # noqa: F401  (dimension is re-exported)
    MorphError,
    MorphPoly,
    _normalised,
    dimension,
    euler,
    render,
)


class InvalidComplex(MorphError):
    pass


class BoundExceeded(MorphError):
    """The search hit its step bound with the frontier still open."""


class CellComplex:
    """Coefficient vector a0..an (leading first), a0 >= 1, the rest >= 0."""

    __slots__ = ("_by_exp",)

    def __init__(self, source):
        if isinstance(source, CellComplex):
            self._by_exp = source._by_exp
            return
        if isinstance(source, MorphPoly):
            if source.is_zero():
                raise InvalidComplex("the zero quantity is not a cell complex")
            if source._shift or min(source._ints) < 0:  # not integrable, see `classify`
                raise InvalidComplex(
                    "a cell complex needs non-negative integer R-coefficients "
                    "with positive leading coefficient"
                )
            self._by_exp = source._ints  # integrable: shift 0, ints >= 0
            return
        source = list(source)  # leading first
        try:
            coeffs = [int(c) for c in source]
        except (TypeError, ValueError, OverflowError):
            coeffs = None
        if coeffs != source:
            raise InvalidComplex("cell counts must be integers")
        if not coeffs or coeffs[0] < 1 or any(c < 0 for c in coeffs):
            raise InvalidComplex("leading coefficient must be >= 1, the rest >= 0")
        self._by_exp = tuple(reversed(coeffs))

    @property
    def coefficients(self) -> tuple:
        return tuple(reversed(self._by_exp))

    def quantity(self) -> MorphPoly:
        return _normalised(self._by_exp, 0)

    def dimension(self) -> int:
        return len(self._by_exp) - 1

    def euler(self) -> int:
        return sum(c if j % 2 == 0 else -c for j, c in enumerate(self._by_exp))

    def total(self) -> int:
        return sum(self._by_exp)

    def __eq__(self, other):
        return isinstance(other, CellComplex) and self._by_exp == other._by_exp

    def __hash__(self):
        return hash(self._by_exp)

    def __repr__(self):
        return f"CellComplex({list(self.coefficients)})"


class NormalForm(NamedTuple):
    dimension: int
    kind: str  # "pure_top" -> count * R^n, "top_plus" -> R^n + count * R^(n-1)
    count: int

    def quantity(self) -> MorphPoly:
        n, count = self.dimension, self.count
        if self.kind == "pure_top":
            return _normalised([0] * n + [count], 0)
        return _normalised([0] * (n - 1) + [count, 1], 0)

    def describe(self) -> str:
        return render(self.quantity(), "r")


def stable_normal_form(c) -> NormalForm:
    """Final shape of a cell complex, read off (dimension, Euler characteristic)."""
    c = c if isinstance(c, CellComplex) else CellComplex(c)
    n = c.dimension()
    e = c.euler()
    sign = -1 if n % 2 else 1
    a = sign * e
    if a >= 1:
        return NormalForm(dimension=n, kind="pure_top", count=a)
    b = 1 - a
    return NormalForm(dimension=n, kind="top_plus", count=b)


def rewrite_neighbors(state: tuple):
    """States one rewrite away; `state` indexed by R-exponent, ascending."""
    n = len(state) - 1
    out = []
    for j in range(1, n + 1):
        if state[j] >= 1:
            t = list(state)
            t[j] += 1
            t[j - 1] += 1
            out.append(tuple(t))
        if state[j] >= 2 and state[j - 1] >= 1:
            t = list(state)
            t[j] -= 1
            t[j - 1] -= 1
            out.append(tuple(t))
    return out


def default_step_bound(c: CellComplex) -> int:
    return 10 * c.total()


def rewrite_reachable(q1, q2, step_bound=None) -> bool:
    """Can q2 be rewritten from q1 within step_bound steps?

    Every rewrite is reversible, so a path from q1 to q2 read backwards is one
    from q2 to q1.  The certificate answers first: when `_reduce` takes both
    ends to the same complex in at most step_bound rewrites together, the
    answer is True with no search.  Otherwise a bidirectional breadth-first
    search keeps a seen set and a frontier for each end, grows the smaller
    frontier by one layer at a time, and stops when a new state is one the
    other end has seen.

    Returns False definitively when an invariant rules reachability out or a
    component is exhausted; raises BoundExceeded when step_bound layers have
    been grown with both frontiers still open.
    """
    c1 = q1 if isinstance(q1, CellComplex) else CellComplex(q1)
    c2 = q2 if isinstance(q2, CellComplex) else CellComplex(q2)
    if step_bound is None:
        step_bound = default_step_bound(c1)
    if step_bound < 1:
        raise ValueError("step_bound must be positive")
    if c1 == c2:
        return True
    if c1.dimension() != c2.dimension() or c1.euler() != c2.euler():
        return False

    layers = range(step_bound)  # TypeError for a step_bound that is not an int
    # the certificate: one end's walk, then the other's read backwards
    end1, steps1 = _reduce(c1._by_exp)
    end2, steps2 = _reduce(c2._by_exp)
    if end1 == end2 and steps1 + steps2 <= step_bound:
        return True

    # the search: each state is one int, c_j in field j of w bits (see the module docstring)
    w = (max(c1.total(), c2.total()) + 2 * step_bound).bit_length()
    moves = []  # per j: field j's mask, 2 in field j, field j-1's mask, one in each
    for j in range(1, len(c1._by_exp)):
        unit = 1 << (w * j)
        moves.append(((unit << w) - unit, unit << 1, unit - (unit >> w), unit | unit >> w))
    # one seen set and one frontier per end; the two depths add up to the
    # layers grown, so growing step_bound layers covers every path that long
    seen = [{_pack(c1._by_exp, w)}, {_pack(c2._by_exp, w)}]
    frontier = [list(seen[0]), list(seen[1])]
    for _ in layers:
        side = len(frontier[1]) < len(frontier[0])
        mine, other = seen[side], seen[not side]
        layer = []
        for state in frontier[side]:
            for top, two, below, d in moves:
                count = state & top
                if not count:
                    continue
                nxt = state + d
                if nxt in other:
                    return True
                if nxt not in mine:
                    mine.add(nxt)
                    layer.append(nxt)
                if count >= two and state & below:
                    nxt = state - d
                    if nxt in other:
                        return True
                    if nxt not in mine:
                        mine.add(nxt)
                        layer.append(nxt)
        if not layer:
            return False
        frontier[side] = layer
    raise BoundExceeded(f"no rewrite path of length <= {step_bound} found")


def _pack(by_exp, w) -> int:
    """The coefficients c_0, c_1, ... as one int, c_j in bits [w*j, w*(j+1))."""
    return sum(c << (w * j) for j, c in enumerate(by_exp))


def _reduce(by_exp) -> tuple:
    """Rewrite one complex to its final shape: (end coefficients by exponent, rewrites).

    For j = 1..n, c_(j-1) is cleared by down-rewrites at j, each needing
    c_j >= 2 and c_(j-1) >= 1.  Below the top, c_j is first raised to
    c_(j-1) + 1 by up-rewrites at j + 1, each needing c_(j+1) >= 1; when
    c_(j+1) is 0, one up-rewrite at each exponent from the first non-zero
    coefficient above down to j + 2 makes it 1.  Nothing raises c_n, so at
    j = n the down-rewrites stop at c_n = 1 when c_(n-1) is too large.  No
    rewrite touches an exponent below j, so cleared coefficients stay 0.
    """
    c = list(by_exp)
    n = len(c) - 1
    steps = 0
    for j in range(1, n + 1):
        if not c[j - 1]:
            continue
        need = c[j - 1] + 1 - c[j]
        if need > 0 and j < n:
            if not c[j + 1]:
                top = next(i for i in range(j + 2, n + 1) if c[i])
                for i in range(top, j + 1, -1):
                    c[i] += 1
                    c[i - 1] += 1
                steps += top - j - 1
            c[j + 1] += need
            c[j] += need
            steps += need
        down = min(c[j - 1], c[j] - 1)
        c[j] -= down
        c[j - 1] -= down
        steps += down
    return tuple(c), steps
