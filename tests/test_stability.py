import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from morphcalc import stability
from morphcalc.quantity import MorphPoly, evaluate_at
from morphcalc.stability import (
    BoundExceeded,
    CellComplex,
    InvalidComplex,
    NormalForm,
    _reduce,
    default_step_bound,
    dimension,
    rewrite_neighbors,
    rewrite_reachable,
    stable_normal_form,
)

from oracles import normal_form_euler

R = MorphPoly.line()
P = MorphPoly.halfline()


def test_dimension():
    assert dimension(2 * R ** 2 + 2 * R + 2) == 2
    assert dimension(P) == 1
    assert dimension(MorphPoly.constant(7)) == 0


def test_cell_complex_rejects_non_integral_counts():
    from fractions import Fraction

    for coeffs in ([Fraction(3, 2)], [1.9, 0.9], [1, 0.5], ["1"], [float("inf")], [None]):
        with pytest.raises(InvalidComplex):
            CellComplex(coeffs)
    with pytest.raises(InvalidComplex):
        stable_normal_form([1.9, 0.9])
    assert CellComplex([Fraction(4, 2), 1.0]).coefficients == (2, 1)


def test_cell_complex_validation():
    c = CellComplex(3 * R + 4)
    assert c.coefficients == (3, 4)
    assert c.euler() == 1
    with pytest.raises(InvalidComplex):
        CellComplex(R - 2)
    with pytest.raises(InvalidComplex):
        CellComplex(P)
    with pytest.raises(InvalidComplex):
        CellComplex(MorphPoly.zero())
    with pytest.raises(InvalidComplex):
        CellComplex([0, 1])


def test_normal_form_examples():
    nf = stable_normal_form(3 * R + 4)
    assert nf == NormalForm(dimension=1, kind="top_plus", count=2)
    assert nf.describe() == "R + 2"

    nf = stable_normal_form(3 * R + 1)
    assert nf == NormalForm(dimension=1, kind="pure_top", count=2)
    assert nf.describe() == "2*R"

    nf = stable_normal_form(R ** 2)
    assert nf == NormalForm(dimension=2, kind="pure_top", count=1)
    assert nf.describe() == "R^2"


def test_normal_form_euler_and_dimension_preserved():
    for coeffs in [(3, 4), (1, 0, 5), (2, 3, 1, 2), (1,), (4, 0, 0)]:
        c = CellComplex(coeffs)
        nf = stable_normal_form(c)
        assert nf.dimension == c.dimension()
        assert normal_form_euler(nf) == c.euler()
        assert evaluate_at(nf.quantity(), -1) == c.euler()


def test_normal_form_idempotent():
    for coeffs in [(3, 4), (2, 2, 2), (1, 3, 0, 2)]:
        nf = stable_normal_form(CellComplex(coeffs))
        assert stable_normal_form(CellComplex(nf.quantity())) == nf


def test_rewrite_reachable_examples():
    assert rewrite_reachable(3 * R + 4, R + 2, 10) is True
    assert rewrite_reachable(R ** 2, 2 * R ** 2 + R, 1) is True
    assert rewrite_reachable(R + 2, R + 1, 50) is False  # euler differs


def test_rewrite_bound_exceeded_distinct_from_unreachable():
    with pytest.raises(BoundExceeded):
        rewrite_reachable(3 * R + 4, R + 2, 1)


def test_rewrite_reachable_rejects_a_step_bound_below_one():
    with pytest.raises(ValueError, match="step_bound must be positive"):
        rewrite_reachable(R, R + 1, step_bound=0)


def test_rewrite_neighbors_preserve_invariants():
    state = (3, 1, 2)  # 2R^2 + R + 3
    for nxt in rewrite_neighbors(state):
        assert len(nxt) == len(state)
        assert all(v >= 0 for v in nxt)
        assert nxt[-1] >= 1
        e = lambda s: sum(c if j % 2 == 0 else -c for j, c in enumerate(s))
        assert e(nxt) == e(state)


def test_isolated_points():
    assert rewrite_reachable(MorphPoly.constant(2), MorphPoly.constant(2), 5) is True
    assert rewrite_reachable(MorphPoly.constant(2), MorphPoly.constant(3), 5) is False


def test_default_step_bound():
    assert default_step_bound(CellComplex(3 * R + 4)) == 70


def test_small_enumeration_agrees_with_oracle():
    # all complexes of degree <= 2 with coefficients <= 2: oracle certifies
    # the closed form and rejects every other candidate final form
    for n in range(3):
        import itertools

        for coeffs in itertools.product(*([range(1, 3)] + [range(0, 3)] * n)):
            c = CellComplex(coeffs)
            nf = stable_normal_form(c)
            bound = 2 * c.total() + 6
            assert rewrite_reachable(c, nf.quantity(), bound) is True
            for other in _final_forms(c.dimension(), 5):
                if other != nf:
                    assert rewrite_reachable(c, other.quantity(), bound) is False


def _final_forms(n, max_count):
    forms = [NormalForm(dimension=n, kind="pure_top", count=a) for a in range(1, max_count + 1)]
    if n >= 1:
        forms += [NormalForm(dimension=n, kind="top_plus", count=b) for b in range(1, max_count + 1)]
    return forms


def test_mutual_reachability_iff_same_invariants():
    import itertools

    cases = [
        CellComplex(c)
        for c in itertools.product(range(1, 3), range(0, 3), range(0, 3))
    ]
    groups = {}
    for c in cases:
        groups.setdefault((c.dimension(), c.euler()), []).append(c)
    for (n, e), members in groups.items():
        anchor = members[0]
        for other in members[1:]:
            assert rewrite_reachable(anchor, other, 2 * (anchor.total() + other.total()) + 6)
    keys = list(groups)
    for k1, k2 in itertools.combinations(keys, 2):
        assert rewrite_reachable(groups[k1][0], groups[k2][0], 10) is False


# -- parity with the one-sided search ------------------------------------------


def _one_sided(c1, c2, bound):
    """The layered one-sided breadth-first search: True, False or BoundExceeded."""
    if c1 == c2:
        return True
    if c1.dimension() != c2.dimension() or c1.euler() != c2.euler():
        return False
    goal = tuple(reversed(c2.coefficients))
    seen = {tuple(reversed(c1.coefficients))}
    frontier = list(seen)
    for _ in range(bound):
        layer = []
        for state in frontier:
            for nxt in rewrite_neighbors(state):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    layer.append(nxt)
        if not layer:
            return False
        frontier = layer
    return BoundExceeded


def _outcome(c1, c2, bound):
    try:
        return rewrite_reachable(c1, c2, bound)
    except BoundExceeded:
        return BoundExceeded


def _complexes(n, top=2):
    return [CellComplex(c) for c in itertools.product(range(1, top + 1), *[range(top + 1)] * n)]


def test_bidirectional_search_matches_one_sided_search():
    # every ordered pair of equal length, degree <= 3, coefficients <= 2
    tally = {True: 0, False: 0, BoundExceeded: 0}
    for n in range(4):
        cases = _complexes(n)
        for c1 in cases:
            for c2 in cases:
                for bound in (1, 2, 3, 5, 8):
                    expected = _one_sided(c1, c2, bound)
                    assert _outcome(c1, c2, bound) is expected, (c1, c2, bound)
                    tally[expected] += 1
    assert tally == {True: 2000, False: 13320, BoundExceeded: 1080}


def test_bidirectional_search_is_exact_at_the_shortest_path_length():
    pairs = [(CellComplex(3 * R + 4), CellComplex(R + 2))]  # shortest path 2
    assert _one_sided(*pairs[0], 1) is BoundExceeded and _one_sided(*pairs[0], 2) is True
    for n in range(3):
        cases = _complexes(n)
        pairs += [(c1, c2) for c1 in cases for c2 in cases
                  if c1 != c2 and (c1.dimension(), c1.euler()) == (c2.dimension(), c2.euler())]
    for c1, c2 in pairs:
        d = next(b for b in range(1, 40) if _one_sided(c1, c2, b) is True)
        assert rewrite_reachable(c1, c2, d) is True, (c1, c2, d)
        if d > 1:
            with pytest.raises(BoundExceeded):
                rewrite_reachable(c1, c2, d - 1)


def test_normal_form_certified_at_degree_4():
    cases = _complexes(4)
    assert len(cases) == 162
    for c in cases:
        assert rewrite_reachable(c, stable_normal_form(c).quantity(), 2 * c.total() + 8) is True, c


# -- the packed-int search against the tuple rule --------------------------------

_leading_first = st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.integers(1, 5), *[st.integers(0, 5)] * n))


@settings(max_examples=400, deadline=None)
@given(_leading_first, st.data(), st.integers(1, 8))
def test_packed_search_matches_one_sided_search_up_to_degree_5(coeffs, data, bound):
    # `_one_sided` expands tuples through `rewrite_neighbors`, independent of the
    # packed states; half the targets are a walk of rewrites from the source, so
    # they share its component and test True and BoundExceeded, not only False
    c1 = CellComplex(coeffs)
    if data.draw(st.booleans()):
        state = c1._by_exp
        for _ in range(data.draw(st.integers(0, 10))):
            state = data.draw(st.sampled_from(rewrite_neighbors(state) or [state]))
        c2 = CellComplex(reversed(state))
    else:
        c2 = CellComplex(data.draw(st.tuples(
            st.integers(1, 5), *[st.integers(0, 5)] * c1.dimension())))
    assert _outcome(c1, c2, bound) is _one_sided(c1, c2, bound), (c1, c2, bound)


def test_a_large_step_bound_widens_every_field():
    assert rewrite_reachable(3 * R + 4, R + 2, 10 ** 6) is True
    assert rewrite_reachable([1, 0, 5], [6, 0, 0], 10 ** 6) is True
    assert rewrite_reachable(3 * R + 4, R + 3, 10 ** 6) is False  # Euler differs


def test_large_coefficients_are_exact_at_the_shortest_path_length():
    # R^2 + 60 to 61*R^2 moves one cell up two degrees at a time, 122 rewrites
    c1, d = CellComplex([1, 0, 60]), 122
    c2 = CellComplex(stable_normal_form(c1).quantity())
    assert c2.coefficients == (61, 0, 0)
    assert (_one_sided(c1, c2, d), _one_sided(c1, c2, d - 1)) == (True, BoundExceeded)
    assert rewrite_reachable(c1, c2, d) is True
    assert rewrite_reachable(c2, c1, d) is True
    with pytest.raises(BoundExceeded, match=f"no rewrite path of length <= {d - 1} found"):
        rewrite_reachable(c1, c2, d - 1)


def test_every_accepted_input_kind_gives_the_same_answer():
    sources = [CellComplex([3, 4]), 3 * R + 4, [3, 4], (3, 4)]
    targets = [CellComplex([1, 2]), R + 2, [1, 2], (1, 2)]
    for q1 in sources:
        for q2 in targets:
            assert rewrite_reachable(q1, q2, 2) is True
            assert rewrite_reachable(q2, q1) is True  # default bound, 10 * total
            assert rewrite_reachable(q1, [1, 3], 10) is False
            with pytest.raises(BoundExceeded):
                rewrite_reachable(q1, q2, 1)
            with pytest.raises(ValueError, match="step_bound must be positive"):
                rewrite_reachable(q1, q2, step_bound=0)
    for bad in (R - 2, MorphPoly.zero(), P, [0, 1], [1.5]):
        with pytest.raises(InvalidComplex):
            rewrite_reachable(bad, R + 2, 5)
        with pytest.raises(InvalidComplex):
            rewrite_reachable(R + 2, bad, 5)
    with pytest.raises(TypeError):
        rewrite_reachable(3 * R + 4, R + 2, 2.0)


# -- the certificate: both ends reduced by the rule, then compared ----------------


def _reduced(c):
    end, steps = _reduce(c._by_exp)
    return CellComplex(reversed(end)), steps


def test_the_reduction_ends_at_the_closed_form_by_a_real_path():
    # all 255 complexes of degree <= 3 with coefficients <= 3: the one-sided
    # search, which expands tuples through `rewrite_neighbors`, finds the end
    # within the number of rewrites the reduction counted
    cases = [c for n in range(4) for c in _complexes(n, top=3)]
    assert len(cases) == 255
    for c in cases:
        end, steps = _reduced(c)
        assert end == CellComplex(stable_normal_form(c).quantity()), c
        assert _reduced(end) == (end, 0), c
        assert _one_sided(c, end, max(steps, 1)) is True, (c, steps)


def test_the_reduction_ends_at_the_closed_form_at_degree_4():
    cases = [c for n in range(5) for c in _complexes(n, top=4)]
    assert len(cases) == 3124
    for c in cases:
        assert _reduced(c)[0] == CellComplex(stable_normal_form(c).quantity()), c


def _no_search(*args):
    raise AssertionError("the search ran")


def test_the_certificate_answers_without_the_search(monkeypatch):
    monkeypatch.setattr(stability, "_pack", _no_search)
    assert rewrite_reachable([3, 0, 0, 3], [1, 1, 0, 0]) is True
    with pytest.raises(AssertionError, match="the search ran"):
        rewrite_reachable([3, 0, 0, 3], [1, 1, 0, 0], 1)


def test_a_bound_below_the_certificate_runs_the_exact_search(monkeypatch):
    # the reductions of these two take 10 rewrites together; the shortest path is 4
    c1, c2 = CellComplex([1, 0, 2]), CellComplex([2, 0, 1])
    assert _reduced(c1)[1] + _reduced(c2)[1] == 10
    assert (_one_sided(c1, c2, 4), _one_sided(c1, c2, 3)) == (True, BoundExceeded)
    packed = []
    pack = stability._pack
    monkeypatch.setattr(stability, "_pack", lambda *a: packed.append(a) or pack(*a))
    assert rewrite_reachable(c1, c2, 4) is True
    with pytest.raises(BoundExceeded, match="no rewrite path of length <= 3 found"):
        rewrite_reachable(c1, c2, 3)
    assert len(packed) == 4  # both ends packed by each of the two searches
    assert rewrite_reachable(c1, c2, 10) is True
    assert len(packed) == 4


def test_a_long_reduction_answers_within_a_deadline(monkeypatch):
    # the exhaustive search gives no answer here in minutes; the certificate is
    # 84 rewrites against the default bound of 130, so the search must not run
    monkeypatch.setattr(stability, "_pack", _no_search)
    c = CellComplex([1, 0, 0, 0, 0, 0, 0, 12])
    assert _reduced(c)[1] == 84 and default_step_bound(c) == 130
    start = time.perf_counter()
    assert rewrite_reachable(c, stable_normal_form(c).quantity()) is True
    assert time.perf_counter() - start < 1.0
