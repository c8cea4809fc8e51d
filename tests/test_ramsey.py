import dataclasses
import itertools
import time

import pytest

from finpart import ramsey, suites
from finpart.operators import BudgetExceeded
from finpart.ramsey import (
    ProductColoring,
    RamseyQuery,
    check_witness,
    grid_points,
    has_property,
    search_min_N,
    subgrid,
    upper_bound_R,
)


def test_grid_points():
    pts = grid_points((3, 2), (2, 1))
    assert len(pts) == 3 * 2
    assert pts[0] == ((0, 1), (0,))


def test_check_witness():
    pts = grid_points((4,), (2,))
    colors = {pt: (0 if set(pt[0]) <= {0, 1, 2} else 1) for pt in pts}
    col = ProductColoring((4,), (2,), colors)
    assert check_witness(col, [(0, 1, 2)], 0, r=3)
    assert not check_witness(col, [(1, 2, 3)], 0, r=3)
    with pytest.raises(ValueError, match="size"):
        check_witness(col, [(0, 1)], 0, r=3)
    with pytest.raises(ValueError, match="side"):
        check_witness(col, [(0, 9, 2)], 0)
    with pytest.raises(ValueError, match="number of witness sets"):
        check_witness(col, [(0, 1, 2), (0,)], 0)


@pytest.mark.parametrize("call, message", [
    (lambda: RamseyQuery((1,), 0, 2), "at least one color"),
    (lambda: RamseyQuery((1,), 2, -1), "non-negative"),
    (lambda: RamseyQuery((-1,), 2, 2), "non-negative"),
    (lambda: has_property((5, 5), RamseyQuery((2,), 2, 3)), "sizes/arity mismatch"),
], ids=["no-colors", "negative-r", "negative-j", "sizes-arity"])
def test_bad_query_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_coloring_must_be_total():
    with pytest.raises(ValueError, match="total"):
        ProductColoring((3,), (2,), {((0, 1),): 0})


def test_triangle_threshold():
    q = RamseyQuery((2,), 2, 3)
    assert not has_property((5,), q).holds
    assert has_property((6,), q).holds
    res = search_min_N(q, cap=7)
    assert res.value == 6
    assert res.counterexample_N == 5
    # the certificate really has no monochromatic triangle
    col = ProductColoring((5,), (2,), res.counterexample)
    assert not any(
        check_witness(col, [T], d)
        for T in itertools.combinations(range(5), 3)
        for d in range(2)
    )


def test_counterexample_replays():
    q = RamseyQuery((2,), 2, 3)
    res = has_property((5,), q)
    assert not res.holds
    col = ProductColoring((5,), (2,), res.counterexample)
    assert not any(
        check_witness(col, [T], d)
        for T in itertools.combinations(range(5), 3)
        for d in range(2)
    )


def test_pigeonhole_exact():
    for c in (1, 2, 3):
        for r in (1, 2, 3, 4):
            q = RamseyQuery((1,), c, r)
            expect = c * (r - 1) + 1
            assert search_min_N(q, cap=expect + 1).value == expect, (c, r)
    # a cap below the answer: no value, and the counterexample at the cap
    res = search_min_N(RamseyQuery((1,), 2, 3), cap=3)
    assert res.value is None and res.counterexample_N == 3


def test_prune_agrees_with_no_prune():
    cases = [((2,), (N,), 2, 3) for N in (3, 4, 5)]
    # grids where the counting bound may answer first: (1,1) up to 5x5 and
    # the rectangle reach grids with up to 2 colours, pigeonhole up to N = 10
    grids = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    grids += [(3, 7), (4, 6), (6, 4)]
    cases += [((1, 1), sizes, c, r) for sizes in grids for c in (1, 2)
              for r in range(1, min(sizes) + 1)]
    cases += [((1,), (N,), c, r) for N in range(1, 11) for c in (1, 2, 3)
              for r in range(1, 5)]
    for j, sizes, c, r in cases:
        q = RamseyQuery(j, c, r)
        a = has_property(sizes, q, prune=True)
        b = has_property(sizes, q, prune=False)
        assert a.holds == b.holds, (j, sizes, c, r)
        assert a.searched <= b.searched


def test_product_grid_small():
    # two 1-uniform coordinates, 2 colors, target 2: a monochromatic
    # 2x2 sub-grid is a combinatorial rectangle, avoidable up to 4x4
    # (e.g. by the identity matrix at 3x3)
    q = RamseyQuery((1, 1), 2, 2)
    for N in (2, 3, 4):
        res = has_property((N, N), q)
        assert not res.holds, N
        # replay the counterexample: no rectangle is monochromatic
        col = ProductColoring((N, N), (1, 1), res.counterexample)
        assert not any(
            check_witness(col, [T1, T2], d)
            for T1 in itertools.combinations(range(N), 2)
            for T2 in itertools.combinations(range(N), 2)
            for d in range(2)
        )


def no_rectangle(N1, N2, colors):
    """Replay a 2-colouring of the N1 x N2 grid: no combinatorial rectangle
    is monochromatic."""
    col = ProductColoring((N1, N2), (1, 1), colors)
    return not any(
        check_witness(col, [T1, T2], d, r=2)
        for T1 in itertools.combinations(range(N1), 2)
        for T2 in itertools.combinations(range(N2), 2)
        for d in range(2)
    )


def test_rectangle_reach():
    # Fenner, Gasarch, Glover, Purewal, arXiv:1005.3750: 5x5 and 3x7 are in
    # the 2-colour obstruction set, 4x6 and 6x4 are 2-colourable
    q = RamseyQuery((1, 1), 2, 2)
    res = search_min_N(q, cap=5)
    assert res.value == 5 and res.counterexample_N == 4
    assert no_rectangle(4, 4, res.counterexample)
    for sizes in ((5, 5), (3, 7)):
        assert has_property(sizes, q).holds, sizes
    for sizes in ((4, 6), (6, 4)):
        res = has_property(sizes, q)
        assert not res.holds, sizes
        assert no_rectangle(*sizes, res.counterexample)


def test_deep_grid():
    # 1770 points, deeper than the interpreter's recursion limit; R(3,3) = 6
    assert has_property((60,), RamseyQuery((2,), 2, 3)).holds


def test_small_witness_regimes():
    # r larger than the side: impossible
    assert not has_property((2,), RamseyQuery((2,), 2, 3)).holds
    # r <= j: a single grid point is the whole sub-grid
    assert has_property((3,), RamseyQuery((2,), 2, 2)).holds
    # empty grid with witnesses: vacuous
    res = has_property((2,), RamseyQuery((3,), 2, 2))
    assert res.holds
    # r < j: a witness's sub-grid has no points, so it holds unsearched
    res = has_property((5,), RamseyQuery((3,), 2, 2))
    assert res.holds and res.searched == 0
    assert res.note == "vacuous witness (empty sub-grid)"


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        has_property((6,), RamseyQuery((2,), 2, 3), max_colorings=10)


def test_hopeless_grid_refused_before_building():
    # 34,220 witness masks against a budget of 10,000: refused at once
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded, match="witnesses"):
        has_property((60,), RamseyQuery((2,), 2, 3), max_colorings=10_000)
    assert time.monotonic() - t0 < 5


def test_upper_bounds_sufficient():
    checked = 0
    for j, c, r in [(0, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2),
                    (3, 2, 3)]:
        q = RamseyQuery((j,), c, r)
        ub = upper_bound_R(q)
        try:
            res = has_property((ub,), q)
        except BudgetExceeded:
            continue
        checked += 1
        assert res.holds, (j, c, r, ub)
    assert checked >= 4


def test_upper_bound_values():
    assert upper_bound_R(RamseyQuery((2,), 2, 3)) == 6
    assert upper_bound_R(RamseyQuery((1,), 3, 4)) == 10
    assert upper_bound_R(RamseyQuery((1, 1), 2, 2)) >= 3
    assert upper_bound_R(RamseyQuery((), 2, 3)) == 3


def test_single_colour_bound_is_a_side_that_holds():
    # with one colour every r-subset is monochromatic, so r is exact; the
    # step-down used to answer j < r for j >= 3
    for j in range(6):
        for r in range(8):
            q = RamseyQuery((j,), 1, r)
            ub = upper_bound_R(q)
            assert has_property((ub,), q).holds, (j, r, ub)


def recurrence_oracle(rvec):
    """The graph recurrence R(r-bar) <= 2 - c + sum_i R(r-bar - e_i) by
    plain recursion: a target of 2 drops its color, one color left needs
    its own target."""
    rvec = tuple(sorted(rvec))
    if rvec and rvec[0] == 2:
        return recurrence_oracle(rvec[1:])
    if len(rvec) <= 1:
        return rvec[0] if rvec else 2
    return 2 - len(rvec) + sum(
        recurrence_oracle(rvec[:i] + (rvec[i] - 1,) + rvec[i + 1:])
        for i in range(len(rvec))
    )


def test_graph_bound_matches_recurrence():
    for c in (1, 2, 3):
        for r in range(3, 9 - c):
            assert ramsey._graph_bound(c, r) == recurrence_oracle((r,) * c), (c, r)
    assert ramsey._graph_bound(2, 4) == 20  # R(4, 4) <= 20


def test_bounds_refuse_before_computing(monkeypatch):
    monkeypatch.setattr(ramsey, "_GRAPH_WORK", 100)
    assert ramsey._graph_bound(3, 5) == recurrence_oracle((5, 5, 5))  # 60 steps
    with pytest.raises(BudgetExceeded, match="recurrence"):
        ramsey._graph_bound(3, 6)  # 3 * C(7, 3) = 105 steps
    monkeypatch.setattr(ramsey, "_BOUND_BITS", 100)
    assert ramsey._power(2, 99) == 2**99
    assert ramsey._power(1, 10**100) == 1
    with pytest.raises(BudgetExceeded, match="bits"):
        ramsey._power(3, 64)  # 64 log2(3) = 101.4 bits


def test_subgrid():
    pts = subgrid([(0, 2), (1, 3)], (1, 1))
    assert ((0,), (1,)) in pts and ((2,), (3,)) in pts
    assert len(pts) == 4


# (j, sizes, r) -> (holds, searched, pruned, counterexample colours in
# grid_points order) of the 2-colour search, recorded before the witness
# masks were built as products of per-axis masks; the search tree must not
# change under a faster kernel.  The (5,5) and (3,7) rows are answered by
# counting before any search, so their trees are pinned on _search itself.
PINNED_TREES = {
    ((1, 1), (4, 4), 2): (False, 54, 8, (0, 0, 0, 1, 0, 1, 1, 0,
                                         1, 0, 1, 0, 1, 1, 0, 0)),
    ((1, 1), (5, 5), 2): (True, 312, 70, None),
    ((1, 1), (3, 7), 2): (True, 417, 105, None),
    ((1, 1), (4, 6), 2): (False, 195, 36, (0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1,
                                           1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0)),
    ((2,), (5,), 3): (False, 46, 4, (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)),
    ((2,), (6,), 3): (True, 120, 22, None),
}

# (j, sizes, c, r) -> U: grids the counting bound answers at the root, where
# c * U is below the number of points
ROOT_DECISIONS = {
    ((1, 1), (5, 5), 2, 2): 12,
    ((1, 1), (3, 7), 2, 2): 10,
    ((1, 1), (7, 3), 2, 2): 10,
    ((1, 1), (11, 11), 3, 2): 40,
    ((1, 1), (60, 60), 2, 2): 491,
    ((1,), (10,), 3, 4): 3,
}


def pinned_id(case):
    j, sizes, r = case[0], case[1], case[-1]
    return f"j{''.join(map(str, j))}-{'x'.join(map(str, sizes))}-r{r}"


def root_id(case):
    return f"{pinned_id(case)}-c{case[2]}"


@pytest.mark.parametrize("case", PINNED_TREES, ids=pinned_id)
def test_search_tree_is_pinned(case):
    j, sizes, r = case
    want = PINNED_TREES[case]
    P = len(grid_points(sizes, j))
    ends = ramsey._witness_masks(sizes, j, r)
    gens = ramsey._transposition_pairs(sizes, j)
    color, searched, pruned = ramsey._search(P, 2, ends, gens, 1, 10**6)
    got = None if color is None else tuple(color)
    assert (color is None, searched, pruned, got) == want
    # the budget counts every node: the total suffices, one less does not
    total = searched + pruned
    assert ramsey._search(P, 2, ends, gens, 1, total)[1:] == (searched, pruned)
    with pytest.raises(BudgetExceeded, match="search exceeds"):
        ramsey._search(P, 2, ends, gens, 1, total - 1)
    q = RamseyQuery(j, 2, r)
    res = has_property(sizes, q)
    if (j, sizes, 2, r) in ROOT_DECISIONS:
        assert (res.holds, res.searched, res.pruned) == (True, 0, 0)
        return
    cex = res.counterexample
    got = None if cex is None else tuple(cex[pt] for pt in grid_points(sizes, j))
    assert (res.holds, res.searched, res.pruned, got) == want
    assert has_property(sizes, q, max_colorings=total) == res
    with pytest.raises(BudgetExceeded, match="search exceeds"):
        has_property(sizes, q, max_colorings=total - 1)


@pytest.mark.parametrize("case", ROOT_DECISIONS, ids=root_id)
def test_counting_decides_at_the_root(case):
    j, sizes, c, r = case
    U = ROOT_DECISIONS[case]
    assert ramsey._class_bound(sizes, j, r) == U
    P = len(grid_points(sizes, j))
    res = has_property(sizes, RamseyQuery(j, c, r))
    assert (res.holds, res.searched, res.pruned) == (True, 0, 0)
    assert res.note == (f"counting: {c} colors of at most {U} points each "
                        f"cover fewer than {P} points")
    # decided before the mask budget and before any mask is built
    assert has_property(sizes, RamseyQuery(j, c, r), max_colorings=0) == res


def test_counting_answers_a_grid_the_budget_refuses_unpruned():
    q = RamseyQuery((1, 1), 2, 2)
    assert has_property((60, 60), q).holds
    with pytest.raises(BudgetExceeded, match="witnesses"):
        has_property((60, 60), q, prune=False)


def largest_witness_free(m, n, r):
    """Most points of the m x n grid (point (x, y) at bit x * n + y) with no
    r x r combinatorial sub-grid inside them, by trying every point set."""
    witnesses = [
        sum(1 << x * n + y for x in T1 for y in T2)
        for T1 in itertools.combinations(range(m), r)
        for T2 in itertools.combinations(range(n), r)
    ]
    return max(bin(s).count("1") for s in range(1 << m * n)
               if not any(s & w == w for w in witnesses))


def test_class_bound_is_sound():
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            for r in (1, 2, 3):
                U = ramsey._class_bound((m, n), (1, 1), r)
                assert U >= largest_witness_free(m, n, r), (m, n, r, U)
    for N in range(1, 8):
        for r in (1, 2, 3):
            # any r points of one colour are a witness
            assert ramsey._class_bound((N,), (1,), r) >= min(r - 1, N)
    assert ramsey._class_bound((5,), (2,), 3) is None


# Planted faults in what `verify ramsey` checks: each must surface as a
# witness, with the counters still counting what was checked.
PASSING_PIGEONHOLE = {f"c={c},r={r}": c * (r - 1) + 1
                      for c in (1, 2, 3) for r in (1, 2, 3, 4)}


def _planted_search(monkeypatch, target, fault):
    real = ramsey.search_min_N

    def planted(query, cap, max_colorings):
        res = real(query, cap, max_colorings=max_colorings)
        return fault(res) if query == target else res

    monkeypatch.setattr(ramsey, "search_min_N", planted)


@pytest.mark.parametrize("fault, value", [
    (lambda res: dataclasses.replace(res, value=5), 5),
    # every point of the certificate in one colour holds a triangle
    (lambda res: dataclasses.replace(
        res, counterexample=dict.fromkeys(res.counterexample, 0)), 6),
], ids=["value", "certificate"])
def test_suite_ramsey_reports_a_wrong_triangle_number(monkeypatch, fault,
                                                      value):
    _planted_search(monkeypatch, RamseyQuery((2,), 2, 3), fault)
    rep = suites.suite_ramsey(10 ** 6)
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.witnesses == [{"query": "(j=2,c=2,r=3)", "value": value,
                              "certificate_valid": False}]
    assert rep.counters == {"min_N_triangle": value,
                            "pigeonhole": PASSING_PIGEONHOLE,
                            "bounds_validated": 8}


def test_suite_ramsey_reports_a_wrong_pigeonhole_number(monkeypatch):
    _planted_search(monkeypatch, RamseyQuery((1,), 2, 3),
                    lambda res: dataclasses.replace(res, value=4))
    rep = suites.suite_ramsey(10 ** 6)
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.witnesses == [{"query": "(j=1,c=2,r=3)", "value": 4,
                              "expected": 5}]
    assert rep.counters == {"min_N_triangle": 6,
                            "pigeonhole": {**PASSING_PIGEONHOLE, "c=2,r=3": 4},
                            "bounds_validated": 8}


def _planted_property(monkeypatch, target, fault):
    # (j=3, c=2, r=3) is checked only at its bound, not by search_min_N
    real = ramsey.has_property

    def planted(sizes, query, max_colorings):
        if query == target:
            return fault(sizes)
        return real(sizes, query, max_colorings=max_colorings)

    monkeypatch.setattr(ramsey, "has_property", planted)


def test_suite_ramsey_reports_a_bound_that_fails(monkeypatch):
    q = RamseyQuery((3,), 2, 3)
    _planted_property(monkeypatch, q,
                      lambda sizes: ramsey.PropertyResult(False, 1))
    rep = suites.suite_ramsey(10 ** 6)
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.witnesses == [{"query": "(j=3,c=2,r=3)",
                              "bound": upper_bound_R(q), "holds": False}]
    assert rep.counters == {"min_N_triangle": 6,
                            "pigeonhole": PASSING_PIGEONHOLE,
                            "bounds_validated": 8}


def test_suite_ramsey_skips_a_refused_bound(monkeypatch):
    def refused(sizes):
        raise BudgetExceeded("planted")

    _planted_property(monkeypatch, RamseyQuery((3,), 2, 3), refused)
    rep = suites.suite_ramsey(10 ** 6)
    assert (rep.outcome, rep.exit_code, rep.witnesses) == ("pass", 0, [])
    assert rep.counters == {"min_N_triangle": 6,
                            "pigeonhole": PASSING_PIGEONHOLE,
                            "bounds_validated": 7}
