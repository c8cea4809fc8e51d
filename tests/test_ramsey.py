import collections
import dataclasses
import itertools
import time

import pytest

from finpart import ramsey, suites
from finpart.operators import BudgetExceeded
from finpart.ramsey import (
    DEFAULT_MAX_COLORINGS,
    ProductColoring,
    RamseyQuery,
    check_witness,
    grid_points,
    has_property,
    search_min_N,
    subgrid,
    upper_bound_R,
)
from oracles import oracle_search_min_N


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


def no_witness_1d(N, c, r, colors):
    """Replay a colouring of range(N): no r points share a colour."""
    col = ProductColoring((N,), (1,), colors)
    return not any(check_witness(col, [T], d)
                   for T in itertools.combinations(range(N), r)
                   for d in range(c))


def test_pigeonhole_exact():
    for c in (1, 2, 3):
        for r in (1, 2, 3, 4):
            q = RamseyQuery((1,), c, r)
            expect = c * (r - 1) + 1
            assert search_min_N(q, cap=expect + 1).value == expect, (c, r)
    # a cap below the answer: no value, and the counterexample at the cap
    res = search_min_N(RamseyQuery((1,), 2, 3), cap=3)
    assert res.value is None and res.counterexample_N == 3


def assert_prune_agrees():
    cases = [((2,), (N,), 2, 3) for N in (3, 4, 5)]
    # grids where the counting bound may answer first: (1,1) up to 5x5 and
    # the rectangle reach grids with up to 2 colours, pigeonhole up to N = 10
    grids = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    grids += [(3, 7), (4, 6), (6, 4)]
    cases += [((1, 1), sizes, c, r) for sizes in grids for c in (1, 2)
              for r in range(1, min(sizes) + 1)]
    cases += [((1,), (N,), c, r) for N in range(1, 11) for c in (1, 2, 3)
              for r in range(1, 5)]
    # grids where every side is at least upper_bound_R
    cases += [((2,), (N,), 2, 3) for N in (6, 7)]
    cases += [((1, 2), sizes, 2, 2) for sizes in ((3, 3), (3, 4), (4, 3))]
    cases += [((2,), (3,), 3, 2), ((3,), (4,), 2, 3)]
    for j, sizes, c, r in cases:
        q = RamseyQuery(j, c, r)
        a = has_property(sizes, q, prune=True)
        b = has_property(sizes, q, prune=False)
        assert a.holds == b.holds, (j, sizes, c, r)
        assert a.searched <= b.searched


def test_prune_agrees_with_no_prune():
    assert_prune_agrees()


@pytest.fixture
def low_graph_bound(monkeypatch):
    """_graph_bound one too low: upper_bound_R((2,), 2, 3) becomes 5,
    where the pentagon is a counterexample.  The single-coordinate bounds
    and the bounds per query are cached, so the caches are cleared on both
    sides of the plant."""
    def clear():
        ramsey._single_coordinate_bound.cache_clear()
        ramsey._upper_bound.cache_clear()

    real = ramsey._graph_bound
    clear()
    monkeypatch.setattr(ramsey, "_graph_bound", lambda c, r: real(c, r) - 1)
    assert upper_bound_R(RamseyQuery((2,), 2, 3)) == 5
    yield
    clear()


def test_prune_agreement_catches_a_low_bound(low_graph_bound):
    with pytest.raises(AssertionError, match=r"\(\(2,\), \(5,\), 2, 3\)"):
        assert_prune_agrees()


def test_suite_ramsey_catches_a_low_bound(low_graph_bound):
    # the bound fails the unpruned search at K5, and the probe below it
    # finds a counterexample at K4, so the triangle number reads 5
    rep = suites.suite_ramsey(10 ** 6)
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.witnesses == [
        {"query": "(j=2,c=2,r=3)", "value": 5, "certificate_valid": False},
        {"query": "(j=2,c=2,r=3)", "bound": 5, "holds": False},
    ]


def test_a_loose_bound_never_becomes_the_value():
    # upper_bound_R = 20 for R(4,4), which is 18: K19 has no
    # counterexample, so the probe there is refused, not settled at 20
    q = RamseyQuery((2,), 2, 4)
    assert upper_bound_R(q) == 20
    with pytest.raises(BudgetExceeded, match="budget of 20000 nodes"):
        search_min_N(q, cap=20, max_colorings=20_000)


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


# search_min_N probes just below the least size a proven bound decides:
# counting for j = (1, 1), upper_bound_R for every j
SEARCHES = [((1,), c, r, cap) for c in (1, 2, 3) for r in (1, 2, 3, 4)
            for cap in range(9)]
SEARCHES += [(j, c, r, cap) for j in ((1, 1), (2,)) for c in (1, 2, 3)
             for r in (1, 2, 3, 4) for cap in range(6)]


def search_fields(res):
    return res.value, res.cap, res.counterexample, res.counterexample_N


def assert_search_matches_oracle():
    for j, c, r, cap in SEARCHES:
        q = RamseyQuery(j, c, r)
        got = search_min_N(q, cap)
        want = oracle_search_min_N(q, cap, DEFAULT_MAX_COLORINGS)
        assert search_fields(got) == search_fields(want), (j, c, r, cap)
        assert got.searched_total <= want.searched_total, (j, c, r, cap)


def test_search_min_N_matches_the_upward_sweep():
    assert_search_matches_oracle()


def loosen_proven(monkeypatch, slack):
    """Make the proven bounds decide a grid only where they decide it with
    `slack` points per colour fewer on every side: a sound bound, but a
    loose one.  For j = (1,) this is upper_bound_R + c * slack."""
    real = ramsey._proven

    def loose(sizes, query):
        less = slack * query.c
        return real(tuple(max(N - less, 0) for N in sizes), query)

    monkeypatch.setattr(ramsey, "_proven", loose)


def test_search_min_N_falls_back_below_a_loose_bound(monkeypatch):
    # one more point per colour decides pigeonhole only at c * r + 1, so
    # the probe at c * r holds and the sizes below it are searched
    loosen_proven(monkeypatch, 1)
    res = search_min_N(RamseyQuery((1,), 2, 3), cap=8)
    assert (res.value, res.counterexample_N) == (5, 4)
    # the probe at 6 is counted with the sweep up to 5
    assert res.searched_total == sum(
        has_property((N,), RamseyQuery((1,), 2, 3)).searched
        for N in (3, 4, 5, 6))
    assert_search_matches_oracle()


def count_property_calls(monkeypatch):
    real = ramsey.has_property
    calls = []

    def counted(sizes, query, max_colorings, **private):
        calls.append(sizes)
        return real(sizes, query, max_colorings=max_colorings, **private)

    monkeypatch.setattr(ramsey, "has_property", counted)
    return calls


def test_search_min_N_settles_with_one_search_below_the_bound(monkeypatch):
    calls = count_property_calls(monkeypatch)
    # pigeonhole: upper_bound_R = 3 * (4 - 1) + 1 = 10
    res = search_min_N(RamseyQuery((1,), 3, 4), cap=11)
    assert (res.value, res.counterexample_N, calls) == (10, 9, [(9,)])
    assert no_witness_1d(9, 3, 4, res.counterexample)
    calls.clear()
    # rectangles: 2 colours of at most 12 points each cover fewer than 25
    res = search_min_N(RamseyQuery((1, 1), 2, 2), cap=5)
    assert (res.value, res.counterexample_N, calls) == (5, 4, [(4, 4)])
    assert (res.searched_total, res.pruned_total) == (54, 8)
    calls.clear()
    # triangles: upper_bound_R = 6 = R(3,3), and the pentagon at K5
    res = search_min_N(RamseyQuery((2,), 2, 3), cap=7)
    assert (res.value, res.counterexample_N, calls) == (6, 5, [(5,)])
    assert (res.searched_total, res.pruned_total) == (46, 4)


def test_search_min_N_certifies_a_cap_below_the_answer(monkeypatch):
    calls = count_property_calls(monkeypatch)
    # pigeonhole's bound decides 5 = cap + 1, so one search at the cap
    # settles it
    res = search_min_N(RamseyQuery((1,), 2, 3), cap=4)
    assert (res.value, res.cap, res.counterexample_N, calls) == \
        (None, 4, 4, [(4,)])
    assert no_witness_1d(4, 2, 3, res.counterexample)
    assert search_fields(res) == search_fields(
        oracle_search_min_N(RamseyQuery((1,), 2, 3), 4, 10 ** 6))


def test_a_probe_refused_by_its_node_limit_is_raised():
    # the probe at 4 x 4 takes 62 nodes; 3 x 3 and below take at most 18
    q = RamseyQuery((1, 1), 2, 2)
    assert search_min_N(q, cap=5, max_colorings=62).value == 5
    with pytest.raises(BudgetExceeded, match="budget of 61 nodes"):
        search_min_N(q, cap=5, max_colorings=61)


def test_no_probe_above_a_size_the_mask_budget_refuses(monkeypatch):
    # with one point of slack per colour the bounds decide only 7 points,
    # and the scan for it stops at 6, whose 26 mask words a budget of 20
    # refuses: no probe is made, and the sweep up from 0 searches 3 and 4
    # points with 5 and 7 nodes, so the 14 nodes 5 points need are refused
    # with 8 left
    loosen_proven(monkeypatch, 1)
    q = RamseyQuery((1,), 2, 3)
    with pytest.raises(BudgetExceeded, match="witnesses"):
        has_property((6,), q, max_colorings=20)
    log = count_search_nodes(monkeypatch)
    with pytest.raises(BudgetExceeded, match="budget of 8 nodes"):
        search_min_N(q, cap=8, max_colorings=20)
    assert log == [(3, 20, 5), (4, 15, 7), (5, 8, 8)]


def proven_top(j, c, r, cap, max_colorings):
    """N*, where search_min_N probes just below: the least N <= cap + 1
    that a proven bound decides, where every N from 1 below it fits the
    mask budget; None otherwise."""
    for N in range(1, cap + 2):
        if ramsey._proven((N,) * len(j), RamseyQuery(j, c, r)):
            return N
        if ramsey._grid_size((N,) * len(j), j, r)[2] > max_colorings:
            return None
    return None


def test_the_probe_is_never_refused_for_its_masks(monkeypatch):
    # the scan for N* passes 1 .. N* - 1 inside the mask budget, and the
    # masks at 0 take no word, so a search's first call, the probe at N* - 1
    # or else the sweep's at 0, fits them at every budget from 0; the sweep
    # stays below N* - 1.  A search agrees with the oracle or is refused.
    calls = []  # per has_property call: its sizes, and whether masks refused it
    real = ramsey.has_property

    def logged(sizes, query, max_colorings, **private):
        calls.append([sizes, False])
        try:
            return real(sizes, query, max_colorings=max_colorings, **private)
        except BudgetExceeded as exc:
            calls[-1][1] = "witnesses on" in str(exc)
            raise

    monkeypatch.setattr(ramsey, "has_property", logged)
    probes = masks_refused = 0
    for j, c, r, cap in SEARCHES:
        q = RamseyQuery(j, c, r)
        want = None
        for max_colorings in (0, 1, 2, 5, 20, 61, 62):
            case = (j, c, r, cap, max_colorings)
            calls.clear()
            try:
                got = search_min_N(q, cap, max_colorings)
            except BudgetExceeded:
                pass
            else:
                want = want or oracle_search_min_N(q, cap, DEFAULT_MAX_COLORINGS)
                assert search_fields(got) == search_fields(want), case
            (first, refused), *rest = calls
            assert not refused, case
            top = proven_top(j, c, r, cap, max_colorings)
            if top is not None:
                probes += 1
                assert first == (top - 1,) * len(j), case
                assert all(sizes[0] < top - 1 for sizes, _ in rest), case
            masks_refused += sum(refused for _, refused in rest)
    # both sides of the claim are exercised: probes made, masks refused
    assert probes and masks_refused


def count_search_nodes(monkeypatch):
    """Wrap ramsey._search; returns the list of (points, node limit, nodes
    spent) of its calls, a refused call having spent its whole limit."""
    real = ramsey._search
    log = []

    def counted(P, c, ends, gens, first_colors, budget):
        try:
            res = real(P, c, ends, gens, first_colors, budget)
        except BudgetExceeded:
            log.append((P, budget, budget))
            raise
        log.append((P, budget, res[1] + res[2]))
        return res

    monkeypatch.setattr(ramsey, "_search", counted)
    return log


def test_a_probe_refused_by_its_node_limit_spends_the_budget_once(monkeypatch):
    # the probe at 4 x 4 needs 62 nodes; refused at 61, it is raised at
    # once instead of the sweep searching 2 x 2 and 3 x 3 first
    log = count_search_nodes(monkeypatch)
    with pytest.raises(BudgetExceeded, match="budget of 61 nodes"):
        search_min_N(RamseyQuery((1, 1), 2, 2), cap=5, max_colorings=61)
    assert log == [(16, 61, 61)]


def test_a_probe_that_holds_leaves_its_unspent_nodes(monkeypatch):
    # with one point of slack per colour the probe is at 6 points and holds
    # after 14 nodes; each search below it gets what the searches before it
    # left, and the one at 5 points, which needs 14 nodes, is refused at 39
    # with 13 left
    loosen_proven(monkeypatch, 1)
    log = count_search_nodes(monkeypatch)
    q = RamseyQuery((1,), 2, 3)
    assert search_min_N(q, cap=8, max_colorings=40).value == 5
    assert log == [(6, 40, 14), (3, 26, 5), (4, 21, 7), (5, 14, 14)]
    log.clear()
    with pytest.raises(BudgetExceeded, match="budget of 13 nodes"):
        search_min_N(q, cap=8, max_colorings=39)
    assert log == [(6, 39, 14), (3, 25, 5), (4, 20, 7), (5, 13, 13)]


@pytest.mark.parametrize("slack", [0, 1], ids=["coded", "loose"])
def test_one_search_min_N_call_spends_one_node_pool(monkeypatch, slack):
    # the searches of one call, probe and sweep, spend one pool of
    # max_colorings nodes between them: no budget lets a call spend more
    # (with slack, (1,), c = 2, r = 3 needs 40 nodes, and 28 refuse it),
    # and a budget of one node less than the call needs refuses it.  A
    # budget whose mask limit stops the scan for N* sooner takes another
    # path, whose searches need other nodes.
    loosen_proven(monkeypatch, slack)
    log = count_search_nodes(monkeypatch)

    def spent():
        return sum(nodes for _, _, nodes in log)

    short = 0  # same-path calls refused at one node less than they need
    for j, c, r, cap in SEARCHES:
        q = RamseyQuery(j, c, r)
        log.clear()
        want = search_min_N(q, cap)
        need = spent()
        assert need == want.searched_total + want.pruned_total, (j, c, r, cap)
        top = proven_top(j, c, r, cap, DEFAULT_MAX_COLORINGS)
        for max_colorings in {0, 1, 2, 5, 20, 28, 61, need - 1, need}:
            if max_colorings < 0:
                continue
            case = (j, c, r, cap, max_colorings)
            same_path = proven_top(j, c, r, cap, max_colorings) == top
            log.clear()
            try:
                got = search_min_N(q, cap, max_colorings)
            except BudgetExceeded as exc:
                by_nodes = "search exceeds" in str(exc)
                assert not (same_path and by_nodes and max_colorings >= need), case
                short += same_path and max_colorings == need - 1
            else:
                assert search_fields(got) == search_fields(want), case
                assert not (same_path and max_colorings < need), case
            assert spent() <= max_colorings, case
    assert short > 50


def test_the_bound_is_computed_once_per_query(monkeypatch):
    # the scan and every search of the sweep read one bound per query; a
    # refused bound is kept too (as deciding nothing), so a second search
    # on its 120-point grid, whose side 16 is not below the floor 2 ** 4,
    # does not pay for it again
    real = ramsey.upper_bound_R
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    sweep, refused = RamseyQuery((1, 1), 2, 2), RamseyQuery((2,), 3, 7)
    ramsey._upper_bound.cache_clear()
    monkeypatch.setattr(ramsey, "upper_bound_R", counted)
    monkeypatch.setattr(ramsey, "_GRAPH_WORK", 100)
    try:
        assert search_min_N(sweep, cap=5).value == 5
        for _ in range(2):
            assert not has_property((16,), refused).note
    finally:
        ramsey._upper_bound.cache_clear()
    # upper_bound_R peels (1, 1) through (1,), so that is called once too
    assert calls == [sweep, RamseyQuery((1,), 2, 2), refused]


def test_a_side_below_the_floor_reads_no_bound(monkeypatch):
    # upper_bound_R((3,), 5, 29) runs the graph recurrence at target 28,
    # about 850k steps, before its step-up is refused; its floor is
    # C(2 + 5 * 26, 2) = 8,646 bits, so a side of 29 never reaches it
    real = ramsey._graph_bound
    calls = []

    def counted(c, r):
        calls.append((c, r))
        return real(c, r)

    q = RamseyQuery((3,), 5, 29)
    assert ramsey._floor_bits(3, 5, 29) == 8646
    ramsey._single_coordinate_bound.cache_clear()
    ramsey._upper_bound.cache_clear()
    monkeypatch.setattr(ramsey, "_graph_bound", counted)
    res = has_property((29,), q)
    assert calls == []
    assert not (res.holds or res.note)
    assert res.counterexample == has_property((29,), q, prune=False).counterexample


def test_a_smallest_side_below_the_first_floor_reads_no_bound(monkeypatch):
    # upper_bound_R((3, 1), 2, 4) is at least that of its first coordinate,
    # whose floor is C(2 + 2 * 1, 2) = 6 bits, so sides of 4 never reach it
    real = ramsey.upper_bound_R
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    q = RamseyQuery((3, 1), 2, 4)
    ramsey._upper_bound.cache_clear()
    monkeypatch.setattr(ramsey, "upper_bound_R", counted)
    try:
        res = has_property((4, 4), q)
    finally:
        ramsey._upper_bound.cache_clear()
    assert calls == []
    want = has_property((4, 4), q, prune=False)
    assert (res.holds, res.counterexample) == (want.holds, want.counterexample)
    assert not res.note


def test_the_floor_is_below_the_bound():
    # a side of at most _floor_bits(j_1, c, r) bits is below upper_bound_R
    # of every query whose first coordinate is j_1
    floored = collections.Counter()  # floored queries by arity
    for j, c, r in itertools.product(range(5), range(1, 5), range(9)):
        b = ramsey._floor_bits(j, c, r)
        if b < 0:
            continue
        for rest in ((), (0,), (1,), (2,)):
            try:
                ub = upper_bound_R(RamseyQuery((j,) + rest, c, r))
            except BudgetExceeded:
                continue
            floored[1 + len(rest)] += 1
            assert ub >= 2 ** b, (j, rest, c, r)
    assert floored[1] > 20 and floored[2] > 10
    for r, c in itertools.product(range(3, 9), range(2, 5)):
        assert ramsey._graph_bound(c, r) >= 2 + c * (r - 2)


@pytest.mark.parametrize("c, r", [(2, 3), (1, 0)])
def test_an_empty_arity_is_still_answered(c, r):
    # j = () has one grid point and no first coordinate to floor
    q = RamseyQuery((), c, r)
    res = has_property((), q)
    assert res.holds
    assert res.note == f"bound: every side is at least upper_bound_R = {r}"
    assert has_property((), q, prune=False).holds
    assert search_min_N(q, cap=4).value == 0


def test_the_scan_for_the_bound_stops_where_the_budget_refuses(monkeypatch):
    # counting decides (j=(1,1), c=3, r=8) only at N = 45,983, but the
    # masks of 13 x 13 are over the default budget, so the scan stops there
    # and the sweep raises at 13, as it did before any scan
    real = ramsey._proven
    scanned = []

    def counted(sizes, query):
        scanned.append(sizes[0])
        return real(sizes, query)

    monkeypatch.setattr(ramsey, "_proven", counted)
    with pytest.raises(BudgetExceeded, match="1656369 witnesses on 169"):
        search_min_N(RamseyQuery((1, 1), 3, 8), cap=10 ** 5)
    assert max(scanned) == 13


def test_deep_grid():
    # 1770 points, deeper than the interpreter's recursion limit; R(3,3) = 6.
    # upper_bound_R = 6 answers has_property at the root, so the search
    # runs on its own
    ends = ramsey._witness_masks((60,), (2,), 3)
    gens = ramsey._transposition_pairs((60,), (2,))
    assert ramsey._search(1770, 2, ends, gens, 1, DEFAULT_MAX_COLORINGS)[0] is None
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
    # K5 is below upper_bound_R = 6, so it is searched
    with pytest.raises(BudgetExceeded):
        has_property((5,), RamseyQuery((2,), 2, 3), max_colorings=10)


@pytest.mark.parametrize("call", [
    # (5,) is decided by counting, so the budget is checked before that
    lambda: has_property((5,), RamseyQuery((1,), 2, 3), max_colorings=-1),
    lambda: has_property((6,), RamseyQuery((2,), 2, 3), max_colorings=-1),
    lambda: search_min_N(RamseyQuery((1,), 2, 3), cap=8, max_colorings=-1),
    lambda: search_min_N(RamseyQuery((2,), 2, 3), cap=3, max_colorings=-1),
], ids=["property-counted", "property", "search-bounded", "search"])
def test_negative_budget_is_refused_as_bad_input(call):
    with pytest.raises(ValueError, match="max_colorings must be non-negative"):
        call()


def test_hopeless_grid_refused_before_building():
    # 34,220 witness masks against a budget of 10,000: refused at once
    # (unpruned, since upper_bound_R = 6 decides K60 with pruning)
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded, match="witnesses"):
        has_property((60,), RamseyQuery((2,), 2, 3), max_colorings=10_000,
                     prune=False)
    assert time.monotonic() - t0 < 5


def test_upper_bounds_sufficient():
    checked = 0
    for j, c, r in [(0, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2),
                    (3, 2, 3)]:
        q = RamseyQuery((j,), c, r)
        ub = upper_bound_R(q)
        try:
            res = has_property((ub,), q, prune=False)
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
            assert has_property((ub,), q, prune=False).holds, (j, r, ub)


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
# counting before any search, and the (6,) row by upper_bound_R = 6, so
# their trees are pinned on _search itself.
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
}


# (j, sizes, c, r) -> upper_bound_R: grids no counting bound answers, where
# every side is at least upper_bound_R
BOUND_DECISIONS = {
    ((2,), (6,), 2, 3): 6,
    ((2,), (60,), 2, 3): 6,
    ((2,), (17,), 3, 3): 17,
    ((1, 2), (3, 4), 2, 2): 3,
    ((1,), (10,), 3, 4): 10,
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
    if (j, sizes, 2, r) in ROOT_DECISIONS.keys() | BOUND_DECISIONS.keys():
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


@pytest.mark.parametrize("case", BOUND_DECISIONS, ids=root_id)
def test_the_bound_decides_at_the_root(case):
    j, sizes, c, r = case
    q = RamseyQuery(j, c, r)
    ub = BOUND_DECISIONS[case]
    assert upper_bound_R(q) == ub
    assert ramsey._class_bound(sizes, j, r) is None
    res = has_property(sizes, q)
    assert res == ramsey.PropertyResult(
        True, 0, 0, note=f"bound: every side is at least upper_bound_R = {ub}")
    # decided before the mask budget and before any mask is built
    assert has_property(sizes, q, max_colorings=0) == res
    # one side below the bound, and it decides nothing
    assert ramsey._proven((ub - 1,) + sizes[1:], q) is None


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
            # upper_bound_R's pigeonhole decides what r - 1 points per colour
            # would, so counting codes no bound for j = (1,)
            assert ramsey._class_bound((N,), (1,), r) is None
    assert ramsey._class_bound((5,), (2,), 3) is None


def test_pigeonhole_grids_are_decided_by_the_bound():
    # c * (r - 1) + 1 points hold a witness in every c-colouring, and
    # c * (r - 1) points do not, so no proven bound decides them
    for c, r in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        q = RamseyQuery((1,), c, r)
        N = c * (r - 1) + 1
        assert has_property((N,), q) == ramsey.PropertyResult(
            True, 0, 0, note=f"bound: every side is at least upper_bound_R = {N}")
        assert ramsey._proven((N - 1,), q) is None, (c, r)


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

    def planted(sizes, query, max_colorings, **private):
        if query == target:
            return fault(sizes)
        return real(sizes, query, max_colorings=max_colorings, **private)

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
