import random
import tracemalloc
from collections import Counter

import pytest

from finpart import cli, operators
from finpart.core import enum_disjoint_tuples
from finpart.operators import (
    BudgetExceeded,
    CycleReport,
    boundary,
    boundary_power,
    count_extensions,
    down,
    enum_extensions,
    exists_uncovered_extension,
    interior,
    interior_sparse,
    nilpotency_index,
    profile_space,
    up,
)
from oracles import extends, oracle_interior, oracle_up


def random_family(rng, tuples, density=0.4):
    return frozenset(t for t in tuples if rng.random() < density)


def test_enum_extensions_count():
    for a, m, l in [(5, (1,), (3,)), (6, (1, 1), (2, 2)), (4, (2,), (2,))]:
        for p in enum_disjoint_tuples(a, m):
            exts = list(enum_extensions(a, p, l))
            assert len(exts) == count_extensions(a, m, l)
            assert all(extends(p, q) for q in exts)
    # the first component already uses up the ground set
    assert count_extensions(1, (0, 0), (2, 0)) == 0


def test_up_examples():
    assert up(3, (1,), (2,), {((0,),)}) == {((0, 1),), ((0, 2),)}
    assert up(3, (1,), (2,), frozenset()) == frozenset()
    assert up(2, (1,), (2,), {((0,),)}) == {((0, 1),)}


def test_interior_examples():
    assert interior(3, (1,), (2,), {((0,),), ((1,),)}) == {
        ((0,),), ((1,),), ((2,),)
    }
    assert interior(3, (1,), (2,), {((0,),)}) == {((0,),)}
    assert interior(5, (1,), (2,), frozenset()) == frozenset()


def test_interior_vacuous_when_no_extensions():
    # no 3-subsets exist in a 2-element ground set: everything is interior
    assert interior(2, (1,), (3,), frozenset()) == {((0,),), ((1,),)}


def test_operators_match_oracle():
    rng = random.Random(5)
    for a, m, l in [(4, (1,), (2,)), (5, (1,), (3,)), (5, (2,), (3,)),
                    (5, (1, 1), (2, 2)), (4, (1, 1), (1, 2))]:
        tuples = list(enum_disjoint_tuples(a, m))
        for _ in range(25):
            X = random_family(rng, tuples)
            assert up(a, m, l, X) == oracle_up(a, m, l, X)
            assert interior(a, m, l, X) == oracle_interior(a, m, l, X)
            assert boundary(a, m, l, X) == oracle_interior(a, m, l, X) - X


# (a, m, l, whether down_mask reads byte tables rather than scanning ext)
KERNEL_SPACES = [
    (6, (2,), (3,), True),        # 15 m-tuples, 20 l-tuples
    (5, (1, 1), (2, 2), True),    # 20, 30
    (8, (3,), (4,), True),        # 56 m-tuples: whole runs of 8; 70 l-tuples
    (12, (1,), (5,), False),      # 12, 792
    (6, (1,), (3,), False),       # 6, 20
    (3, (1,), (4,), True),        # sum(l) > a: no l-tuples, all vacuous
    (2, (3,), (3,), True),        # no m-tuples at all
]


@pytest.mark.parametrize("a, m, l, tables", KERNEL_SPACES)
def test_mask_kernels_match_a_scan_over_ext(a, m, l, tables):
    """up_mask and down_mask against the definitions read off ext: up ORs
    the extension masks of the members, down keeps the m-tuples whose
    extensions all lie in g.  Every mask where there are at most 2^8,
    seeded ones otherwise, plus the empty and the full mask."""
    sp = profile_space(a, m, l)
    assert (sp.down_bytes is not None) == tables
    M, L = len(sp.m_tuples), len(sp.l_tuples)
    rng = random.Random(3)

    def masks(size):
        if size <= 8:
            return range(1 << size)
        return [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(300)]

    for x in masks(M):
        want = 0
        for i, e in enumerate(sp.ext):
            if x >> i & 1:
                want |= e
        assert operators.up_mask(sp, x) == want
    gs = list(masks(L)) + [operators.up_mask(sp, x) for x in masks(M)]
    for g in gs:
        want = 0
        for i, e in enumerate(sp.ext):
            if not e & ~g:
                want |= 1 << i
        assert operators.down_mask(sp, g) == want


def test_dense_space_memory_stays_within_the_budget_figure():
    """coder_partitions' space: up tables, and the down scan over 792
    l-tuples.  Its build allocates within the figure beside _TUPLE_BUDGET:
    ~300 B per tuple, ~10 kB per byte table, 4 B per table mask bit.  The
    sides are listed afresh, so the figure counts them too."""
    operators.indexed_tuples.cache_clear()
    tracemalloc.start()
    try:
        sp = profile_space.__wrapped__(12, (1,), (5,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    M, L = len(sp.m_tuples), len(sp.l_tuples)
    assert sp.down_bytes is None and len(sp.up_bytes) == 2
    assert peak <= 300 * (M + L) + 10_000 * 2 + 4 * M * L


def test_interior_sparse_matches_dense():
    rng = random.Random(11)
    for a, m, l in [(5, (1,), (3,)), (6, (1, 1), (2, 2)), (6, (2,), (3,))]:
        tuples = list(enum_disjoint_tuples(a, m))
        for _ in range(15):
            X = random_family(rng, tuples, density=0.25)
            assert interior_sparse(a, m, l, X) == interior(a, m, l, X)


def test_sparse_interior_searches_once_per_class(monkeypatch):
    # 3 members over a support of s = 6 leave 18 fresh elements, one short
    # of sum(l) = 19, so floor = 19 - 24 + 6 = 1.  A class is a support
    # part with k_i <= 1 per component, (s + 1)^2 - s = 43 of them, and its
    # deficit is floor - sum(k): only k = (0, 0), one class, is above 0
    # and searched; the other 42 are skipped before their parts are
    # listed, and none of the 552 tuples of O_(1,1)(24) is listed.  A
    # fourth member ((6,), (1,)) makes s = 7 and floor 2, so k = (0, 0),
    # (1, 0) and (0, 1) are searched: 1 + 7 + 7 = 15 classes
    searches = []
    listed = Counter()
    search, enum = operators.exists_uncovered_extension, operators.enum_disjoint_tuples

    def counted_search(*args):
        searches.append(args[1])
        return search(*args)

    def counted_enum(a, profile):
        for t in enum(a, profile):
            listed[a, tuple(profile)] += 1
            yield t

    monkeypatch.setattr(operators, "exists_uncovered_extension", counted_search)
    monkeypatch.setattr(operators, "enum_disjoint_tuples", counted_enum)
    X = {((0,), (1,)), ((2,), (3,)), ((4,), (5,))}
    for want in (1, 15):
        searches.clear()
        listed.clear()
        assert interior(24, (1, 1), (9, 10), X) == X
        assert len(searches) == len(set(searches)) == want
        assert sum(listed.values()) == want and (24, (1, 1)) not in listed
        X.add(((6,), (1,)))


def test_sparse_interior_lists_a_class_of_fresh_fills():
    # the support {1, 2, 4, 5} leaves 0 and 3 fresh: the class with 5 from
    # the support and one fresh element is inside (any 4-set over it takes
    # 1, 2 or 4), and its members sort the fresh element in below 5
    X = {((1, 5),), ((2, 5),), ((4, 5),)}
    want = oracle_interior(6, (2,), (4,), X)
    assert want == X | {((0, 5),), ((3, 5),)}
    assert interior_sparse(6, (2,), (4,), X) == want


@pytest.mark.parametrize("a, m, l", [(5, (1, 1, 0), (2, 2, 1)),
                                     (6, (0, 2), (1, 3))])
def test_sparse_interior_with_a_zero_part(a, m, l):
    # a component that holds nothing has one class part, the empty one
    rng = random.Random(7)
    tuples = list(enum_disjoint_tuples(a, m))
    for _ in range(30):
        X = random_family(rng, tuples, density=rng.choice([0.1, 0.3, 0.6]))
        assert interior_sparse(a, m, l, X) == oracle_interior(a, m, l, X)


def test_exists_uncovered_extension_agrees_with_enumeration():
    rng = random.Random(3)
    a, m, l = 6, (1, 1), (2, 2)
    tuples = list(enum_disjoint_tuples(a, m))
    for _ in range(30):
        X = random_family(rng, tuples, density=0.2)
        g = oracle_up(a, m, l, X)
        for p in tuples[:10]:
            expect = any(q not in g for q in enum_extensions(a, p, l))
            assert exists_uncovered_extension(a, p, l, X) == expect
    # a component already larger than its size has no extension at all
    assert not exists_uncovered_extension(6, ((0, 1, 2),), (2,), [])


def test_boundary_power_and_nilpotency_example():
    a, m, l = 3, (1,), (2,)
    X = {((0,),), ((1,),)}
    assert boundary(a, m, l, X) == {((2,),)}
    assert boundary_power(a, m, l, X, 2) == frozenset()
    assert boundary_power(a, m, l, X, 0) == frozenset(X)
    assert nilpotency_index(a, m, l, X) == 2
    assert nilpotency_index(a, m, l, frozenset()) == 0


def test_vacuous_alpha_cycles():
    rep = nilpotency_index(2, (1,), (3,), {((0,),)})
    assert isinstance(rep, CycleReport)
    assert rep.period == 2
    assert rep.start == 0


def subfamilies(a, m):
    """Every family of m-profile tuples, in the order of the masks that
    select them (bit i = the i-th tuple in enumeration order)."""
    tuples = list(enum_disjoint_tuples(a, m))
    for mask in range(1 << len(tuples)):
        yield frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)


def test_nilpotency_holds_small_configs():
    # at a=6 every family's boundary dies within sum(m) + 1 steps
    for l in [(2,), (3,)]:
        for X in subfamilies(6, (1,)):
            idx = nilpotency_index(6, (1,), l, X)
            assert isinstance(idx, int) and idx <= 2
    # a=2 has no 3-subsets, so the interior is vacuous and {0} cycles
    reps = [(X, nilpotency_index(2, (1,), (3,), X))
            for X in subfamilies(2, (1,))]
    X, rep = next((X, r) for X, r in reps if not isinstance(r, int) or r > 2)
    assert X == {((0,),)}
    assert rep == CycleReport(start=0, period=2, family=(((0,),),))


@pytest.mark.parametrize("l", range(2, 7))
def test_nilpotency_at_m1_first_passes_at_2l_minus_1(l):
    """For m = (1,), boundary(X) is X's complement when |X| >= a - l + 1
    and empty otherwise, so the chain survives step 2 exactly when
    a <= 2l - 2: a cycle at a = 2l - 2 and a pass at a = 2l - 1."""
    below = cli.suite_nilpotency(2 * l - 2, (1,), (l,), "exhaustive", 0, 0)
    at = cli.suite_nilpotency(2 * l - 1, (1,), (l,), "exhaustive", 0, 0)
    assert below.outcome == "violation"
    assert below.witnesses[0]["kind"] == "cycle"
    assert at.outcome == "pass"


def test_nilpotency_random_mode_seeded():
    r1 = cli.suite_nilpotency(8, (1, 1), (2, 2), "random", 50, 9)
    r2 = cli.suite_nilpotency(8, (1, 1), (2, 2), "random", 50, 9)
    assert r1.canonical_json() == r2.canonical_json()
    assert r1.outcome == "pass"
    assert r1.counters == {"families_checked": 50, "total": 50, "bound": 3}


# suite_nilpotency's digests, as a loop running nilpotency_index on every
# family gives them: cycles at masks 1, 1 and 12, an index of 4 at mask 893,
# a pass, a seeded pass and a seeded cycle
NILPOTENCY_DIGESTS = {
    (2, (1,), (3,), "exhaustive", 0, 0): "85aaca4a174a76d6",
    (3, (2,), (4,), "exhaustive", 0, 0): "199b0e3d445daff0",
    (4, (2,), (3,), "exhaustive", 0, 0): "bf206250c738cecf",
    (5, (1, 1), (2, 2), "exhaustive", 0, 0): "015e121d94832199",
    (6, (2,), (3,), "exhaustive", 0, 0): "970b846f3792e0c1",
    (6, (1,), (2,), "random", 100, 5): "c7d2e2614ef11416",
    (7, (2,), (4,), "random", 500, 3): "2d939e618ac4dc2b",
}


@pytest.mark.parametrize("args", NILPOTENCY_DIGESTS)
def test_nilpotency_sweep_keeps_its_digests(args):
    assert operators.fits_dense(*args[:3])
    rep = cli.suite_nilpotency(*args)
    assert rep.canonical()["digest"] == NILPOTENCY_DIGESTS[args]


# (6, (2,), (3,)) takes 11 s sparse, so its digest alone stands for the
# per-family loop there
@pytest.mark.parametrize("args", [args for args in NILPOTENCY_DIGESTS
                                  if args[:3] != (6, (2,), (3,))])
def test_nilpotency_sweep_is_the_same_on_both_routes(monkeypatch, args):
    """The dense sweep, on columns, reports what the per-family loop of
    the sparse route reports, byte for byte."""
    dense = cli.suite_nilpotency(*args)
    monkeypatch.setattr(operators, "fits_dense", lambda a, m, l: False)
    assert cli.suite_nilpotency(*args).canonical_json() == dense.canonical_json()


@pytest.mark.parametrize("args, calls", [
    ((6, (2,), (3,), "exhaustive", 0, 0), 0),
    ((8, (1, 1), (2, 2), "random", 1000, 0), 0),
    ((3, (2,), (4,), "exhaustive", 0, 0), 1),  # the empty family passes
    ((5, (1, 1), (2, 2), "exhaustive", 0, 0), 1),
    ((7, (2,), (4,), "random", 500, 3), 1),
])
def test_dense_nilpotency_sweep_names_only_the_failure(monkeypatch, args, calls):
    """On the dense route nilpotency_index runs only on a family whose
    levels 0 ... bound are all non-empty: never on a passing instance, and
    once, on the witness, on a failing one."""
    seen = []
    real = operators.nilpotency_index
    monkeypatch.setattr(operators, "nilpotency_index",
                        lambda *a: seen.append(a) or real(*a))
    rep = cli.suite_nilpotency(*args)
    assert len(seen) == calls
    assert rep.outcome == ("violation" if calls else "pass")


def test_exhaustive_nilpotency_reaches_2_to_the_21():
    rep = cli.suite_nilpotency(7, (2,), (3,), "exhaustive", 0, 0)
    assert rep.outcome == "pass"
    assert rep.counters == {"families_checked": 2_097_152, "total": 2_097_152,
                            "bound": 3}


def test_boundary_iteration_off_the_dense_route():
    # O_(10,)(28) is far over the dense budget; the two members leave 24
    # ground elements free, so the interior is X and the boundary is empty
    X = {((0, 1),), ((2, 3),)}
    assert boundary_power(28, (2,), (10,), X, 1) == frozenset()
    assert nilpotency_index(28, (2,), (10,), X) == 1


def test_uncovered_extension_search_is_bounded(monkeypatch):
    # the members are the edges between {2,4,6,8} and {3,5,7}; p = {0,1}
    # and l = 7 leave no fresh element, so D = 5 support elements must be
    # placed, and the verdict (no 5 of them avoid every edge) needs the
    # whole pruned search
    X = [((min(e, o), max(e, o)),) for e in (2, 4, 6, 8) for o in (3, 5, 7)]
    p = ((0, 1),)
    assert exists_uncovered_extension(9, p, (6,), X)  # the four evens
    assert not exists_uncovered_extension(9, p, (7,), X)
    monkeypatch.setattr(operators, "_NODE_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="node budget"):
        exists_uncovered_extension(9, p, (7,), X)


MEMBERS = {
    "edges": [((min(e, o), max(e, o)),) for e in (2, 4, 6, 8) for o in (3, 5, 7)],
    "matching": [((2 * i, 2 * i + 1),) for i in range(8)],
    "sequence": [((i,), (i + 1,)) for i in range(0, 12, 2)],
    "four": [((0,), (1,)), ((2,), (3,)), ((4,), (5,)), ((6,), (1,))],
    "cycle": [(tuple(sorted((2 + i, 2 + (i + 1) % 24))),) for i in range(24)],
}
# (members, a, p, l, verdict, nodes expanded): searches whose deficit is
# above 0, so interior_sparse still runs them; "four" at ((7,), (8,)) is
# the (0, 0) class of that family at floor 2; "cycle" is near-covering
# (only 0 and 1 lie outside its support) and asks for 13 of the cycle's
# 24 elements with no edge among them, one more than it has
PINNED_SEARCHES = [
    ("edges", 9, ((0, 1),), (6,), True, 5),
    ("edges", 9, ((0, 1),), (7,), False, 7),
    ("matching", 16, ((0, 2),), (8,), True, 7),
    ("matching", 16, ((0, 2),), (9,), False, 169),
    ("sequence", 12, ((0,), (2,)), (6, 6), True, 12),
    ("four", 24, ((7,), (8,)), (9, 10), True, 3),
    ("cycle", 26, ((0, 1),), (15,), False, 4096),
]


@pytest.mark.parametrize("name, a, p, l, verdict, nodes", PINNED_SEARCHES,
                         ids=[f"{c[0]}-l{sum(c[3])}" for c in PINNED_SEARCHES])
def test_uncovered_extension_search_tree_is_pinned(monkeypatch, name, a, p, l,
                                                   verdict, nodes):
    # the budget counts every node: the total suffices, one less does not
    monkeypatch.setattr(operators, "_NODE_BUDGET", nodes)
    assert exists_uncovered_extension(a, p, l, MEMBERS[name]) is verdict
    monkeypatch.setattr(operators, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded, match="node budget"):
        exists_uncovered_extension(a, p, l, MEMBERS[name])


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        # the extension relation here is astronomically over budget
        up(40, (1, 1, 0), (11, 12, 13), {(((0,), (1,), ()))})


def test_budget_refuses_before_building(monkeypatch):
    # 6320 m-tuples and 246480 l-tuples: ~1.6e9 mask bits, about 190 MB
    def no_enumeration(*args):
        raise AssertionError("profile_space enumerated an over-budget space")

    monkeypatch.setattr("finpart.operators.enum_disjoint_tuples", no_enumeration)
    with pytest.raises(BudgetExceeded):
        profile_space(80, (1, 1), (1, 2))


def test_profile_validation():
    with pytest.raises(ValueError, match="fit under"):
        interior(4, (2,), (1,), frozenset())
    with pytest.raises(ValueError, match="arity"):
        interior(4, (1,), (1, 1), frozenset())
    # boundary iteration checks even when it iterates nothing
    with pytest.raises(ValueError, match="fit under"):
        boundary_power(4, (2,), (1,), frozenset(), 0)
    with pytest.raises(ValueError, match="fit under"):
        nilpotency_index(4, (2,), (1,), frozenset())
    with pytest.raises(ValueError):
        boundary_power(4, (1,), (2,), {((9,),)}, 0)
    with pytest.raises(ValueError, match="non-negative"):
        interior(4, (-1,), (1,), frozenset())


@pytest.mark.parametrize("bad", [((1, 0),), ((99,),), ((0, 1),),
                                 (frozenset({0}),), ((1.0,),), ((True,),)])
@pytest.mark.parametrize("route", [interior, interior_sparse, nilpotency_index,
                                   up, down])
def test_member_validation_on_both_routes(route, bad):
    # non-canonical, out of range, wrong profile, a set component, and a
    # float and a bool that equal the int 1
    with pytest.raises(ValueError):
        route(6, (1,), (3,), {bad})


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("route", [interior, boundary, nilpotency_index, up])
def test_members_are_checked_before_a_set_merges_them(monkeypatch, route, dense):
    # ((1.0,),) equals ((1,),), so freezing the family first would drop it
    if not dense:
        monkeypatch.setattr(operators, "fits_dense", lambda a, m, l: False)
    with pytest.raises(ValueError, match=r"not a canonical subset: \(1\.0,\)"):
        route(6, (1,), (3,), [((1,),), ((1.0,),)])


def test_sparse_down_checks_z_without_extensions():
    # no 4-set of range(32) has a 33-set extension, yet Z is still checked
    assert not operators.fits_dense(32, (4,), (33,))
    with pytest.raises(ValueError, match=r"element out of range \[0, 32\)"):
        down(32, (4,), (33,), [((99,),)])


def test_space_build_runs_no_member_check(monkeypatch):
    # the extension masks are written straight from the index: a build
    # walks no element of the tuples enum_extensions yields
    for fn in (operators.profile_space, operators.indexed_tuples,
               operators.fits_dense):
        fn.cache_clear()
    calls = Counter()
    for name in ("_index_mask", "check_disjoint_tuple"):
        fn = getattr(operators, name)

        def wrapped(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(operators, name, wrapped)
    sp = profile_space(8, (1, 1), (2, 2))
    assert calls == {}
    assert sp.ext[0] == operators._index_mask(8, (2, 2), enum_extensions(
        8, sp.m_tuples[0], (2, 2)))


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("iterate", [
    lambda X: nilpotency_index(3, (1,), (2,), X),
    lambda X: boundary_power(3, (1,), (2,), X, 4),
    lambda X: interior(3, (1,), (2,), X),
], ids=["nilpotency_index", "boundary_power", "interior"])
def test_boundary_iteration_routes_and_checks_once(monkeypatch, dense, iterate):
    # the chain X, {(2,)}, {}, ... runs several levels on either route, but
    # the route is picked and X's members are checked once for all of them;
    # one interior call checks them once too
    calls = Counter()

    def counting(name):
        fn = getattr(operators, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    if dense:
        profile_space(3, (1,), (2,))  # built, and its own check run, beforehand
    else:
        monkeypatch.setattr(operators, "fits_dense", lambda a, m, l: False)
    for name in ("_route", "check_profiles", "_members", "_index_mask"):
        monkeypatch.setattr(operators, name, counting(name))
    iterate({((0,),), ((1,),)})
    assert calls == {"_route": 1, "check_profiles": 1,
                     "_index_mask" if dense else "_members": 1}
