import random

import pytest

from finpart.core import enum_disjoint_tuples
from finpart.operators import (
    BudgetExceeded,
    CycleReport,
    boundary,
    boundary_power,
    count_extensions,
    enum_extensions,
    exists_uncovered_extension,
    interior,
    interior_sparse,
    nilpotency_holds,
    nilpotency_index,
    profile_space,
    tuple_extends,
    tuple_join,
    tuple_meet,
    up,
)


# --- independent oracles, straight from the definitions -------------------

def oracle_up(a, m, l, X):
    return frozenset(
        q
        for q in enum_disjoint_tuples(a, l)
        if any(tuple_extends(p, q) for p in X)
    )


def oracle_interior(a, m, l, X):
    g = oracle_up(a, m, l, X)
    return frozenset(
        p
        for p in enum_disjoint_tuples(a, m)
        if all(q in g for q in enum_extensions(a, p, l))
    )


def random_family(rng, tuples, density=0.4):
    return frozenset(t for t in tuples if rng.random() < density)


def test_tuple_order_ops():
    assert tuple_extends(((0,),), ((0, 1),))
    assert not tuple_extends(((2,),), ((0, 1),))
    assert tuple_join(((0,), ()), ((), (1,))) == ((0,), (1,))
    assert tuple_meet(((0, 1), (2,)), ((1,), (2, 3))) == ((1,), (2,))
    with pytest.raises(ValueError, match="colliding"):
        tuple_join(((0,), (1,)), ((1,), (0,)))


def test_enum_extensions_count():
    for a, m, l in [(5, (1,), (3,)), (6, (1, 1), (2, 2)), (4, (2,), (2,))]:
        for p in enum_disjoint_tuples(a, m):
            exts = list(enum_extensions(a, p, l))
            assert len(exts) == count_extensions(a, m, l)
            assert all(tuple_extends(p, q) for q in exts)
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


def test_interior_sparse_matches_dense():
    rng = random.Random(11)
    for a, m, l in [(5, (1,), (3,)), (6, (1, 1), (2, 2)), (6, (2,), (3,))]:
        tuples = list(enum_disjoint_tuples(a, m))
        for _ in range(15):
            X = random_family(rng, tuples, density=0.25)
            assert interior_sparse(a, m, l, X) == interior(a, m, l, X)


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


def test_nilpotency_holds_small_configs():
    ok, _ = nilpotency_holds(6, (1,), (2,), mode="exhaustive")
    assert ok
    ok, _ = nilpotency_holds(6, (1,), (3,), mode="exhaustive")
    assert ok
    ok, witness = nilpotency_holds(2, (1,), (3,), mode="exhaustive")
    assert not ok and witness


def test_nilpotency_random_mode_seeded():
    r1 = nilpotency_holds(8, (1, 1), (2, 2), mode="random", samples=50, seed=9)
    r2 = nilpotency_holds(8, (1, 1), (2, 2), mode="random", samples=50, seed=9)
    assert r1 == r2 == (True, None)


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


@pytest.mark.parametrize("bad", [((1, 0),), ((99,),), ((0, 1),)])
@pytest.mark.parametrize("route", [interior, interior_sparse])
def test_member_validation_on_both_routes(route, bad):
    # non-canonical, out of range, wrong profile
    with pytest.raises(ValueError):
        route(6, (1,), (3,), {bad})
