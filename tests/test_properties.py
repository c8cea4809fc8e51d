"""Property tests: both operator routes, the coder's pullback and the
Ramsey search against naive oracles written from the definitions."""

import itertools
from math import comb, prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from finpart import coding, operators  # noqa: E402
from finpart.core import enum_disjoint_tuples  # noqa: E402
from finpart.operators import (  # noqa: E402
    boundary,
    down,
    exists_uncovered_extension,
    interior,
    interior_sparse,
    up,
)
from finpart.ramsey import (  # noqa: E402
    ProductColoring,
    RamseyQuery,
    check_witness,
    has_property,
)


def extends(p, q):
    return all(set(x) <= set(y) for x, y in zip(p, q))


def oracle_up(a, m, l, X):
    """l-tuples extending some member of X."""
    return frozenset(q for q in enum_disjoint_tuples(a, l)
                     if any(extends(x, q) for x in X))


def oracle_down(a, m, l, Z):
    """m-tuples all of whose l-extensions lie in Z."""
    l_tuples = list(enum_disjoint_tuples(a, l))
    return frozenset(
        p for p in enum_disjoint_tuples(a, m)
        if all(q in Z for q in l_tuples if extends(p, q))
    )


def oracle_interior(a, m, l, X):
    """m-tuples all of whose l-extensions extend some member of X."""
    return oracle_down(a, m, l, oracle_up(a, m, l, X))


def support(t):
    return {x for c in t for x in c}


@st.composite
def instances(draw, a_min=1):
    """(a, m, l) with m <= l componentwise and sum(m) <= a; sum(l) may
    exceed a, where interior is vacuous."""
    a = draw(st.integers(a_min, 6))
    n = draw(st.integers(1, 2))
    m = tuple(draw(st.integers(0, 2)) for _ in range(n))
    hypothesis.assume(sum(m) <= a)
    l = tuple(mi + draw(st.integers(0, 2)) for mi in m)
    return a, m, l


def subfamily(draw, tuples):
    mask = draw(st.integers(0, (1 << len(tuples)) - 1))
    return frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)


@st.composite
def families(draw):
    a, m, l = draw(instances())
    return a, m, l, subfamily(draw, list(enum_disjoint_tuples(a, m)))


def family_leaving_free(draw, a, m, free):
    """A family of m-tuples whose support is exactly the ground elements
    outside `free`; needs at least sum(m) of them, or none."""
    avoid = [t for t in enum_disjoint_tuples(a, m) if not support(t) & free]
    X = set(subfamily(draw, avoid))
    for e in range(a):
        if e in free or any(e in support(t) for t in X):
            continue
        holders = [t for t in avoid if e in support(t)]
        X.add(holders[draw(st.integers(0, len(holders) - 1))])
    return frozenset(X)


@st.composite
def near_covering_families(draw):
    """Families whose members cover all but fewer than sum(l - m) ground
    elements, so no candidate can route its extension through fresh ground
    and exists_uncovered_extension has to search."""
    a, m, l = draw(instances(a_min=2))
    need = sum(l) - sum(m)
    hypothesis.assume(sum(m) >= 1 and need >= 1)
    free = draw(st.sets(st.integers(0, a - 1),
                        max_size=min(need - 1, a - sum(m))))
    X = family_leaving_free(draw, a, m, free)
    covered = set().union(*map(support, X))
    assert a - len(covered) < need
    return a, m, l, X


@st.composite
def threshold_families(draw):
    """Families whose support leaves exactly sum(l) or sum(l) - 1 ground
    elements free: at and just below the point where interior_sparse
    returns X without testing any candidate."""
    a, m, l = draw(instances())
    free_count = sum(l) - draw(st.integers(0, 1))
    taken = a - free_count
    hypothesis.assume(0 <= free_count <= a)
    hypothesis.assume(taken == 0 or 1 <= sum(m) <= taken)
    free = set(draw(st.permutations(range(a)))[:free_count])
    X = family_leaving_free(draw, a, m, free)
    assert a - len(set().union(*map(support, X))) == free_count
    return a, m, l, X


def check_routes_agree(a, m, l, X):
    want = oracle_interior(a, m, l, X)
    assert interior(a, m, l, X) == want
    assert interior_sparse(a, m, l, X) == want


@given(families())
def test_interior_routes_match_oracle(case):
    check_routes_agree(*case)


@given(near_covering_families())
def test_interior_routes_match_oracle_near_covering(case):
    a, m, l, X = case
    for p in enum_disjoint_tuples(a, m):
        expect = any(not any(extends(x, q) for x in X)
                     for q in enum_disjoint_tuples(a, l) if extends(p, q))
        assert exists_uncovered_extension(a, p, l, X) == expect
    check_routes_agree(a, m, l, X)


@given(threshold_families())
def test_interior_routes_match_oracle_at_threshold(case):
    check_routes_agree(*case)


@given(st.one_of(families(), near_covering_families()))
def test_pullback_inverts_up_on_closed_families(case):
    a, m, l, X = case
    hypothesis.assume(sum(l) <= a)
    Y = interior(a, m, l, X)
    Z = up(a, m, l, Y)
    assert coding.pullback_Y(a, m, Z, l) == Y
    with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
        assert coding.pullback_Y(a, m, Z, l) == Y


def check_operators(a, m, l, X, Z):
    want = oracle_interior(a, m, l, X)
    assert up(a, m, l, X) == oracle_up(a, m, l, X)
    assert interior(a, m, l, X) == want
    assert boundary(a, m, l, X) == want - X
    assert down(a, m, l, Z) == oracle_down(a, m, l, Z)
    assert down(a, m, l, oracle_up(a, m, l, X)) == want


@given(st.one_of(families(), near_covering_families(), threshold_families()),
       st.data())
def test_operators_match_oracle_on_both_routes(case, data):
    """up, interior, boundary and down on the route fits_dense picks (dense
    at these sizes) and forced onto the sparse route, against the
    definitions; down also on l-families that are not up-closed."""
    a, m, l, X = case
    Z = subfamily(data.draw, list(enum_disjoint_tuples(a, l)))
    check_operators(a, m, l, X, Z)
    with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
        check_operators(a, m, l, X, Z)


def oracle_counterexample(sizes, query):
    """The first c-coloring, in itertools.product order (point 0 most
    significant), with no monochromatic r-witness; None if there is none."""
    j, c, r = query.j, query.c, query.r
    points = list(itertools.product(
        *(itertools.combinations(range(N), jj) for N, jj in zip(sizes, j))
    ))
    witnesses = list(itertools.product(
        *(itertools.combinations(range(N), r) for N in sizes)
    ))
    for colors in itertools.product(range(c), repeat=len(points)):
        col = ProductColoring(sizes, j, dict(zip(points, colors)))
        if not any(check_witness(col, Ts, d, r)
                   for Ts in witnesses for d in range(c)):
            return col.colors
    return None


@st.composite
def ramsey_instances(draw):
    """Small grids (1-2 coordinates, j <= 2, c <= 3) with c^P <= 4096.
    Witnesses exist and are not empty (j < r <= N), so the search runs;
    test_ramsey.py covers the regimes answered without one."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    j = tuple(draw(st.integers(0, min(2, r - 1))) for _ in range(n))
    sizes = tuple(draw(st.integers(r, 5)) for _ in range(n))
    c = draw(st.integers(1, 3))
    hypothesis.assume(c ** prod(comb(N, jj) for N, jj in zip(sizes, j)) <= 4096)
    return sizes, RamseyQuery(j, c, r)


@given(ramsey_instances())
def test_ramsey_search_matches_oracle(case):
    sizes, query = case
    want = oracle_counterexample(sizes, query)
    pruned = has_property(sizes, query, prune=True)
    full = has_property(sizes, query, prune=False)
    assert pruned.holds == full.holds == (want is None)
    # both searches return the lex-least counterexample; it replays
    # because the oracle checked it with check_witness
    if want is not None:
        assert pruned.counterexample == full.counterexample == want
    assert pruned.searched <= full.searched
