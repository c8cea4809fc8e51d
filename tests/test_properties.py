"""Property tests: both operator routes and the coder's pullback against
naive oracles written from the definitions."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from finpart import coding  # noqa: E402
from finpart.core import enum_disjoint_tuples  # noqa: E402
from finpart.operators import (  # noqa: E402
    exists_uncovered_extension,
    interior,
    interior_sparse,
    up,
)


def extends(p, q):
    return all(set(x) <= set(y) for x, y in zip(p, q))


def oracle_interior(a, m, l, X):
    """m-tuples all of whose l-extensions extend some member of X."""
    l_tuples = list(enum_disjoint_tuples(a, l))
    return frozenset(
        p for p in enum_disjoint_tuples(a, m)
        if all(any(extends(x, q) for x in X) for q in l_tuples if extends(p, q))
    )


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
    avoid = [t for t in enum_disjoint_tuples(a, m) if not support(t) & free]
    X = set(subfamily(draw, avoid))
    for e in range(a):
        if e in free or any(e in support(t) for t in X):
            continue
        holders = [t for t in avoid if e in support(t)]
        X.add(holders[draw(st.integers(0, len(holders) - 1))])
    covered = set().union(*map(support, X))
    assert a - len(covered) < need
    return a, m, l, frozenset(X)


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


@given(st.one_of(families(), near_covering_families()))
def test_pullback_inverts_up_on_closed_families(case):
    a, m, l, X = case
    hypothesis.assume(sum(l) <= a)
    Y = interior(a, m, l, X)
    Z = up(a, m, l, Y)
    assert coding.pullback_Y(a, m, Z, l) == Y
    with mock.patch.object(coding, "fits_dense", lambda a, m, l: False):
        assert coding.pullback_Y(a, m, Z, l) == Y
