"""Operator oracles written from the definitions, shared by the operator
and property tests.  They list l-tuples with `enum_disjoint_tuples` and
test extension by set inclusion, so they never read `enum_extensions`,
from which every dense space builds its extension masks."""

from finpart.core import enum_disjoint_tuples


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
