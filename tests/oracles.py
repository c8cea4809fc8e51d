"""Oracles written from the definitions, shared by the operator, symmetry,
Ramsey and property tests.  The operator oracles list l-tuples with
`enum_disjoint_tuples` and test extension by set inclusion, so they never
read `enum_extensions`, from which every dense space builds its extension
masks."""

from finpart.core import enum_disjoint_tuples
from finpart.ramsey import SearchResult, has_property


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


def oracle_fixing_transposition(p, B):
    """The two least elements of B in the first class that holds two of
    them, the classes tried in order: the non-empty components of p by
    least element, then the elements outside every component; None when
    no class holds two."""
    comps = sorted((set(c) for c in p if c), key=min)
    for cls in comps + [set(B).difference(*comps)]:
        hits = sorted(set(B) & cls)
        if len(hits) >= 2:
            return hits[0], hits[1]
    return None


def oracle_search_min_N(query, cap, max_colorings):
    """The least N <= cap at which the property holds, by the unpruned
    search at N = 0, 1, ..., cap in turn, so no counting bound is read;
    the counterexample kept is the last one found."""
    out = SearchResult(cap=cap)
    for N in range(cap + 1):
        res = has_property((N,) * len(query.j), query,
                           max_colorings=max_colorings, prune=False)
        out.searched_total += res.searched
        if res.holds:
            out.value = N
            return out
        out.counterexample, out.counterexample_N = res.counterexample, N
    return out
