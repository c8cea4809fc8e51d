import itertools

import pytest

from finpart.core import enum_B_n, enum_disjoint_tuples, ns_blocks
from finpart.maps import (
    bfin_map,
    disjoint_to_fin,
    fin_to_disjoint,
    index_subset,
    ns_injection,
    subset_index,
    tuple_to_partition,
)


def all_subsets(a):
    return [
        s for k in range(a + 1) for s in itertools.combinations(range(a), k)
    ]


def test_fin_to_disjoint_example():
    # one element in both sets, one in only the first, one in only the second
    q = fin_to_disjoint(((0, 1), (1, 2)))
    assert q == ((0,), (2,), (1,))
    assert disjoint_to_fin(q, 2) == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="at least one subset"):
        fin_to_disjoint(())
    with pytest.raises(ValueError, match="expected 7 components for n=3, got 3"):
        disjoint_to_fin(q, 3)


def test_bijection_exhaustive_small():
    for n in (1, 2):
        seen = set()
        for s in itertools.product(all_subsets(3), repeat=n):
            q = fin_to_disjoint(s)
            assert len(q) == (1 << n) - 1
            assert disjoint_to_fin(q, n) == s
            seen.add(q)
        assert len(seen) == (2 ** 3) ** n


def test_index_subset_roundtrip():
    for n in (1, 2, 3):
        for i in range(1, 1 << n):
            assert subset_index(index_subset(i, n), n) == i
    with pytest.raises(ValueError):
        index_subset(0, 2)
    with pytest.raises(ValueError):
        subset_index(frozenset(), 2)


def test_tuple_to_partition():
    P, lands = tuple_to_partition(5, ((0, 1), (2, 3)))
    assert lands
    assert ns_blocks(P) == ((0, 1), (2, 3))
    # a singleton component collapses into the singletons, so it misses
    P, lands = tuple_to_partition(5, ((0, 1), (2,)))
    assert not lands
    assert ns_blocks(P) == ((0, 1),)


def test_tuple_to_partition_surjectivity_shadow():
    """Every partition with n non-singleton blocks arises from a tuple
    that lands, for every small a and n."""
    for a in range(6):
        for n in (1, 2):
            image = set()
            for m in itertools.product(range(2, a + 1), repeat=n):
                for t in enum_disjoint_tuples(a, m):
                    P, lands = tuple_to_partition(a, t)
                    if lands:
                        image.add(P)
            assert image == set(enum_B_n(a, n)), (a, n)


def test_bfin_map_defined_case():
    # two sets meeting in a 2-element class each way: needs >= 6 elements
    P, reason = bfin_map(8, [(0, 1, 4, 5), (2, 3, 4, 5)])
    assert reason is None
    assert ns_blocks(P) == ((0, 1), (2, 3), (4, 5))


def test_bfin_map_undefined_cases():
    with pytest.raises(ValueError, match="distinct"):
        bfin_map(4, [(0, 1), (0, 1)])
    P, reason = bfin_map(4, [(0, 1), (2, 3)])
    assert P is None and "missing" in reason
    P, reason = bfin_map(5, [(0, 1, 4), (2, 3, 4)])
    assert P is None and "singleton" in reason


def test_bfin_map_reasons_name_the_class():
    # signatures {0, 1}, {0, 2}, {1, 2} and {0, 1, 2} (indices 3, 5, 6 and
    # 7) are empty: the reason names the first by index
    assert bfin_map(6, [(0, 1), (2, 3), (4, 5)]) == (
        None, "missing signature class [0, 1]")
    # (5,) has the lower index ({1}) and (4,) the least element
    assert bfin_map(6, [(0, 1, 4), (4, 5)]) == (
        None, "singleton signature class (4,)")


def test_bfin_map_rejects_elements_outside_the_ground_set():
    # 9 is outside {0..3}: refused, not dropped into a "missing" reason
    with pytest.raises(ValueError, match="out of range"):
        bfin_map(4, [(0, 1, 9), (2, 3)])


def test_ns_injection_injective():
    seen = {}
    for P in enum_B_n(5, 1):
        key = ns_injection(P)
        assert key not in seen
        seen[key] = P


@pytest.mark.parametrize("component", [frozenset({0, 1}), {0, 1}],
                         ids=["frozenset", "set"])
def test_set_component_is_not_a_canonical_subset(component):
    # a set is refused for what it is, not by a TypeError from indexing it
    with pytest.raises(ValueError, match="not a canonical subset"):
        tuple_to_partition(5, (component,))
