import itertools

import pytest

from finpart.core import (
    as_subset,
    assoc_stirling,
    canonicalize_partition,
    count_B_n,
    count_disjoint_tuples,
    enum_B_n,
    enum_disjoint_tuples,
    enum_extensions,
    enum_O_n,
    enum_set_partitions,
    ns_blocks,
    partition_from_ns,
)


def test_enum_disjoint_tuples_count_and_order():
    got = list(enum_disjoint_tuples(4, (1, 2)))
    assert got == [
        ((0,), (1, 2)), ((0,), (1, 3)), ((0,), (2, 3)),
        ((1,), (0, 2)), ((1,), (0, 3)), ((1,), (2, 3)),
        ((2,), (0, 1)), ((2,), (0, 3)), ((2,), (1, 3)),
        ((3,), (0, 1)), ((3,), (0, 2)), ((3,), (1, 2)),
    ]
    assert len(got) == 12
    assert len(set(got)) == 12
    for t in got:
        assert len(t[0]) == 1 and len(t[1]) == 2
        assert not set(t[0]) & set(t[1])
    # deterministic: repeated enumeration is identical
    assert got == list(enum_disjoint_tuples(4, (1, 2)))


def test_enum_disjoint_tuples_overfull_is_empty():
    assert list(enum_disjoint_tuples(3, (2, 2))) == []


def test_count_disjoint_tuples_matches_enumeration():
    for a in range(7):
        for n in (1, 2):
            for m in itertools.product(range(4), repeat=n):
                got = sum(1 for _ in enum_disjoint_tuples(a, m))
                assert got == count_disjoint_tuples(a, m), (a, m)


def test_enum_O_n_order():
    # assignment vectors (0,0), (0,1), (0,2), (1,0), ..., (2,2)
    assert list(enum_O_n(2, 2)) == [
        ((), ()), ((1,), ()), ((), (1,)),
        ((0,), ()), ((0, 1), ()), ((0,), (1,)),
        ((), (0,)), ((1,), (0,)), ((), (0, 1)),
    ]


def test_enumerators_refuse_bad_sizes_on_the_call():
    # they return iterators, and check their sizes before any is drawn
    with pytest.raises(ValueError, match="non-negative"):
        enum_extensions(3, ((),), (-1,))
    with pytest.raises(ValueError, match="non-negative"):
        enum_disjoint_tuples(3, (1, -1))
    with pytest.raises(ValueError, match="non-negative"):
        enum_O_n(3, -1)
    with pytest.raises(ValueError, match="non-negative"):
        enum_B_n(3, -1)


def test_enum_O_n_counts():
    assert sum(1 for _ in enum_O_n(2, 2)) == 9
    assert sum(1 for _ in enum_O_n(4, 3)) == 256
    for a in range(5):
        for n in range(4):
            assert sum(1 for _ in enum_O_n(a, n)) == (n + 1) ** a


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for a, b in enumerate(bell):
        assert sum(1 for _ in enum_set_partitions(a)) == b


def test_partitions_canonical():
    for P in enum_set_partitions(5):
        assert P == canonicalize_partition(5, P)


def test_enum_B_n_example():
    got = list(enum_B_n(4, 2))
    assert len(got) == 3
    for P in got:
        assert len(ns_blocks(P)) == 2


def test_enum_B_n_is_the_filtered_set_partitions():
    """The pruned traversal yields the set partitions with exactly n
    non-singleton blocks, in the same order."""
    for a in range(10):
        parts = list(enum_set_partitions(a))
        for n in range(5):
            want = [P for P in parts if len(ns_blocks(P)) == n]
            assert list(enum_B_n(a, n)) == want, (a, n)


def test_assoc_stirling_values():
    assert assoc_stirling(4, 2) == 3
    assert assoc_stirling(5, 2) == 10
    assert assoc_stirling(3, 2) == 0
    assert assoc_stirling(0, 0) == 1
    assert assoc_stirling(2, 1) == 1
    for j, n in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            assoc_stirling(j, n)


def test_assoc_stirling_against_enumeration():
    for j in range(8):
        for n in range(4):
            direct = sum(
                1
                for P in enum_set_partitions(j)
                if len(P) == n and all(len(b) >= 2 for b in P)
            )
            assert assoc_stirling(j, n) == direct, (j, n)


def test_count_B_n_matches_enumeration():
    for a in range(8):
        for n in range(4):
            assert count_B_n(a, n) == sum(1 for _ in enum_B_n(a, n)), (a, n)
    for a, n in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            count_B_n(a, n)


def test_canonicalize_partition_errors():
    with pytest.raises(ValueError, match="overlap"):
        canonicalize_partition(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="uncovered"):
        canonicalize_partition(3, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        canonicalize_partition(2, [(0, 1, 5)])
    with pytest.raises(ValueError, match="empty"):
        canonicalize_partition(1, [(), (0,)])


def test_canonicalize_partition_refuses_repeated_element():
    with pytest.raises(ValueError, match=r"block \(0, 0\) repeats an element"):
        canonicalize_partition(2, [(0, 0), (1,)])
    with pytest.raises(ValueError, match=r"block \(1, 2, 2\) repeats"):
        canonicalize_partition(3, [(0,), [1, 2, 2]])


def test_partition_from_ns():
    P = partition_from_ns(5, [(1, 3)])
    assert P == ((0,), (1, 3), (2,), (4,))
    assert ns_blocks(P) == ((1, 3),)
    assert partition_from_ns(3, []) == ((0,), (1,), (2,))


def test_as_subset_dedup():
    assert as_subset([3, 1, 3, 0]) == (0, 1, 3)
