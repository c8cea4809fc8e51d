"""Canonical maps between tuple spaces and finitary partitions.

Contains the tuple-to-partition surjection, the bijection pair between
n-sequences of finite subsets and (2^n - 1)-tuples of pairwise disjoint
subsets, and their composition: the partial map from n-sets of subsets
onto partitions with 2^n - 1 non-singleton blocks.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .core import as_subset, check_disjoint_tuple, ns_blocks, partition_from_ns


def tuple_to_partition(a, t):
    """Map a disjoint tuple to the partition whose blocks are its non-empty
    components plus a singleton for every uncovered element.

    Returns (partition, lands) where lands is True iff the partition has
    exactly len(t) non-singleton blocks.
    """
    check_disjoint_tuple(t, a)
    P = partition_from_ns(a, t)
    return P, len(ns_blocks(P)) == len(t)


def index_subset(i, n):
    """The canonical bijection {1..2^n-1} -> non-empty subsets of {0..n-1}:
    i maps to its set of one-bits."""
    if not 1 <= i < (1 << n):
        raise ValueError(f"index {i} outside {{1..2^{n}-1}}")
    return frozenset(k for k in range(n) if i >> k & 1)


def subset_index(s, n):
    """Inverse of index_subset."""
    i = sum(1 << k for k in s)
    if not 1 <= i < (1 << n):
        raise ValueError(f"subset {set(s)!r} not a non-empty subset of {{0..{n - 1}}}")
    return i


def fin_to_disjoint(s):
    """Encode a sequence of n subsets as a (2^n - 1)-tuple of pairwise
    disjoint subsets: component i holds the elements lying in exactly the
    sets indexed by the one-bits of i.  One pass: each element of the
    union goes to the group of its membership signature, in sorted order,
    so every group comes out sorted; only the signatures that occur get a
    group, and every other component is empty."""
    n = len(s)
    if n < 1:
        raise ValueError("need at least one subset")
    sig = {}
    for k, x in enumerate(s):
        bit = 1 << k
        for e in x:
            sig[e] = sig.get(e, 0) | bit
    groups = {}
    for e in sorted(sig):
        groups.setdefault(sig[e], []).append(e)
    comps = [()] * ((1 << n) - 1)
    for i, group in groups.items():
        comps[i - 1] = tuple(group)
    return tuple(comps)


@cache
def _bit_getters(n):
    """Per k < n, a getter of the components of a fin_to_disjoint tuple
    whose index has bit k set.  itemgetter of one position returns the
    item itself, so a lone component (n = 1) is got as a slice."""
    out = []
    for k in range(n):
        held = [i - 1 for i in range(1, 1 << n) if i >> k & 1]
        out.append(itemgetter(*held) if len(held) > 1
                   else itemgetter(slice(held[0], held[0] + 1)))
    return tuple(out)


def disjoint_to_fin(q, n):
    """Inverse of fin_to_disjoint: rebuild the n subsets by joining the
    components whose index has the corresponding bit set.

    q is a sequence of 2^n - 1 tuples of ints, as fin_to_disjoint returns;
    a component of another type, such as a list, raises TypeError.  Raises
    ValueError when two components share an element (or one repeats an
    element), so each subset is its disjoint components' concatenation,
    sorted, with no set built per subset."""
    if len(q) != (1 << n) - 1:
        raise ValueError(f"expected {(1 << n) - 1} components for n={n}, got {len(q)}")
    flat = sum(q, ())
    if len(set(flat)) != len(flat):
        raise ValueError(f"components of {q!r} overlap")
    return tuple([tuple(sorted(sum(get(q), ()))) for get in _bit_getters(n)])


def bfin_map(a, sets):
    """Partial map from an n-set of distinct subsets of {0..a-1} to a
    partition with 2^n - 1 non-singleton blocks: fin_to_disjoint buckets
    the elements by membership signature and tuple_to_partition makes the
    classes blocks and the elements in no set singletons.

    Defined iff the tuple lands, that is iff every signature class has at
    least 2 elements.  Returns (partition, None) when defined, (None,
    reason) otherwise; the reason names the first empty class by index,
    else the undersized class with the least element."""
    sets = [as_subset(s) for s in sets]
    if len(set(sets)) != len(sets):
        raise ValueError("sets must be distinct")
    q = fin_to_disjoint(sets)
    P, lands = tuple_to_partition(a, q)
    if lands:
        return P, None
    if () in q:
        missing = index_subset(q.index(()) + 1, len(sets))
        return None, f"missing signature class {sorted(missing)}"
    return None, f"singleton signature class {min(c for c in q if len(c) < 2)}"


def ns_injection(P):
    """The set of non-singleton blocks of a partition.  Injective on the
    partitions of a fixed ground set."""
    return frozenset(ns_blocks(P))
