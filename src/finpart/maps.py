"""Canonical maps between tuple spaces and finitary partitions.

Contains the tuple-to-partition surjection, the bijection pair between
n-sequences of finite subsets and (2^n - 1)-tuples of pairwise disjoint
subsets, membership-signature equivalence classes, and the partial map
from n-sets of subsets onto partitions with 2^n - 1 non-singleton blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    as_subset,
    canonicalize_partition,
    check_disjoint_tuple,
    ns_blocks,
    partition_from_ns,
)


@dataclass(frozen=True)
class SignatureClasses:
    """Partition of the ground set by membership signature.

    inside maps each non-empty signature (frozenset of 0-based indices
    into the defining sequence of sets) to its class; outside holds the
    elements lying in none of the sets.
    """

    inside: dict
    outside: tuple


def signature_classes(a, sets):
    """Group {0..a-1} by which of the given sets each element belongs to.

    The sets need not be disjoint.  Elements in no set form the outside
    class.
    """
    sets = [frozenset(s) for s in sets]
    inside = {}
    outside = []
    for x in range(a):
        sig = frozenset(i for i, s in enumerate(sets) if x in s)
        if sig:
            inside.setdefault(sig, []).append(x)
        else:
            outside.append(x)
    return SignatureClasses(
        inside={k: tuple(v) for k, v in inside.items()},
        outside=tuple(outside),
    )


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
    union goes to the component indexed by its membership signature."""
    n = len(s)
    if n < 1:
        raise ValueError("need at least one subset")
    sig = {}
    for k, x in enumerate(s):
        for e in x:
            sig[e] = sig.get(e, 0) | 1 << k
    comps = [[] for _ in range((1 << n) - 1)]
    for e, i in sig.items():
        comps[i - 1].append(e)
    return tuple(tuple(sorted(c)) for c in comps)


def disjoint_to_fin(q, n):
    """Inverse of fin_to_disjoint: rebuild the n subsets by unioning the
    components whose index has the corresponding bit set."""
    if len(q) != (1 << n) - 1:
        raise ValueError(f"expected {(1 << n) - 1} components for n={n}, got {len(q)}")
    out = []
    for k in range(n):
        members = set()
        for i in range(1, 1 << n):
            if i >> k & 1:
                members.update(q[i - 1])
        out.append(as_subset(members))
    return tuple(out)


def bfin_map(a, sets):
    """Partial map from an n-set of distinct subsets to a partition with
    2^n - 1 non-singleton blocks.

    Defined iff all 2^n - 1 inside signature classes are non-empty with
    size >= 2; then the inside classes become blocks and the outside
    elements become singletons.  Returns (partition, None) when defined,
    (None, reason) otherwise.
    """
    sets = [as_subset(s) for s in sets]
    if len(set(sets)) != len(sets):
        raise ValueError("sets must be distinct")
    n = len(sets)
    if n < 1:
        raise ValueError("need at least one set")
    sc = signature_classes(a, sets)
    if len(sc.inside) < (1 << n) - 1:
        missing = next(
            index_subset(i, n)
            for i in range(1, 1 << n)
            if index_subset(i, n) not in sc.inside
        )
        return None, f"missing signature class {sorted(missing)}"
    small = [c for c in sc.inside.values() if len(c) < 2]
    if small:
        return None, f"singleton signature class {small[0]}"
    blocks = list(sc.inside.values()) + [(x,) for x in sc.outside]
    return canonicalize_partition(a, blocks), None


def ns_injection(P):
    """The set of non-singleton blocks of a partition.  Injective on the
    partitions of a fixed ground set."""
    return frozenset(ns_blocks(P))
