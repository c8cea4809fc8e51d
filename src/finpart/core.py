"""Finite combinatorics kernel over the ground set {0, ..., a-1}.

Canonical forms used throughout the package:

* subset          -- tuple of strictly increasing ints
* disjoint tuple  -- tuple of subsets, pairwise disjoint
* partition       -- tuple of blocks (subsets), sorted by least element

All enumeration orders are deterministic and documented per function.
Counting uses Python's arbitrary-precision ints throughout.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb, factorial


# ---------------------------------------------------------------------------
# canonical forms and validation

def as_subset(elems):
    """Canonical subset (sorted, deduplicated tuple) from an iterable."""
    return tuple(sorted(set(elems)))


def check_disjoint_tuple(t, a, profile=None):
    """Validate a tuple of pairwise disjoint canonical subsets of {0..a-1}
    (strictly increasing tuples of ints, not bools) of the size profile, if
    one is given, in one pass over the elements; a tuple that fails it goes
    on to the checks that name the fault (ValueError).  A member must be a
    tuple or a list: a set has no component order to read.  Returns the
    member as a tuple of tuples (`t` itself when it is one), the form in
    which every operator and coder route reads it, so lists read as
    tuples."""
    try:
        comps = iter(t)
    except TypeError:  # a number, say: no components at all
        raise ValueError(f"not a tuple of components: {t!r}") from None
    used = 0  # the elements seen so far, as bits
    for c in comps:
        if type(c) is not tuple:
            break
        prev = -1
        for x in c:
            # an int, above the last (so not negative), below a, not yet seen
            if type(x) is not int or x <= prev or x >= a or used >> x & 1:
                break
            used |= 1 << x
            prev = x
        else:
            continue
        break
    else:
        if profile is None or profile_of(t) == tuple(profile):
            if type(t) is tuple:
                return t
            if type(t) is list:
                return tuple(t)
    if not isinstance(t, (tuple, list)):
        raise ValueError(f"not a tuple of components: {t!r}")
    for c in t:
        if (not isinstance(c, (tuple, list)) or any(type(x) is not int for x in c)
                or list(c) != sorted(set(c))):
            raise ValueError(f"not a canonical subset: {c!r}")
        if c and (c[0] < 0 or c[-1] >= a):
            raise ValueError(f"element out of range [0, {a}): {c!r}")
    if len(set().union(*t)) < sum(map(len, t)):
        raise ValueError(f"components not pairwise disjoint: {t!r}")
    if profile is not None and profile_of(t) != tuple(profile):
        raise ValueError(f"tuple {t!r} does not match profile {tuple(profile)}")
    return tuple(map(tuple, t))


def profile_of(t):
    """Size profile (|t_1|, ..., |t_n|) of a disjoint tuple."""
    return tuple(map(len, t))


# ---------------------------------------------------------------------------
# enumeration

def enum_extensions(a, p, l):
    """All l-profile tuples of pairwise disjoint subsets of {0..a-1} that
    contain the disjoint tuple p componentwise, ordered lexicographically
    by the concatenation of the elements added to each component.  Empty
    stream when some l[i] < |p[i]| or the free elements run out.

    Returns an iterator; a negative entry of l raises ValueError on the
    call.  Each component but the last walks the combinations of the
    elements still free and filters the free list once per choice; the
    last component's tuples stream from itertools.combinations, each
    joined to its prefix by a C-level map, and the levels are joined by
    chain.from_iterable, so no Python frame runs per yielded tuple.
    """
    if any(li < 0 for li in l):
        raise ValueError("profile entries must be non-negative")
    need = [li - len(c) for c, li in zip(p, l)]
    if any(k < 0 for k in need):
        return iter(())
    if not p:
        return iter(((),))
    last = len(p) - 1

    def level(i, prefix, free):
        base, k = p[i], need[i]
        if i == last:
            comps = itertools.combinations(free, k)
            if base:
                comps = map(tuple, map(sorted, map(base.__add__, comps)))
            return map(prefix.__add__, zip(comps)) if prefix else zip(comps)
        return itertools.chain.from_iterable(
            level(i + 1, prefix + (tuple(sorted(base + extra)) if base else extra,),
                  list(itertools.filterfalse(set(extra).__contains__, free)))
            for extra in itertools.combinations(free, k))

    used = {x for c in p for x in c}
    return level(0, (), [x for x in range(a) if x not in used])


def enum_disjoint_tuples(a, profile):
    """All tuples of pairwise disjoint subsets of {0..a-1} with the given
    size profile, ordered lexicographically by the concatenation of their
    canonical components: the extensions of the tuple of empty sets.
    Empty stream when sum(profile) > a.
    """
    profile = tuple(profile)
    return enum_extensions(a, ((),) * len(profile), profile)


def _assignments(elems, n):
    """The n-tuples of disjoint subsets of `elems` (ascending) in the
    order of enum_O_n over those elements."""
    table = [((),) * n]
    for x in elems:
        table = [t if c < 0 else t[:c] + (t[c] + (x,),) + t[c + 1:]
                 for t in table for c in range(-1, n)]
    return table


def enum_O_n(a, n):
    """All n-tuples of pairwise disjoint (possibly empty) subsets of
    {0..a-1}: exactly (n+1)**a of them.

    Order: by the element-to-component assignment vector, where value 0
    means "in no component" and value i places the element in component i.

    Returns an iterator; a negative n raises ValueError on the call.  The
    vector is split into its first a//2 elements and the rest, and each
    half's assignments are listed once: (n+1)**(a//2) tuples for the low
    half and n columns of (n+1)**ceil(a/2) subsets for the high half, near
    the square root of the (n+1)**a tuples yielded: 1,024 per column at
    (a, n) = (19, 1) or (10, 3), rows of 524,288 and 1,048,576 tuples.
    Per low-half tuple, each column is extended by that tuple's component
    in a C-level map, and the columns are zipped into the yielded tuples,
    so no Python frame runs per tuple.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:  # no columns to zip: the one empty tuple
        return iter(((),))
    h = a // 2
    cols = tuple(zip(*_assignments(range(h, a), n)))
    return itertools.chain.from_iterable(
        zip(*[map(c.__add__, col) for c, col in zip(lo, cols)])
        for lo in _assignments(range(h), n))


def enum_set_partitions(a):
    """All partitions of {0..a-1} in restricted-growth order.

    Blocks come out sorted by least element, so every partition is canonical.
    """
    blocks = []

    def rec(i):
        if i == a:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def ns_blocks(P):
    """The non-singleton blocks of a partition, in canonical order."""
    return tuple(b for b in P if len(b) >= 2)


def enum_B_n(a, n):
    """All finitary partitions of {0..a-1} with exactly n non-singleton
    blocks, in restricted-growth order of the underlying set partitions.

    The traversal of enum_set_partitions, pruned where no completion has
    n non-singleton blocks: their count never falls, and each unplaced
    element can join at most one singleton while the rest pair up.  Every
    node visited has a completion, so the cost is proportional to |B_n(a)|.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    blocks = []

    def rec(i, ns, single):
        # ns non-singleton and `single` singleton blocks hold range(i)
        left = a - i
        grow = min(single, left)
        if ns > n or ns + grow + (left - grow) // 2 < n:
            return
        if i == a:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            was_single = len(b) == 1
            b.append(i)
            yield from rec(i + 1, ns + was_single, single - was_single)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, ns, single + 1)
        blocks.pop()

    yield from rec(0, 0, 0)


# ---------------------------------------------------------------------------
# counting

@cache
def assoc_stirling(j, n):
    """Number of partitions of a j-set into exactly n blocks of size >= 2.

    Recurrence: b(j, n) = n*b(j-1, n) + (j-1)*b(j-2, n-1), b(0, 0) = 1.
    """
    if j < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    if n == 0:
        return 1 if j == 0 else 0
    if j < 2 * n:
        return 0
    return n * assoc_stirling(j - 1, n) + (j - 1) * assoc_stirling(j - 2, n - 1)


def count_B_n(a, n):
    """|enum_B_n(a, n)|: choose which elements sit in non-singleton blocks,
    then partition them with every block of size >= 2."""
    if a < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    return sum(comb(a, j) * assoc_stirling(j, n) for j in range(a + 1))


def count_disjoint_tuples(a, profile):
    """|enum_disjoint_tuples(a, profile)| in closed form."""
    profile = tuple(profile)
    total = sum(profile)
    if total > a:
        return 0
    out = factorial(a) // factorial(a - total)
    for m in profile:
        out //= factorial(m)
    return out


def count_extensions(a, m, l):
    """Number of l-extensions of any single m-profile tuple: the disjoint
    (l - m)-profile tuples over the a - sum(m) elements it leaves free."""
    return count_disjoint_tuples(a - sum(m), [li - mi for mi, li in zip(m, l)])


# ---------------------------------------------------------------------------
# partitions

def canonicalize_partition(a, blocks):
    """Canonical form of a partition of {0..a-1}.

    Raises ValueError naming the offending block on overlap, an empty
    block, a repeated or out-of-range element, or incomplete cover.
    """
    covered = {}
    canon = []
    for b in blocks:
        b = tuple(b)
        cb = as_subset(b)
        if not cb:
            raise ValueError("empty block")
        if len(cb) != len(b):
            raise ValueError(f"block {b!r} repeats an element")
        for x in cb:
            if not 0 <= x < a:
                raise ValueError(f"element {x} of block {cb!r} out of range [0, {a})")
            if x in covered:
                raise ValueError(f"overlap at element {x} between {covered[x]!r} and {cb!r}")
            covered[x] = cb
        canon.append(cb)
    for x in range(a):
        if x not in covered:
            raise ValueError(f"element {x} uncovered")
    canon.sort(key=lambda b: b[0])
    return tuple(canon)


def partition_from_ns(a, ns):
    """Partition of {0..a-1} with the pairwise disjoint blocks `ns` kept
    as-is (empty ones dropped) and every remaining element a singleton."""
    blocks = [as_subset(b) for b in ns if b]
    used = {x for b in blocks for x in b}
    blocks.extend((x,) for x in range(a) if x not in used)
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)
