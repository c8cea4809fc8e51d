"""The up-closure / interior / boundary operator calculus on families of
disjoint tuples.

For size profiles m <= l (componentwise), a family X of m-profile tuples
maps to:

* up(X)       -- all l-profile tuples extending some member of X
* interior(X) -- all m-profile tuples every l-extension of which lies in
                 up(X); tuples with no l-extension are vacuously accepted
* boundary(X) -- interior(X) minus X

boundary is nilpotent with index at most sum(m) + 1 once the ground set is
large enough; on small ground sets iteration may cycle, which is detected
and reported rather than looped on.

Families are frozensets of canonical tuples.  Operators run on one of two
routes, chosen by `fits_dense` from closed-form counts alone: dense bitmasks
over the enumeration orders of both profile spaces, when they fit its
budgets, and otherwise a sparse backtracking search that indexes neither
side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

from .core import (
    as_subset,
    check_disjoint_tuple,
    count_disjoint_tuples,
    enum_disjoint_tuples,
    is_disjoint,
)


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


# ---------------------------------------------------------------------------
# componentwise tuple order

def tuple_extends(p, q):
    """True iff p_i is a subset of q_i for every component."""
    if len(p) != len(q):
        raise ValueError("arity mismatch")
    return all(set(x) <= set(y) for x, y in zip(p, q))


def tuple_join(p, q):
    """Componentwise union; rejects results whose components collide."""
    if len(p) != len(q):
        raise ValueError("arity mismatch")
    out = tuple(as_subset(set(x) | set(y)) for x, y in zip(p, q))
    if not is_disjoint(out):
        raise ValueError(f"join of {p!r} and {q!r} has colliding components")
    return out


def tuple_meet(p, q):
    """Componentwise intersection."""
    if len(p) != len(q):
        raise ValueError("arity mismatch")
    return tuple(as_subset(set(x) & set(y)) for x, y in zip(p, q))


def check_profiles(m, l):
    m, l = tuple(m), tuple(l)
    if len(m) != len(l):
        raise ValueError(f"profile arity mismatch: {m} vs {l}")
    if any(mi > li for mi, li in zip(m, l)):
        raise ValueError(f"profile {m} does not fit under {l}")
    if any(x < 0 for x in m + l):
        raise ValueError("profile entries must be non-negative")
    return m, l


def enum_extensions(a, p, l):
    """All l-profile tuples q with p componentwise contained in q, in
    deterministic order (extra elements chosen lexicographically per
    component)."""
    n = len(p)
    if any(l[i] < len(p[i]) for i in range(n)):
        return
    base = frozenset(x for c in p for x in c)

    def rec(i, used):
        if i == n:
            yield ()
            return
        need = l[i] - len(p[i])
        avail = [x for x in range(a) if x not in used]
        for extra in itertools.combinations(avail, need):
            comp = as_subset(p[i] + extra)
            for rest in rec(i + 1, used | set(extra)):
                yield (comp,) + rest

    yield from rec(0, base)


def count_extensions(a, m, l):
    """Number of l-extensions of any single m-profile tuple."""
    rest = a - sum(m)
    out = 1
    for mi, li in zip(m, l):
        out *= comb(rest, li - mi)
        rest -= li - mi
    return max(out, 0)


# ---------------------------------------------------------------------------
# dense index spaces

# A dense space holds every m- and l-tuple with an index dict over each
# (about 200 bytes per tuple), plus one l_size-bit extension mask per
# m-tuple.  The bit budget also bounds the build, which sets at most
# l_size bits in each mask.
_TUPLE_BUDGET = 1 << 15
_BIT_BUDGET = 1 << 20


def fits_dense(a, m, l):
    """True iff the (a, m, l) operator runs on dense bitmasks, decided from
    the closed-form sizes of both profile spaces; otherwise the sparse
    route applies and `profile_space` refuses to build."""
    m_size = count_disjoint_tuples(a, m)
    l_size = count_disjoint_tuples(a, l)
    return m_size + l_size <= _TUPLE_BUDGET and m_size * l_size <= _BIT_BUDGET


@dataclass
class ProfileSpace:
    """Precomputed index structures for one (a, m, l) operator instance."""

    a: int
    m: tuple
    l: tuple
    m_tuples: tuple
    m_index: dict
    l_size: int
    ext: list          # per m-tuple: bitmask of its l-extensions
    l_tuples: tuple
    l_index: dict

    @property
    def full_m_mask(self):
        return (1 << len(self.m_tuples)) - 1


@cache
def profile_space(a, m, l):
    """Build (and cache) the dense index space for one operator instance.

    Raises BudgetExceeded, before building anything, when `fits_dense`
    says no.
    """
    m, l = check_profiles(m, l)
    if not fits_dense(a, m, l):
        raise BudgetExceeded(
            f"O_{m}({a}) x O_{l}({a}) is over the dense budget "
            f"({_TUPLE_BUDGET} tuples, {_BIT_BUDGET} mask bits)"
        )
    m_tuples = tuple(enum_disjoint_tuples(a, m))
    m_index = {t: i for i, t in enumerate(m_tuples)}
    l_tuples = tuple(enum_disjoint_tuples(a, l))
    l_index = {t: i for i, t in enumerate(l_tuples)}
    ext = []
    for p in m_tuples:
        mask = 0
        for q in enum_extensions(a, p, l):
            mask |= 1 << l_index[q]
        ext.append(mask)
    return ProfileSpace(a, m, l, m_tuples, m_index, len(l_tuples), ext,
                        l_tuples, l_index)


def family_to_mask(sp, X):
    mask = 0
    for t in X:
        mask |= 1 << sp.m_index[t]
    return mask


def mask_to_family(sp, mask):
    return frozenset(
        sp.m_tuples[i] for i in range(len(sp.m_tuples)) if mask >> i & 1
    )


def up_mask(sp, xmask):
    g = 0
    x = xmask
    while x:
        low = x & -x
        g |= sp.ext[low.bit_length() - 1]
        x ^= low
    return g


def interior_mask(sp, xmask):
    g = up_mask(sp, xmask)
    r = 0
    for i, e in enumerate(sp.ext):
        if e & g == e:
            r |= 1 << i
    return r


def boundary_mask(sp, xmask):
    return interior_mask(sp, xmask) & ~xmask & sp.full_m_mask


# ---------------------------------------------------------------------------
# set-level operator API

def _space(a, m, l, X=None):
    m, l = check_profiles(m, l)
    sp = profile_space(a, m, l)
    if X is not None:
        for t in X:
            check_disjoint_tuple(t, a, profile=m)
    return sp


def up(a, m, l, X):
    """All l-profile tuples extending some member of X."""
    sp = _space(a, m, l, X)
    g = up_mask(sp, family_to_mask(sp, X))
    return frozenset(sp.l_tuples[i] for i in range(sp.l_size) if g >> i & 1)


def interior(a, m, l, X):
    """All m-profile tuples whose every l-extension lies in up(X)."""
    sp = _space(a, m, l, X)
    return mask_to_family(sp, interior_mask(sp, family_to_mask(sp, X)))


def boundary(a, m, l, X):
    """interior(X) minus X."""
    sp = _space(a, m, l, X)
    return mask_to_family(sp, boundary_mask(sp, family_to_mask(sp, X)))


def boundary_power(a, m, l, X, k):
    """k-fold application of boundary; k == 0 returns X unchanged."""
    if k < 0:
        raise ValueError("k must be non-negative")
    sp = _space(a, m, l, X)
    mask = family_to_mask(sp, X)
    for _ in range(k):
        mask = boundary_mask(sp, mask)
    return mask_to_family(sp, mask)


@dataclass(frozen=True)
class CycleReport:
    """Evidence that boundary iteration entered a cycle instead of
    reaching the empty family."""

    start: int      # first step at which the repeated family appeared
    period: int
    family: tuple   # the repeated family, as a sorted tuple of tuples


def nilpotency_index(a, m, l, X):
    """Least k with boundary^(k)(X) empty, or a CycleReport if iteration
    revisits a non-empty family (possible on small ground sets, where the
    interior operator can be vacuous)."""
    sp = _space(a, m, l, X)
    mask = family_to_mask(sp, X)
    seen = {}
    step = 0
    while True:
        if mask == 0:
            return step
        if mask in seen:
            return CycleReport(
                start=seen[mask],
                period=step - seen[mask],
                family=tuple(sorted(mask_to_family(sp, mask))),
            )
        seen[mask] = step
        mask = boundary_mask(sp, mask)
        step += 1


# ---------------------------------------------------------------------------
# sparse interior test (no l-side materialization)

def exists_uncovered_extension(a, p, l, members, max_nodes=2_000_000):
    """True iff some l-extension of p avoids every member of `members`
    (i.e. no member is componentwise contained in it).

    Backtracking search; members are expected to share p's profile.  Fast
    when the members' supports leave fresh elements to route the extension
    through; raises BudgetExceeded if the search exceeds max_nodes.
    """
    n = len(p)
    if any(l[i] < len(p[i]) for i in range(n)):
        return False  # no extensions at all
    members = [tuple(frozenset(c) for c in t) for t in members]
    psets = [frozenset(c) for c in p]
    # a member contained in p itself is contained in every extension
    for t in members:
        if all(t[i] <= psets[i] for i in range(n)):
            return False
    need = [l[i] - len(p[i]) for i in range(n)]
    base = set().union(*psets) if psets else set()
    support = set(base)
    for t in members:
        for c in t:
            support |= c
    if a - len(support) >= sum(need):
        return True  # route all extra elements through fresh ground

    # prefer elements outside the members' supports, so avoiding
    # extensions are found early
    order = sorted(range(a), key=lambda x: (x in support, x))

    qsets = [set(c) for c in psets]
    used = set(base)
    nodes = 0

    def covered():
        return any(all(t[i] <= qsets[i] for i in range(n)) for t in members)

    def rec(i, start):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded("uncovered-extension search exceeded its node budget")
        if covered():
            return False
        while i < n and need[i] == 0:
            i, start = i + 1, 0
        if i == n:
            return True
        for pos in range(start, a):
            x = order[pos]
            if x in used:
                continue
            qsets[i].add(x)
            used.add(x)
            need[i] -= 1
            ok = rec(i, pos + 1) if need[i] else rec(i + 1, 0)
            need[i] += 1
            used.discard(x)
            qsets[i].discard(x)
            if ok:
                return True
        return False

    return rec(0, 0)


def interior_sparse(a, m, l, X, candidates=None, max_nodes=2_000_000):
    """interior(X) computed without materializing the l-side.

    candidates restricts the tuples tested for membership (default: X
    itself plus nothing else is NOT sound for general use, so the default
    tests every m-profile tuple).
    """
    m, l = check_profiles(m, l)
    X = frozenset(X)
    if candidates is None:
        candidates = enum_disjoint_tuples(a, m)
    out = []
    for p in candidates:
        if p in X:
            out.append(p)  # members are always interior points
            continue
        if not exists_uncovered_extension(a, p, l, X, max_nodes=max_nodes):
            out.append(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# feasibility oracle for the nilpotency bound

def nilpotency_holds(a, m, l, mode="exhaustive", samples=1000, seed=0):
    """Check whether boundary^(sum(m)+1) vanishes for families over
    O_m({0..a-1}) with extension profile l.

    Returns (True, None) or (False, witness_family).  mode "exhaustive"
    sweeps all families (requires a small m-side); "random" draws seeded
    uniform families.
    """
    import random

    m, l = check_profiles(m, l)
    sp = profile_space(a, m, l)
    size = len(sp.m_tuples)
    bound = sum(m) + 1

    def check(mask):
        x = mask
        for _ in range(bound):
            x = boundary_mask(sp, x)
        return x == 0

    if mode == "exhaustive":
        if size > 24:
            raise BudgetExceeded(f"2^{size} families is over the exhaustive budget")
        masks = range(1 << size)
    elif mode == "random":
        rng = random.Random(seed)
        masks = (rng.getrandbits(size) for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    for mask in masks:
        if not check(mask):
            return False, tuple(sorted(mask_to_family(sp, mask)))
    return True, None
