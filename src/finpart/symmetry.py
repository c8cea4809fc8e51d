"""Permutation actions on the package's nested objects, finite supports,
even/odd orbit pairs, and the deleted-projection preorder on partitions.

Permutations are image tables (tuples) on {0..a-1}.  The structural action
relabels elements recursively and restores every canonical form, so all
operations here commute with the rest of the package's constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import as_subset, canonicalize_partition, enum_B_n, ns_blocks
from .maps import signature_classes
from .operators import BudgetExceeded


# ---------------------------------------------------------------------------
# permutations

def check_perm(pi):
    a = len(pi)
    if sorted(pi) != list(range(a)):
        raise ValueError(f"not a permutation of range({a}): {pi!r}")
    return tuple(pi)


def identity_perm(a):
    return tuple(range(a))


def compose(pi, sigma):
    """The permutation acting as sigma first, then pi."""
    check_perm(pi), check_perm(sigma)
    return tuple(pi[sigma[x]] for x in range(len(pi)))


def inverse(pi):
    out = [0] * len(pi)
    for x, y in enumerate(check_perm(pi)):
        out[y] = x
    return tuple(out)


def transposition(a, x, y):
    out = list(range(a))
    out[x], out[y] = y, x
    return tuple(out)


def from_cycles(a, cycles):
    """Permutation of range(a) from disjoint cycles, e.g. [(0, 1, 2)]."""
    out = list(range(a))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return check_perm(tuple(out))


def parity(pi):
    """"even" or "odd", read off the cycle type."""
    pi = check_perm(pi)
    seen = set()
    transpositions = 0
    for x in range(len(pi)):
        if x in seen:
            continue
        length = 0
        while x not in seen:
            seen.add(x)
            x = pi[x]
            length += 1
        transpositions += length - 1
    return "even" if transpositions % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# structural action

def _is_partition(obj, pi):
    """Tuples of subsets come in two canonical flavors; partitions
    (non-empty blocks covering the ground set) re-sort by least element
    after relabeling, disjoint tuples keep their component order."""
    if not (obj and all(isinstance(c, tuple) and c for c in obj)):
        return False
    elems = [x for c in obj for x in c]
    return sorted(elems) == list(range(len(pi)))


def apply_perm(pi, obj):
    """Relabel an object: ints pointwise; subsets (tuples of ints) with
    canonical re-sorting; partitions with block re-sorting; disjoint
    tuples componentwise in order; sets/frozensets of objects elementwise;
    dicts as function graphs (both keys and values relabeled)."""
    pi = check_perm(pi)
    if isinstance(obj, int):
        return pi[obj]
    if isinstance(obj, (set, frozenset)):
        return frozenset(apply_perm(pi, x) for x in obj)
    if isinstance(obj, dict):
        return {apply_perm(pi, k): apply_perm(pi, v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        if all(isinstance(x, int) for x in obj):
            return as_subset(pi[x] for x in obj)
        if _is_partition(obj, pi):
            return canonicalize_partition(
                len(pi), [as_subset(pi[x] for x in b) for b in obj]
            )
        return tuple(apply_perm(pi, x) for x in obj)
    raise TypeError(f"no action defined on {type(obj).__name__}")


def apply_perm_seq(pi, s):
    """Relabel an element sequence pointwise, keeping its order (unlike
    apply_perm, which reads int-tuples as subsets and sorts them)."""
    pi = check_perm(pi)
    return tuple(pi[x] for x in s)


def is_support(E, obj, a):
    """True iff every transposition of two elements outside E fixes the
    object.  Such transpositions generate all permutations fixing E
    pointwise, so on a finite ground set this decides support."""
    outside = [x for x in range(a) if x not in set(E)]
    return all(
        apply_perm(transposition(a, x, y), obj) == obj
        for x, y in itertools.combinations(outside, 2)
    )


# ---------------------------------------------------------------------------
# even/odd orbit pairs

@dataclass(frozen=True)
class OrbitPair:
    xi: frozenset      # even orbit of the seed
    theta: frozenset   # odd orbit
    base: tuple
    seed: tuple


def even_odd_orbits(B, s, a=None):
    """Split the injective sequences over a base of size n+2 into the even
    and odd orbits of a seed sequence of length n+1.

    Every permutation of the base moves the seed somewhere, and the seed's
    stabilizer is trivial (only one base point is off the seed), so the
    two orbits are disjoint, cover everything, and have (n+2)!/2 members
    each."""
    B = as_subset(B)
    s = tuple(s)
    if len(set(s)) != len(s) or not set(s) <= set(B):
        raise ValueError(f"seed {s!r} is not injective over the base {B!r}")
    if len(s) != len(B) - 1:
        raise ValueError(
            f"seed length {len(s)} must be one less than the base size {len(B)}"
        )
    xi, theta = set(), set()
    for images in itertools.permutations(B):
        table = dict(zip(B, images))
        sign = _parity_of_mapping(B, images)
        moved = tuple(table[x] for x in s)
        (xi if sign == "even" else theta).add(moved)
    return OrbitPair(frozenset(xi), frozenset(theta), B, s)


def _parity_of_mapping(domain, images):
    pos = {x: i for i, x in enumerate(domain)}
    return parity(tuple(pos[y] for y in images))


def find_fixing_transposition(p, B, a):
    """A transposition of two base elements equivalent under the tuple's
    induced classes (same component, or both outside every component).

    With |B| = arity + 2 there are at most arity + 1 classes on B, so a
    pair always exists by pigeonhole."""
    B = as_subset(B)
    sc = signature_classes(a, p)
    for cls in [*sc.inside.values(), sc.outside]:
        hits = [x for x in cls if x in set(B)]
        if len(hits) >= 2:
            return transposition(a, hits[0], hits[1])
    return None


# ---------------------------------------------------------------------------
# deleted projections and the refinement preorder

def restrict_outside(P, E):
    """The non-singleton blocks with E deleted, empties dropped."""
    E = set(E)
    out = set()
    for b in ns_blocks(P):
        rest = as_subset(x for x in b if x not in E)
        if rest:
            out.add(rest)
    return frozenset(out)


def preceq(Q, P, E):
    """True iff every deleted-projection block of Q is a union of
    deleted-projection blocks of P."""
    PE = restrict_outside(P, E)
    for qb in restrict_outside(Q, E):
        covered = set()
        for pb in PE:
            if set(pb) <= set(qb):
                covered.update(pb)
        if covered != set(qb):
            return False
    return True


# Most partitions fiber_of sweeps, and most ordered pairs of projection
# classes longest_strict_chain compares.
_FIBER_BUDGET = 2_000_000
_CHAIN_BUDGET = 2_000_000


def fiber_of(P, E, n, a):
    """All partitions with exactly n non-singleton blocks sharing P's
    deleted projection.  Exhaustive; raises BudgetExceeded when the
    ground set is too large to sweep."""
    from .core import count_B_n

    if count_B_n(a, n) > _FIBER_BUDGET:
        raise BudgetExceeded(f"|B_{n}({a})| exceeds the fiber sweep budget")
    target = restrict_outside(P, E)
    return frozenset(
        Q for Q in enum_B_n(a, n) if restrict_outside(Q, E) == target
    )


def fiber_bound(n, E):
    """Upper bound (n+1)^|E| on any fiber's size."""
    return (n + 1) ** len(set(E))


def longest_strict_chain(partitions, E):
    """Length (number of partitions) of the longest strictly decreasing
    chain under the preorder, over the given partition set.

    Mutually related partitions share their deleted projection and cannot
    both appear in a strict chain, so they collapse into one node; the
    answer is the longest path in the condensed acyclic digraph."""
    parts = list(partitions)
    key = {i: restrict_outside(P, E) for i, P in enumerate(parts)}
    groups = {}
    for i, P in enumerate(parts):
        groups.setdefault(key[i], []).append(i)
    reps = {k: v[0] for k, v in groups.items()}
    keys = list(reps)
    if len(keys) * len(keys) > _CHAIN_BUDGET:
        raise BudgetExceeded("chain digraph exceeds its budget")

    below = {
        k: [
            k2
            for k2 in keys
            if k2 != k
            and preceq(parts[reps[k2]], parts[reps[k]], E)
            and not preceq(parts[reps[k]], parts[reps[k2]], E)
        ]
        for k in keys
    }

    memo = {}

    def depth(k):
        if k not in memo:
            memo[k] = 1 + max((depth(k2) for k2 in below[k]), default=0)
        return memo[k]

    return max((depth(k) for k in keys), default=0)


def chain_bound(n, E):
    """Upper bound (n+1)^(|E|+1) on strict chain length."""
    return (n + 1) ** (len(set(E)) + 1)
