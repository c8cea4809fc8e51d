"""Permutation actions on the package's nested objects, finite supports,
even/odd orbit pairs, and the deleted-projection preorder on partitions.

Permutations are image tables (tuples) on {0..a-1}.  The structural action
picks the kind of an object by its Python type alone and relabels its
elements recursively; a partition is acted on as the frozenset of its
blocks, so the result never depends on a guess about the object's shape.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, repeat
from math import factorial
from operator import countOf

from .core import as_subset, count_B_n, enum_B_n, ns_blocks
from .operators import BudgetExceeded


# ---------------------------------------------------------------------------
# permutations

def check_perm(pi):
    """pi as a tuple, if it is an image table of ints (bools and floats
    that equal ints are refused) holding each of range(len(pi)) once."""
    a = len(pi)
    if countOf(map(type, pi), int) != a or sorted(pi) != list(range(a)):
        raise ValueError(f"not a permutation of range({a}): {pi!r}")
    return tuple(pi)


def transposition(a, x, y):
    out = list(range(a))
    out[x], out[y] = y, x
    return tuple(out)


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

def apply_perm(pi, obj):
    """Relabel an object, by its type alone: an int maps to its image (a
    bool is refused, as a float is); a tuple of ints is a subset,
    re-sorted; any other tuple (a disjoint tuple, a sequence of subsets) is
    acted on componentwise, in order; a set or frozenset elementwise; a
    dict as a function graph (keys and values).  Pass a partition as the
    frozenset of its blocks."""
    return _act(check_perm(pi), obj)


def _act(pi, obj):
    if isinstance(obj, int):
        if isinstance(obj, bool):
            # True would index the table as 1
            raise TypeError("no action defined on bool")
        if not 0 <= obj < len(pi):
            raise ValueError(f"element {obj} out of range [0, {len(pi)})")
        return pi[obj]
    if isinstance(obj, tuple):
        if all(map(isinstance, obj, repeat(int))):
            if obj and (min(obj) < 0 or max(obj) >= len(pi)
                        or any(map(isinstance, obj, repeat(bool)))):
                # the per-element path names the first bad element
                return as_subset(_act(pi, x) for x in obj)
            return tuple(sorted({pi[x] for x in obj}))
        return tuple([_act(pi, x) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return frozenset([_act(pi, x) for x in obj])
    if isinstance(obj, dict):
        return {_act(pi, k): _act(pi, v) for k, v in obj.items()}
    raise TypeError(f"no action defined on {type(obj).__name__}")


def is_support(E, obj, a):
    """True iff every permutation fixing E pointwise fixes the object, as
    apply_perm acts on it (pass a partition as its block set).  For one
    x0 outside E, the transpositions (x0 x) with the other x outside E
    generate all such permutations, so only those are tested."""
    E = set(E)
    outside = [x for x in range(a) if x not in E]
    return all(
        apply_perm(transposition(a, outside[0], x), obj) == obj
        for x in outside[1:]
    )


# ---------------------------------------------------------------------------
# even/odd orbit pairs

@dataclass(frozen=True)
class OrbitPair:
    xi: frozenset      # even orbit of the seed
    theta: frozenset   # odd orbit
    base: tuple
    seed: tuple


# Most permutations of the base even_odd_orbits sweeps.  Both orbits are
# held in memory: a base of 9 (9! = 362,880) takes ~0.12 s and ~81 MB peak
# RSS (2 cores, Python 3.11.7).  _PREFIX_SETS holds them only weakly: they
# are freed when the caller drops the pair.
_ORBIT_BUDGET = 400_000

# Per sorted base B, its two orbits: (B, 0) the (|B|-1)-prefixes of the
# even permutations of B, (B, 1) those of the odd ones.  Weak values: a
# base's sets go with the last caller holding them (an OrbitPair, a
# sweep's verdicts).
_PREFIX_SETS = weakref.WeakValueDictionary()

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@cache
def _odd_table(k):
    """Byte i is 1 iff the i-th permutation of range(k), in the order of
    itertools.permutations, is odd.

    That order is the lexicographic order of the inversion tables (Lehmer
    codes) in product(range(k), range(k-1), ..., range(1)), and a
    permutation's parity is the parity of its code's digit sum.  The codes
    with first digit d are d followed by the codes for k-1, so the table
    for k is k copies of the table for k-1, flipped for odd d.  Only
    even_odd_orbits asks, within its budget, so k <= 9 (~410 KB in all)."""
    if k <= 1:
        return b"\0"
    rest = _odd_table(k - 1)
    flipped = rest.translate(_FLIP)
    return b"".join(flipped if d & 1 else rest for d in range(k))


def even_odd_orbits(B, s):
    """Split the injective sequences over a base of size n+2 into the even
    and odd orbits of a seed sequence of length n+1.

    Every permutation of the base moves the seed somewhere, and the seed's
    stabilizer is trivial (only one base point is off the seed), so the
    two orbits are disjoint, cover everything, and have (n+2)!/2 members
    each.  B is sorted, so the mapping B -> images has the parity of
    images, which `_odd_table` reads off by its index in
    itertools.permutations(B).  Let sigma be the seed's positions in B,
    then the one position off the seed.  The seed's image is the first n+1
    points of images read at sigma, a table whose parity is that of images
    plus that of sigma.  So each orbit is the (n+1)-prefixes of the tables
    of one parity, and itertools.permutations(B, n+1) lists those prefixes
    in the order of the full tables, where `_odd_table` picks them.
    Both orbits depend on B alone, and are built once per base while some
    caller holds them (`_PREFIX_SETS`); each seed pays for its validation
    and the parity of its sigma, which picks which orbit is xi.
    Raises BudgetExceeded, before sweeping, when (n+2)! is over
    _ORBIT_BUDGET, and ValueError when B repeats an element."""
    s, B = tuple(s), tuple(B)
    if len(set(B)) != len(B):
        raise ValueError(f"base {B!r} repeats an element")
    B = as_subset(B)
    if len(set(s)) != len(s) or not set(s) <= set(B):
        raise ValueError(f"seed {s!r} is not injective over the base {B!r}")
    if len(s) != len(B) - 1:
        raise ValueError(
            f"seed length {len(s)} must be one less than the base size {len(B)}"
        )
    if factorial(len(B)) > _ORBIT_BUDGET:
        raise BudgetExceeded(f"{len(B)}! base permutations exceed {_ORBIT_BUDGET}")
    even, odd = _PREFIX_SETS.get((B, 0)), _PREFIX_SETS.get((B, 1))
    if even is None or odd is None:
        table = _odd_table(len(B))
        prefixes = list(itertools.permutations(B, len(s)))
        even = _PREFIX_SETS[B, 0] = frozenset(
            compress(prefixes, table.translate(_FLIP)))
        odd = _PREFIX_SETS[B, 1] = frozenset(compress(prefixes, table))
    sigma = [B.index(x) for x in s]
    sigma.append(sum(range(len(B))) - sum(sigma))
    if parity(sigma) == "odd":
        even, odd = odd, even
    return OrbitPair(even, odd, B, s)


@lru_cache(maxsize=1)
def _class_ranks(p):
    """Each element's class rank under the tuple p, the non-empty
    components ordered by least element, and the rank of the elements
    outside p."""
    comps = sorted(filter(None, p), key=min)
    return {x: r for r, c in enumerate(comps) for x in c}, len(comps)


def find_fixing_transposition(p, B, a):
    """A transposition of two base elements equivalent under the tuple's
    induced classes (same component, or both outside every component).
    The classes are tried in order: the non-empty components by least
    element, then the elements outside p.

    With |B| = arity + 2 there are at most arity + 1 classes on B, so a
    pair always exists by pigeonhole.  One pass over B: each element's
    class rank comes from one dict, and the pair kept is the first two hits
    of the lowest rank that has two.  The ranks are kept for the last p,
    since a sweep asks about one p over many bases, and the transposition
    for each (a, x, y), since it asks for few distinct ones."""
    try:
        rank, outside = _class_ranks(p)
    except TypeError:  # an unhashable p, such as a list of lists
        rank, outside = _class_ranks.__wrapped__(p)
    first, best = {}, None
    for x in sorted(set(B)):
        r = rank.get(x, outside)
        if r not in first:
            first[r] = x
        elif best is None or r < best[0]:
            best = r, first[r], x
    return None if best is None else _fixing_transposition(a, *best[1:])


# transposition(a, x, y), kept for `find_fixing_transposition` alone, which
# asks for few distinct ones over a sweep.  Keyed by type as well as value,
# so a float or bool never reads an int's entry: it reaches `transposition`,
# which treats it as it always has.
_fixing_transposition = lru_cache(maxsize=1024, typed=True)(transposition)


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


def projection_preceq(QE, PE):
    """True iff every block of the deleted projection QE is a union of
    blocks of the deleted projection PE."""
    for q in map(set, QE):
        if set().union(*filter(q.issuperset, PE)) != q:
            return False
    return True


def preceq(Q, P, E):
    """True iff every deleted-projection block of Q is a union of
    deleted-projection blocks of P."""
    return projection_preceq(restrict_outside(Q, E), restrict_outside(P, E))


# Most partitions a sweep of B_n(a) visits, and most ordered pairs of
# projection classes longest_strict_chain compares.
_SWEEP_BUDGET = 2_000_000
_CHAIN_BUDGET = 2_000_000


def sweep_B_n(a, n):
    """enum_B_n(a, n), refused with BudgetExceeded before it starts when
    |B_n(a)| is over _SWEEP_BUDGET."""
    if count_B_n(a, n) > _SWEEP_BUDGET:
        raise BudgetExceeded(f"|B_{n}({a})| exceeds the sweep budget")
    return enum_B_n(a, n)


def fiber_of(P, E, n, a):
    """All partitions with exactly n non-singleton blocks sharing P's
    deleted projection.  Exhaustive; raises BudgetExceeded when the
    ground set is too large to sweep."""
    target = restrict_outside(P, E)
    return frozenset(
        Q for Q in sweep_B_n(a, n) if restrict_outside(Q, E) == target
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
    keys = list(dict.fromkeys(restrict_outside(P, E) for P in partitions))
    if len(keys) * len(keys) > _CHAIN_BUDGET:
        raise BudgetExceeded("chain digraph exceeds its budget")

    below = {
        k: [
            k2
            for k2 in keys
            if k2 != k
            and projection_preceq(k2, k)
            and not projection_preceq(k, k2)
        ]
        for k in keys
    }

    memo = {}

    def depth(k):
        if k not in memo:
            memo[k] = 1 + max((depth(k2) for k2 in below[k]), default=0)
        return memo[k]

    return max((depth(k) for k in keys), default=0)


def longest_chain_B_n(a, n, E):
    """longest_strict_chain over B_n(a).  A projection class holds at most
    fiber_bound(n, E) partitions, so the pair budget is checked on the
    least number of classes that allows, before the sweep starts."""
    least = -(-count_B_n(a, n) // fiber_bound(n, E))
    if least * least > _CHAIN_BUDGET:
        raise BudgetExceeded("chain digraph exceeds its budget")
    return longest_strict_chain(sweep_B_n(a, n), E)


def chain_bound(n, E):
    """Upper bound (n+1)^(|E|+1) on strict chain length."""
    return (n + 1) ** (len(set(E)) + 1)
