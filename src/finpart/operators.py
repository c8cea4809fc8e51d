"""The up-closure / interior / boundary operator calculus on families of
disjoint tuples.

For size profiles m <= l (componentwise), a family X of m-profile tuples
maps to:

* up(X)       -- all l-profile tuples extending some member of X
* interior(X) -- all m-profile tuples every l-extension of which lies in
                 up(X); tuples with no l-extension are vacuously accepted
* boundary(X) -- interior(X) minus X

and a family Z of l-profile tuples pulls back to

* down(Z)     -- all m-profile tuples every l-extension of which lies in Z,
                 so interior(X) = down(up(X))

boundary is nilpotent with index at most sum(m) + 1 once the ground set is
large enough; on small ground sets iteration may cycle, which is detected
and reported rather than looped on.  `_chain` is the one loop over
boundary, stepping on masks or on the sparse interior.  `boundary_chain`
picks the route, checks X once and runs it, for the boundary functions
and nilpotency_index; `encode` runs `_chain` on its slot plan's route,
having checked a sparse slot's members itself.

Families are frozensets of canonical tuples, and every route reads a
given member as `check_disjoint_tuple` returns it.  Each set-level operator
(up, interior, boundary, down) chooses its own route, in one place
(`_route`), from closed-form counts alone (`fits_dense`): dense bitmasks
over the enumeration orders of both profile spaces, when they fit its
budgets, and otherwise a sparse route that indexes neither side.  Sparse
up enumerates the extensions of each member, refusing first when there
are too many; sparse down counts, per m-tuple, the members of Z extending
it.  The sparse interior lists the classes of candidates that agree
inside the members' support S directly, each as its support part per
component plus a count of fresh elements.  It skips a class with sum(k)
support elements whose deficit sum(l) - a + |S| - sum(k) is at most 0:
an extension of its p through fresh ground holds no member, p not being
one.  It searches each other class once, placing the support elements
that an extension cannot avoid (`exists_uncovered_extension`, on ints
with bit i*a + x per element x of component i, testing at a placement
only the members holding its bit), and lists a class's members only when
it lies inside, so it costs per class and output tuple, not per m-tuple.

The dense kernels read the extension masks: `up_mask` ORs one per-byte
table entry per byte of its mask, from tables a space builds when first
read, and `down_mask` scans the extension masks, keeping the m-tuples
whose extensions all lie in its l-side mask.

The bit-sliced kernels (`up_sliced`, `down_sliced`) act on many families
at once, for the fact00 and nilpotency sweeps: each takes one column per
tuple, an int whose bit f says whether family f holds that tuple
(`columns` transposes masks into them), and ORs or ANDs columns along the
incidence of the two profile spaces.

This module owns the family-mask format: bit i of a mask selects tuple i
of `indexed_tuples(a, profile)`, which lists and indexes the profile's
tuples once for every space, coder key and suite; `_index_mask` writes
masks and `at_bits` reads them.  Callers that visit each tuple once stream
`enum_disjoint_tuples` instead: the sparse interior (over the support and
over the fresh elements), sparse `down` without extensions, and the
suites' `counts` tables and symmetry sweep.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from operator import and_, or_

from .core import (
    check_disjoint_tuple,
    count_disjoint_tuples,
    count_extensions,
    enum_disjoint_tuples,
    enum_extensions,
)


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


# Most l-extensions that sparse up (and the coder's materialize) will
# enumerate, counted before enumerating any.
EXTENSION_BUDGET = 2_000_000
# Most nodes one uncovered-extension search may expand.
_NODE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# profiles

def check_profiles(m, l):
    m, l = tuple(m), tuple(l)
    if len(m) != len(l):
        raise ValueError(f"profile arity mismatch: {m} vs {l}")
    if any(mi > li for mi, li in zip(m, l)):
        raise ValueError(f"profile {m} does not fit under {l}")
    if any(x < 0 for x in m + l):
        raise ValueError("profile entries must be non-negative")
    return m, l


# ---------------------------------------------------------------------------
# dense index spaces

# A dense space holds every m- and l-tuple with an index dict over each
# (`indexed_tuples`, shared by every space with that side), one extension
# mask per m-tuple (about 300 bytes per tuple in all), and, once read,
# up_mask's byte tables: one table of 256 entries per 8 m-tuples.  A table
# takes about 10 kB plus the bits of its entries, which are l-side masks,
# so up to 32 entries (about 1.3 kB) per m-tuple plus 4 bytes per mask
# bit: 20 MB for (16, (8,), (15,)), at the edge of the tuple budget,
# measured with tracemalloc.  The bit budget also bounds the build, which
# sets at most one bit per l-tuple in each mask.  The coder
# adds, per dense l-tuple it reads, one shared block set and its position
# in the config's plan: about 290 bytes, so 9.5 MB for (256, (0,), (2,)),
# at the edge of the tuple budget, also measured with tracemalloc.
_TUPLE_BUDGET = 1 << 15
_BIT_BUDGET = 1 << 20


@cache  # asked on every set-level operator call
def fits_dense(a, m, l):
    """True iff the (a, m, l) operator runs on dense bitmasks, decided from
    the closed-form sizes of both profile spaces; otherwise the sparse
    route applies and `profile_space` refuses to build."""
    m_size = count_disjoint_tuples(a, m)
    l_size = count_disjoint_tuples(a, l)
    return m_size + l_size <= _TUPLE_BUDGET and m_size * l_size <= _BIT_BUDGET


@cache
def indexed_tuples(a, profile):
    """The disjoint `profile` tuples over range(a) in enumeration order,
    which is sorted order, and the index of each.  Raises BudgetExceeded,
    before enumerating, past _TUPLE_BUDGET tuples."""
    count = count_disjoint_tuples(a, profile)
    if count > _TUPLE_BUDGET:
        raise BudgetExceeded(f"{count} tuples of O_{profile}({a}) exceed the "
                             f"budget of {_TUPLE_BUDGET} listed tuples")
    tuples = tuple(enum_disjoint_tuples(a, profile))
    return tuples, {t: i for i, t in enumerate(tuples)}


def at_bits(seq, mask):
    """The items of seq at the set bits of mask, bit i selecting seq[i]."""
    return itertools.compress(seq, bin(mask)[:1:-1].encode().replace(b"0", b"\0"))


@dataclass
class ProfileSpace:
    """Precomputed index structures for one (a, m, l) operator instance."""

    a: int
    m: tuple
    l: tuple
    m_tuples: tuple
    ext: list          # per m-tuple: bitmask of its l-extensions
    l_tuples: tuple

    @cached_property
    def up_bytes(self):
        """Per run of 8 m-indices, the 256 ORs of their ext: entry b of a
        run's table ORs the ext at the set bits of b, built from the entry
        with b's lowest bit cleared.  The last run is padded with empty
        masks, so bits past the end select nothing."""
        tables = []
        for lo in range(0, len(self.ext), 8):
            run = self.ext[lo:lo + 8]
            run += [0] * (8 - len(run))
            t = [0] * 256
            for b in range(1, 256):
                t[b] = t[b & b - 1] | run[(b & -b).bit_length() - 1]
            tables.append(tuple(t))
        return tuple(tables)


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
    m_tuples = indexed_tuples(a, m)[0]
    l_tuples, l_index = indexed_tuples(a, l)
    # unchecked, as enum_extensions yields ints; distinct bits sum to their OR
    ext = [sum(1 << l_index[q] for q in enum_extensions(a, p, l)) for p in m_tuples]
    return ProfileSpace(a, m, l, m_tuples, ext, l_tuples)


def _index_mask(a, profile, X):
    """The mask of X's positions in `indexed_tuples(a, profile)`.  A member
    the index lacks, cannot hash, or holds only by equality (1.0 or True
    for 1) is looked up by `check_disjoint_tuple`'s return; the index's own
    tuples skip the element walk."""
    tuples, index = indexed_tuples(a, profile)
    mask = 0
    for t in X:
        try:
            i = index.get(t)
        except TypeError:  # a list, or list components
            i = None
        if i is not None and tuples[i] is not t:
            for c in t:  # plain loops: twice as fast as all() of a generator
                for x in c:
                    if type(x) is not int:
                        i = None
        if i is None:
            i = index[check_disjoint_tuple(t, a, profile=profile)]
        mask |= 1 << i
    return mask


def mask_to_family(sp, mask):
    return frozenset(at_bits(sp.m_tuples, mask))


def up_mask(sp, xmask):
    """The l-tuples extending some m-tuple in xmask: one table lookup per
    byte of xmask."""
    g = 0
    for t in sp.up_bytes:
        g |= t[xmask & 255]
        xmask >>= 8
    return g


def down_mask(sp, g):
    """The m-tuples all of whose l-extensions lie in the l-side mask g:
    those whose ext lies within g, so an m-tuple without extensions is
    kept."""
    r = 0
    for i, e in enumerate(sp.ext):
        if e & g == e:
            r |= 1 << i
    return r


def interior_mask(sp, xmask):
    return down_mask(sp, up_mask(sp, xmask))


def boundary_mask(sp, xmask):
    return interior_mask(sp, xmask) & ~xmask


# ---------------------------------------------------------------------------
# bit-sliced kernels

# A sweep over many families at once transposes their masks into columns
# (`columns`): column i is an int whose bit f says whether family f holds
# tuple i, so one OR or AND of two columns acts on every family of the
# sweep.  The sweeps run the kernels on tiles of `tile_width(sp)` masks: at
# 4,096 masks the Python dispatch per tile costs more than the big-int work
# it drives, so a tile widens, up to TILE masks, while the |T_m| + |T_l|
# columns of one tile take at most _SLICE_BUDGET bits (384 kB); a sweep
# holds a few such sets of columns at a time.  Past that, measured, wider
# tiles stopped paying: exhaustive fact00 at (7, (2,), (3,)), 56 columns,
# took 75 ms in tiles of 2^15 masks and 107 ms in tiles of 2^16.  Per bit
# i, bit f of _TRUTH[i] is bit i of f, for the masks 0 .. 2^len(_TRUTH) -
# 1: runs of 2^i zeros, then 2^i ones.  They are grown by doubling when a
# wider aligned run first asks for them, to at most 16 tables of TILE bits.
TILE = 1 << 16
_SLICE_BUDGET = 3 << 20
_TRUTH = []


def tile_width(sp):
    """The masks per kernel tile of a sweep over the space sp: the largest
    power of two up to TILE whose columns on both sides fit _SLICE_BUDGET
    bits, and never below 4,096."""
    w = TILE
    while w > 4096 and (len(sp.m_tuples) + len(sp.l_tuples)) * w > _SLICE_BUDGET:
        w >>= 1
    return w


def _truth(bits):
    """_TRUTH over at least 2^bits masks: the table of bit i over 2w masks
    is its table over w masks twice over, and bit log2(w) is w zeros then
    w ones."""
    while len(_TRUTH) < bits:
        w = 1 << len(_TRUTH)
        _TRUTH[:] = [t | t << w for t in _TRUTH] + [(1 << w) - 1 << w]
    return _TRUTH


# Per bit b of a byte, the digit ("0" or "1") of that bit of each byte value.
_DIGITS = [bytes(b"01"[v >> b & 1] for v in range(256)) for b in range(8)]
# An array type code per item size, for packing masks of up to 8 bytes.
_PACK = {array(c).itemsize: c for c in "QLIHB"}


def columns(masks, size):
    """Transpose the masks of `size` bits: per tuple i < size, the column
    whose bit f is bit i of masks[f].  A run of at most TILE masks from a
    multiple of the next power of two reads its low bits off _TRUTH, and
    its high bits are the same for every family.  Other masks are packed
    little-endian at one byte width and the bytes reversed, so the last
    family comes first; per byte j, a strided slice holds byte j of every
    family, and each bit's column is that slice's digits, parsed once."""
    n = len(masks)
    bits = (n - 1).bit_length()
    ones = (1 << n) - 1
    if (isinstance(masks, range) and masks.step == 1 and n <= TILE
            and masks.start % (1 << bits) == 0):
        truth = _truth(bits)
        return [truth[i] & ones if i < bits else -(masks.start >> i & 1) & ones
                for i in range(size)]
    width = (size + 7) // 8
    if width <= 8:
        stride = min(s for s in _PACK if s >= width)
        packed = array(_PACK[stride], masks)
        if sys.byteorder == "big":
            packed.byteswap()
        data = packed.tobytes()[::-1]
    else:
        stride = width
        data = b"".join(x.to_bytes(width, "little") for x in masks)[::-1]
    cols = []
    for j in range(width):
        run = data[stride - 1 - j::stride]
        cols += [int(run.translate(_DIGITS[b]), 2) for b in range(min(8, size - 8 * j))]
    return cols


@cache
def _incidence(a, m, l):
    """Per l-tuple, the indices of the m-tuples it extends, and per
    m-tuple, the indices of its l-extensions, each transposed into rounds:
    every l-tuple extends the same number of m-tuples and every m-tuple
    has the same number of extensions, so round r lists the r-th index of
    each.  Built on first sliced use, not by `profile_space`, so the
    coders never pay for it; it holds two indices per extension bit, 2.5 MB
    for the 102,960 bits of (16, (8,), (15,)), measured with tracemalloc."""
    sp = profile_space(a, m, l)
    ext = [tuple(at_bits(range(len(sp.l_tuples)), e)) for e in sp.ext]
    extended = [[] for _ in sp.l_tuples]
    for i, qs in enumerate(ext):
        for q in qs:
            extended[q].append(i)
    return tuple(zip(*extended, strict=True)), tuple(zip(*ext, strict=True))


def up_sliced(sp, cols):
    """The l-side columns of up over the families of the m-side columns
    `cols`: column q ORs the columns of the m-tuples q extends."""
    out = [0] * len(sp.l_tuples)
    for idx in _incidence(sp.a, sp.m, sp.l)[0]:
        out = list(map(or_, out, map(cols.__getitem__, idx)))
    return out


def down_sliced(sp, cols, ones):
    """The m-side columns of down over the families of the l-side columns
    `cols`: column i ANDs the columns of i's l-extensions, and is `ones`,
    every family, where i has none."""
    out = [ones] * len(sp.m_tuples)
    for idx in _incidence(sp.a, sp.m, sp.l)[1]:
        out = list(map(and_, out, map(cols.__getitem__, idx)))
    return out


def interior_sliced(sp, cols, ones):
    return down_sliced(sp, up_sliced(sp, cols), ones)


# ---------------------------------------------------------------------------
# set-level operator API

def _route(a, m, l):
    """The dense space of one (a, m, l) operator call, or None when the
    call runs sparse.  The set-level operators ask here and nowhere else."""
    m, l = check_profiles(m, l)
    return profile_space(a, m, l) if fits_dense(a, m, l) else None


def _members(a, X, profile):
    return frozenset(check_disjoint_tuple(t, a, profile=profile) for t in X)


def up(a, m, l, X):
    """All l-profile tuples extending some member of X.

    Off the dense route the extensions are enumerated member by member;
    BudgetExceeded is raised first when there are more than
    EXTENSION_BUDGET of them."""
    sp = _route(a, m, l)
    if sp is not None:
        return frozenset(at_bits(sp.l_tuples, up_mask(sp, _index_mask(a, sp.m, X))))
    X = _members(a, X, m)
    total = len(X) * count_extensions(a, m, l)
    if total > EXTENSION_BUDGET:
        raise BudgetExceeded(
            f"{total} extensions of O_{tuple(m)}({a}) into O_{tuple(l)}({a}) "
            f"exceed the budget of {EXTENSION_BUDGET}"
        )
    return frozenset(q for p in X for q in enum_extensions(a, p, l))


def interior(a, m, l, X):
    """All m-profile tuples whose every l-extension lies in up(X)."""
    sp = _route(a, m, l)
    if sp is None:
        return _interior_of_members(a, m, l, _members(a, X, m))
    return mask_to_family(sp, interior_mask(sp, _index_mask(a, sp.m, X)))


def boundary(a, m, l, X):
    """interior(X) minus X."""
    return boundary_power(a, m, l, X, 1)


def down(a, m, l, Z):
    """All m-profile tuples whose every l-extension lies in Z, a family of
    l-profile tuples; tuples with no l-extension are vacuously accepted.

    Off the dense route it counts instead of enumerating: one pass over Z
    counts, per m-tuple, the members of Z extending it, and keeps the
    m-tuples whose count equals `count_extensions`.  Raises ValueError for
    a member of Z that is not a disjoint l-profile tuple over range(a).
    """
    sp = _route(a, m, l)
    if sp is not None:
        return mask_to_family(sp, down_mask(sp, _index_mask(a, sp.l, Z)))
    Z = _members(a, Z, l)
    per = count_extensions(a, m, l)
    if per == 0:  # no m-tuple has an l-extension
        return frozenset(enum_disjoint_tuples(a, m))
    hits = Counter(itertools.chain.from_iterable(
        itertools.product(*(itertools.combinations(c, mi) for c, mi in zip(q, m)))
        for q in Z
    ))
    return frozenset(p for p, k in hits.items() if k == per)


def boundary_chain(a, m, l, X):
    """An iterator over X, boundary(X), boundary^2(X), ... without end.  The
    route is picked and X's members are checked once, on entry; every
    later level is the chain's own output, so it is not checked again."""
    sp = _route(a, m, l)
    return _chain(a, m, l, sp, _members(a, X, m) if sp is None else X)


def _chain(a, m, l, sp, X):
    """boundary_chain on route sp, from X checked already if sp is None."""
    if sp is None:
        X = frozenset(X)
        while True:
            yield X
            X = _interior_of_members(a, m, l, X) - X
    x = _index_mask(a, sp.m, X)
    while True:
        yield mask_to_family(sp, x)
        x = boundary_mask(sp, x)


def boundary_power(a, m, l, X, k):
    """k-fold application of boundary (k >= 0); k == 0 returns X unchanged."""
    return next(itertools.islice(boundary_chain(a, m, l, X), k, None))


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
    seen = {}
    for step, X in enumerate(boundary_chain(a, m, l, X)):
        if not X:
            return step
        if X in seen:
            return CycleReport(
                start=seen[X],
                period=step - seen[X],
                family=tuple(sorted(X)),
            )
        seen[X] = step


# ---------------------------------------------------------------------------
# sparse interior test (no l-side materialization)

def exists_uncovered_extension(a, p, l, members):
    """True iff some l-extension of p avoids every member of `members`
    (i.e. no member is componentwise contained in it); members are checked
    disjoint tuples over range(a) with p's profile.

    Lemma: let S be the members' support, U the elements of p and need_i =
    l_i - |p_i|.  Elements outside S complete no member, so an extension
    takes its extra elements from the a - |S | U| fresh ones while they
    last and the other D = sum(need) - (a - |S | U|) from S - U.  As
    containment is monotone, some extension avoids every member iff some
    placement of exactly D elements of S - U, at most need_i into
    component i, leaves no member inside p extended by the placement.
    D <= 0 asks only that no member lie inside p.  Without extensions (a
    need_i < 0, or sum(l) > a, where D > |S - U|) the answer is False.

    Members and the trace (p with the placement so far) are ints, bit
    i*a + x for element x of component i.  Once the root has found no
    member (the empty one too) inside p, placing x into component i can
    only cover the holders of bit i*a + x: only they are tested, by
    t & ~trace == 0.  Depth-first placement over S - U, backtracking once
    a member is covered; raises BudgetExceeded past _NODE_BUDGET nodes.
    """
    need = [li - len(c) for li, c in zip(l, p)]
    if min(need, default=0) < 0:
        return False
    trace = sum(1 << i * a + x for i, c in enumerate(p) for x in c)
    holders = {}  # bit i*a + x -> the members holding x in component i
    for member in members:
        bits = [i * a + x for i, c in enumerate(member) for x in c]
        t = sum(1 << b for b in bits)
        if t & ~trace == 0:
            return False  # a member inside p
        for b in bits:
            holders.setdefault(b, []).append(t)
    used = {x for c in p for x in c}
    free = sorted({b % a for b in holders} - used)
    D = sum(need) - (a - len(used) - len(free))
    nodes = itertools.count(1)

    def rec(start, left, trace):
        if next(nodes) > _NODE_BUDGET:
            raise BudgetExceeded("uncovered-extension search exceeded its node budget")
        if not left:
            return True
        for pos in range(start, len(free) - left + 1):
            for i, n in enumerate(need):
                b = i * a + free[pos]
                q = trace | 1 << b
                if n and not any(t & ~q == 0 for t in holders.get(b, ())):
                    need[i] -= 1
                    ok = rec(pos + 1, left - 1, q)
                    need[i] += 1
                    if ok:
                        return True
        return False

    return D <= 0 or rec(0, D, trace)


def interior_sparse(a, m, l, X):
    """interior(X) computed without materializing either profile space:
    X itself plus every m-profile tuple p not in X that has no l-extension
    avoiding all members of X (`exists_uncovered_extension`).

    The candidates are taken by class, those that agree inside the
    support S component by component: a permutation fixing S pointwise
    fixes X, so they share a verdict.  The classes are listed directly,
    as a support part of k_i <= m_i elements per component plus need_i =
    m_i - k_i fresh elements.  A class that needs more fresh elements
    than there are is skipped, and so is one whose deficit D(k) =
    sum(l) - a + |S| - sum(k) (`exists_uncovered_extension`'s D) is at
    most 0: a candidate p then extends through fresh ground, and a member
    inside that extension would be p.  Each other class not in X gets one
    search, on its first fill (the lowest fresh elements); placing x into
    component i there tests only the members t holding bit i*a + x, by
    t & ~trace == 0.  Its members are listed only when it lies inside; a
    member of X is a class of its own.  So the cost grows with the classes
    and the output, not with O_m(a).
    """
    m, l = check_profiles(m, l)
    return _interior_of_members(a, m, l, _members(a, X, m))


def _interior_of_members(a, m, l, X):
    """interior_sparse of a frozenset X whose members are already checked."""
    in_support = {x for t in X for c in t for x in c}
    floor = sum(l) - a + len(in_support)  # a class's deficit is floor - sum(k)
    if floor <= 0:
        return X  # no class has a deficit above 0
    support = sorted(in_support)
    fresh = tuple(x for x in range(a) if x not in in_support)
    out = set(X)  # members are always interior points
    for k in itertools.product(*(range(mi + 1) for mi in m)):
        need = [mi - ki for mi, ki in zip(m, k)]
        if sum(k) >= floor or sum(need) > len(fresh):
            continue  # outside by its deficit, or without a fill
        # the first fill: the lowest fresh elements, in component order
        ends = itertools.accumulate(need)
        first = [fresh[e - n:e] for n, e in zip(need, ends)]
        for part in _disjoint_over(support, k):
            if part in X:
                continue  # a member is a class of its own, with no fill
            p = tuple(tuple(sorted(s + f)) for s, f in zip(part, first))
            if not exists_uncovered_extension(a, p, l, X):
                # inside: every fill of the class is an interior point
                out.update(tuple(tuple(sorted(s + f)) for s, f in zip(part, fill))
                           for fill in _disjoint_over(fresh, need))
    return frozenset(out)


def _disjoint_over(elems, profile):
    """enum_disjoint_tuples over the sorted sequence `elems` in place of
    range(a): the same order, each index i read as elems[i]."""
    return (tuple(tuple(elems[i] for i in c) for c in t)
            for t in enum_disjoint_tuples(len(elems), profile))

