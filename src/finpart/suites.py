"""The property suites behind `finpart verify` and the tables behind
`finpart counts`.  Suites read no files and return a RunReport; a
configuration over an exhaustive budget raises BudgetExceeded.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from functools import partial, reduce
from math import factorial
from operator import and_, countOf, invert, is_not, or_, xor

from . import coding, core, maps, operators, ramsey, symmetry
from .operators import BudgetExceeded
from .report import RunReport, UsageError


# ---------------------------------------------------------------------------
# operator-law suite (fact00)

# injective-on-closed needs no check: a family X is closed when
# down(up(X)) == X, so closed X and X' with up(X) == up(X') have
# X = down(up(X)) = down(up(X')) = X' for any deterministic down.
_LAW_NAMES = (
    "monotone-up", "extensive-interior", "monotone-interior",
    "up-of-interior", "idempotent-interior", "injective-on-closed",
    "profile-monotone-interior", "nesting",
)


def _any(cols):
    return reduce(or_, cols, 0)


def _fact00_chunk(a, m, l, masks, room=21):
    """The per-family laws over one tile of masks, bit-sliced: each law is
    a violation vector over the tile's families, computed from columns
    (`operators.columns`) by the sliced kernels.  Returns the families
    checked, the violations and the number of interior-closed families
    among the checked ones, as a mask-by-mask loop would: the violating
    families lowest first, each family's witnesses in law order, stopping
    after the family that brings the list to `room` witnesses."""
    sp = operators.profile_space(a, m, l)
    sub = [
        operators.profile_space(a, m, lp)
        for lp in itertools.product(*(range(mi, li + 1) for mi, li in zip(m, l)))
    ]
    ones = (1 << len(masks)) - 1
    x = operators.columns(masks, len(sp.m_tuples))
    ux = operators.up_sliced(sp, x)
    al = operators.down_sliced(sp, ux, ones)
    ual = operators.up_sliced(sp, al)
    up_fails = _any(map(xor, ual, ux))
    # where up(al) = up(X), interior(al) = down(up(X)) = al already
    idem_fails = up_fails and up_fails & _any(
        map(xor, operators.down_sliced(sp, ual, ones), al))
    laws = [
        ("extensive-interior", _any(_outside(x, al)),
         "X not within its interior"),
        ("up-of-interior", up_fails, "up(interior(X)) != up(X)"),
        ("idempotent-interior", idem_fails, "interior not idempotent"),
    ]
    closed = ones & ~_any(map(xor, al, x))
    ints = [al if spp.l == sp.l else operators.interior_sliced(spp, x, ones)
            for spp in sub]
    # comparable sub-profiles, lower then upper, in sweep order; an
    # interior always lies within itself
    laws += [
        ("profile-monotone-interior", _any(_outside(ints[i], ints[j])),
         f"interior at {spp.l} not within interior at {spq.l}")
        for i, spp in enumerate(sub)
        for j, spq in enumerate(sub)
        if i != j and all(p <= q for p, q in zip(spp.l, spq.l))
    ]
    # level k: d = boundary^k(X), di = interior(d), and the next level is
    # di minus d, so d = di minus the next level exactly when d lies within
    # di.  Once both are empty for every family, every later level repeats
    # a passing check.
    d, di = x, al
    for k in range(sum(m) + 2):
        if k:
            di = operators.interior_sliced(sp, d, ones)
        if not (_any(d) or _any(di)):
            break
        laws.append(("nesting", _any(_outside(d, di)),
                     "level set != interior minus next level"))
        d = list(_outside(di, d))

    checked = len(masks)
    violations = []
    for f in operators.at_bits(range(checked), _any(v for _, v, _ in laws)):
        fam = _plainfam(sorted(operators.mask_to_family(sp, masks[f])))
        violations += [{"law": law, "X": fam, "detail": detail}
                       for law, v, detail in laws if v >> f & 1]
        if len(violations) >= room:
            checked = f + 1
            break
    return checked, violations, (closed & (1 << checked) - 1).bit_count()


def _outside(p, q):
    """Per column, the families in columns p and not in columns q."""
    return map(and_, p, map(invert, q))


def _plainfam(fam):
    return [[list(c) for c in t] for t in fam]


def _exhaustive_masks(size, cap):
    """Every mask of `size` bits, refused when size is over the cap."""
    if size > cap:
        raise BudgetExceeded(f"2^{size} families is over the exhaustive budget")
    return range(1 << size)


# The seeded pairs come in blocks of this many, drawn column by column.
# Fixed rather than tile_width(sp), so the kernel width cannot move the
# pair stream; it is tile_width's floor.
_PAIR_BLOCK = 4096


def suite_fact00(a, m, l, mode, samples, seed, jobs):
    """The operator laws over every family (exhaustive, at most 2^24) or a
    seeded sample of families, a tile at a time, and the pair laws over
    seeded pairs X within Y, in blocks of _PAIR_BLOCK pairs drawn straight
    into the kernels' columns, up to the family or pair (families first)
    that takes the report past 20 witnesses.  `jobs` is unread:
    perfbench's workloads still pass it by position."""
    m, l = operators.check_profiles(m, l)
    sp = operators.profile_space(a, m, l)
    size = len(sp.m_tuples)
    width = operators.tile_width(sp)
    rng = random.Random(seed)
    if mode == "exhaustive":
        masks = _exhaustive_masks(size, 24)
    else:
        masks = sorted({rng.getrandbits(size) for _ in range(samples)})
    checked = closed = 0
    violations = []
    for lo in range(0, len(masks), width):
        c, v, cl = _fact00_chunk(a, m, l, masks[lo:lo + width],
                                 21 - len(violations))
        checked += c
        violations += v
        closed += cl
        if len(violations) > 20:
            break

    # seeded pair laws, a block of n pairs at a time: per m-tuple in index
    # order a y-column of n bits, then per m-tuple an x-column ANDed into
    # its y-column, so Y is uniform and X is Y meet a uniform mask; pair f
    # is bit f of every column
    pairs, total = 0, max(samples, 1000)
    del masks  # so the pairs' blocks reuse the sweep's memory, adding no peak
    while pairs < total and len(violations) <= 20:
        n = min(_PAIR_BLOCK, total - pairs)
        ys = [rng.getrandbits(n) for _ in range(size)]
        xs = [y & rng.getrandbits(n) for y in ys]
        ones = (1 << n) - 1
        ux, uy = (operators.up_sliced(sp, z) for z in (xs, ys))
        ix, iy = (operators.down_sliced(sp, u, ones) for u in (ux, uy))
        laws = [("monotone-up", _any(_outside(ux, uy)), "up not monotone"),
                ("monotone-interior", _any(_outside(ix, iy)),
                 "interior not monotone")]
        for f in operators.at_bits(range(n), _any(v for _, v, _ in laws)):
            X, Y = (_plainfam(sorted(
                t for t, c in zip(sp.m_tuples, z) if c >> f & 1)) for z in (xs, ys))
            violations += [{"law": law, "X": X, "Y": Y, "detail": detail}
                           for law, v, detail in laws if v >> f & 1]
            if len(violations) > 20:
                n = f + 1
                break
        pairs += n

    return RunReport(
        "verify fact00",
        dict(a=a, m=m, l=l, mode=mode, samples=samples, seed=seed),
        {"families_checked": checked, "pairs_checked": pairs,
         "closed_families": closed, "laws": len(_LAW_NAMES)},
        violations,
    )


# ---------------------------------------------------------------------------
# other verification suites

def suite_nilpotency(a, m, l, mode, samples, seed):
    """Boundary nilpotency, index at most sum(m) + 1, over every family or
    seeded samples, a tile of masks at a time, up to the first failure.
    Only the families `alive` keeps go through `nilpotency_index`: all of
    them off the dense route, and on it those whose level boundary^k(X) is
    non-empty at every k = 0 ... bound, ANDed per level on columns: a level
    can empty and fill again, as the empty family's does when sum(l) > a."""
    m, l = operators.check_profiles(m, l)
    size = core.count_disjoint_tuples(a, m)
    bound = sum(m) + 1
    rng = random.Random(seed)
    total = len(_exhaustive_masks(size, 24)) if mode == "exhaustive" else samples
    m_tuples = operators.indexed_tuples(a, m)[0]
    sp = operators._route(a, m, l)
    # off the dense route no kernel reads columns: draw one family at a time
    width = operators.tile_width(sp) if sp else 1
    checked, witnesses = total, []
    for lo in range(0, total, width):
        n = min(width, total - lo)
        # exhaustive tiles are ranges, so `columns` reads their truth tables
        tile = (range(lo, lo + n) if mode == "exhaustive"
                else [rng.getrandbits(size) for _ in range(n)])
        alive = ones = (1 << n) - 1
        d = operators.columns(tile, size) if sp else ()
        for _ in range(bound + 1 if sp else 0):
            alive &= _any(d)
            d = list(_outside(operators.interior_sliced(sp, d, ones), d))
        for f in operators.at_bits(range(n), alive):
            X = frozenset(operators.at_bits(m_tuples, tile[f]))
            idx = operators.nilpotency_index(a, m, l, X)
            if isinstance(idx, operators.CycleReport):
                w = {"kind": "cycle", "start": idx.start, "period": idx.period,
                     "family": _plainfam(idx.family)}
            elif idx > bound:
                w = {"kind": "index-over-bound", "index": idx, "bound": bound}
            else:
                continue
            witnesses.append({**w, "X": _plainfam(sorted(X))})
            checked = lo + f + 1
            break
        if witnesses:
            break
    return RunReport(
        "verify nilpotency",
        dict(a=a, m=m, l=l, mode=mode, samples=samples, seed=seed),
        {"families_checked": checked, "total": total, "bound": bound},
        witnesses,
    )


def suite_bijection(a, n):
    if a * n > 20:
        raise BudgetExceeded(f"2^{a * n} sequences is over the exhaustive budget")
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(a), k) for k in range(a + 1)
        )
    )
    # Every sequence before the first failure round-trips, so their images
    # are distinct and need not be kept: the failing sequence s's image q
    # repeats an earlier one only if that one is back = disjoint_to_fin(q).
    checked, repeat, witnesses = 0, 0, []
    for s in itertools.product(subsets, repeat=n):
        q = maps.fin_to_disjoint(s)
        checked += 1
        back = maps.disjoint_to_fin(q, n)
        if back != s:
            witnesses.append({"sequence": _plainfam([s])})
            position = {c: i for i, c in enumerate(subsets)}
            repeat = (len(back) == n and all(c in position for c in back)
                      and [position[c] for c in back] < [position[c] for c in s]
                      and maps.fin_to_disjoint(back) == q)
            break
    distinct = checked - repeat
    return RunReport(
        "verify bijection", {"a": a, "n": n},
        {"round_trips": checked, "distinct_images": distinct,
         "count_identity": (2 ** a) ** n == (2 ** n) ** a == distinct},
        witnesses,
    )


def suite_ramsey(max_colorings):
    witnesses = []
    q = ramsey.RamseyQuery((2,), 2, 3)
    tri = ramsey.search_min_N(q, cap=7, max_colorings=max_colorings)
    cert_ok = False
    if tri.value == 6 and tri.counterexample is not None:
        col = ramsey.ProductColoring((5,), (2,), tri.counterexample)
        cert_ok = not any(
            ramsey.check_witness(col, [T], d)
            for T in itertools.combinations(range(5), 3)
            for d in range(2)
        )
    if tri.value != 6 or not cert_ok:
        witnesses.append({"query": "(j=2,c=2,r=3)", "value": tri.value,
                          "certificate_valid": cert_ok})

    pigeonhole = {}
    for c in (1, 2, 3):
        for r in (1, 2, 3, 4):
            expect = c * (r - 1) + 1
            got = ramsey.search_min_N(
                ramsey.RamseyQuery((1,), c, r), cap=expect + 1,
                max_colorings=max_colorings,
            ).value
            pigeonhole[f"c={c},r={r}"] = got
            if got != expect:
                witnesses.append({"query": f"(j=1,c={c},r={r})",
                                  "value": got, "expected": expect})

    bound_checked = 0
    for j, c, r in [(1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 2, 3),
                    (2, 3, 2), (3, 2, 3), (0, 2, 2)]:
        qq = ramsey.RamseyQuery((j,), c, r)
        ub = ramsey.upper_bound_R(qq)
        try:
            res = ramsey.has_property((ub,), qq, max_colorings=max_colorings)
        except BudgetExceeded:
            continue
        bound_checked += 1
        if not res.holds:
            witnesses.append({"query": f"(j={j},c={c},r={r})", "bound": ub,
                              "holds": False})
    return RunReport(
        "verify ramsey", {"max_colorings": max_colorings},
        {"min_N_triangle": tri.value, "pigeonhole": pigeonhole,
         "bounds_validated": bound_checked},
        witnesses,
    )


# Slots with at most _UNIFORM_MAX_TUPLES m-profile tuples are sampled as
# uniform subsets; larger slots get at most _FEW_MEMBERS members, because
# the sparse operator route is fast only while few members cover the ground.
_UNIFORM_MAX_TUPLES = 64
_FEW_MEMBERS = 4


def sample_indexed_family(cfg, rng):
    """Seeded random family conforming to a config: uniform subsets on
    slots with small m-sides, few-member samples on the others."""
    X = {}
    for j, m in cfg.slots:
        tuples = operators.indexed_tuples(cfg.a, m)[0]
        if len(tuples) <= _UNIFORM_MAX_TUPLES:
            fam = frozenset(t for t in tuples if rng.random() < 0.5)
        else:
            fam = frozenset(rng.sample(tuples, rng.randrange(_FEW_MEMBERS + 1)))
        if fam:
            X[j] = X.get(j, frozenset()) | fam
    return X


def suite_coding(cfg, mode, samples, seed):
    # through partitions when materialize fits its budget on any family
    use_partitions = sum(
        core.count_disjoint_tuples(cfg.a, m)
        * operators.count_extensions(cfg.a, m, cfg.f(j, m, k))
        for j, m, k in cfg.keys()
    ) <= operators.EXTENSION_BUDGET

    if mode == "exhaustive":
        if len(cfg.slots) != 1:
            raise UsageError("exhaustive mode needs a single-slot config")
        j, m = cfg.slots[0]
        tuples = operators.indexed_tuples(cfg.a, m)[0]
        # the empty family too, kept under its slot: it encodes as {} does
        families = ({j: frozenset(operators.at_bits(tuples, mask))}
                    for mask in _exhaustive_masks(len(tuples), 14))
    else:
        rng = random.Random(seed)
        families = (sample_indexed_family(cfg, rng) for _ in range(samples))
    checked, witnesses = 0, []
    for checked, X in enumerate(families, 1):
        # from the partition set when it fits the budget, else the book
        book = coding.encode(X, cfg)
        H = coding.materialize(book)[0] if use_partitions else None
        got = coding.decode(book) if H is None else coding.decode(H, cfg)
        if coding.normalize_indexed(got) != coding.normalize_indexed(X):
            witnesses.append(
                {"X": {str(j): _plainfam(sorted(f)) for j, f in X.items()}})
            break
    return RunReport(
        "verify coding",
        {"config": json.loads(cfg.to_json()), "mode": mode,
         "samples": samples, "seed": seed},
        {"round_trips": checked, "via_partitions": use_partitions},
        witnesses,
    )


# The suite's fixed size, reported in its config: the largest ground set
# of the transposition sweep and the largest n of the orbit sweep.
_SYMMETRY_A_MAX = 7
_SYMMETRY_N_MAX = 3


def suite_symmetry():
    witnesses = []

    orbit_checked = 0
    for n in range(_SYMMETRY_N_MAX + 1):
        B = tuple(range(n + 2))
        half = factorial(n + 2) // 2
        sequences = set(itertools.permutations(B, n + 1))
        for s in itertools.permutations(B, n + 1):
            op = symmetry.even_odd_orbits(B, s)
            orbit_checked += 1
            ok = (
                not (op.xi & op.theta)
                and len(op.xi) == len(op.theta) == half
                and op.xi | op.theta == sequences
            )
            if not ok:
                witnesses.append({"kind": "orbit", "B": list(B), "s": list(s)})

    # apply_perm is pure, so each distinct transposition found for p is
    # applied to p once (finding none fails); every (p, B) still gets its
    # own verdict
    trans_checked = 0
    for n in (1, 2):
        for a in range(n + 2, _SYMMETRY_A_MAX + 1):
            for p in core.enum_disjoint_tuples(a, (1,) * n):
                fixes = {None: False}
                for B in itertools.combinations(range(a), n + 2):
                    trans_checked += 1
                    t = symmetry.find_fixing_transposition(p, B, a)
                    if t not in fixes:
                        fixes[t] = symmetry.apply_perm(t, p) == p
                    if not fixes[t]:
                        witnesses.append({"kind": "transposition",
                                          "p": _plainfam([p]), "B": list(B)})

    fiber_checked = 0
    allB = list(core.enum_B_n(5, 1))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        fibers = Counter(symmetry.restrict_outside(Q, E) for Q in allB)
        fiber_checked += len(allB)
        for size in fibers.values():
            if size > symmetry.fiber_bound(1, E):
                witnesses.append({"kind": "fiber", "E": list(E), "size": size})
        # one test per pair of distinct projections, one witness per pair
        # of partitions in their fibers
        for QE, q_size in fibers.items():
            for PE, p_size in fibers.items():
                if (len(QE) == len(PE) and QE != PE
                        and symmetry.projection_preceq(QE, PE)):
                    witnesses += [{"kind": "projection-law", "E": list(E)}
                                  for _ in range(q_size * p_size)]

    return RunReport(
        "verify symmetry", {"a_max": _SYMMETRY_A_MAX, "n_max": _SYMMETRY_N_MAX},
        {"orbit_pairs": orbit_checked, "transpositions": trans_checked,
         "fiber_partitions": fiber_checked},
        witnesses,
    )


# ---------------------------------------------------------------------------
# counting tables

# Most items emit_counts enumerates over a whole table.  A row whose count
# would take the table past it is reported infeasible and not enumerated.
_COUNT_BUDGET = 2_000_000


def _tuple_profiles(a, n_max):
    """Profiles of arity 1..n_max with parts below 4 that fit in a, each
    arity in lexicographic order.  Each arity extends the one before by a
    last part that still fits, so no profile over a is made."""
    out, level = [], [()]
    for _ in range(n_max):
        level = [m + (x,) for m in level for x in range(min(3, a - sum(m)) + 1)]
        out += level
    return out


# Per space: the row keys at one ground size, and a row's closed form and
# enumerator.
_SPACES = {
    "bn": (lambda a, n_max: range(n_max + 1), core.count_B_n, core.enum_B_n),
    "on": (lambda a, n_max: range(n_max + 1), lambda a, n: (n + 1) ** a,
           core.enum_O_n),
    "tuples": (_tuple_profiles, core.count_disjoint_tuples,
               core.enum_disjoint_tuples),
}


# Counts an iterator's items at C level in O(1) memory: each item is
# dropped before the next is made, so an enumerator that reuses its result
# tuple still can (a generator's loop variable would hold it).
_not_none = partial(is_not, None)


def emit_counts(space, a_max, n_max):
    if space not in _SPACES:
        raise UsageError(f"unknown space {space!r}")
    keys, formula, enum = _SPACES[space]
    rows = []
    left = _COUNT_BUDGET
    for a in range(a_max + 1):
        for key in keys(a, n_max):
            label = key if isinstance(key, int) else "|".join(map(str, key))
            count = formula(a, key)
            if count > left:
                rows.append((a, label, count, "", "infeasible"))
                continue
            left -= count
            got = countOf(map(_not_none, enum(a, key)), True)
            rows.append((a, label, count, got, count == got))
    return rows
