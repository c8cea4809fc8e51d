"""Batch command-line front-end.

Verbs:
  verify {fact00,nilpotency,bijection,ramsey,coding,symmetry}  -- property suites
  counts                                                       -- counting tables
  ramsey {check,search,bound}                                  -- direct Ramsey queries
  code {encode,decode,demo}                                    -- the partition coder
  symmetry {orbits,support,fiber,chain}                        -- symmetry toolkit

All randomized paths are seeded; reports are deterministic JSON (CSV for
tables via --format csv).  Exit codes: 0 pass, 1 violation/infeasible,
2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import factorial

from . import coding, core, maps, operators, ramsey, symmetry
from .report import PASS, VIOLATION, RunReport, rows_to_csv


class UsageError(ValueError):
    """Invalid configuration: exit code 2."""


# ---------------------------------------------------------------------------
# operator-law suite (fact00)

_LAW_NAMES = (
    "monotone-up", "extensive-interior", "monotone-interior",
    "up-of-interior", "idempotent-interior", "injective-on-closed",
    "profile-monotone-interior", "nesting",
)


def _fact00_chunk(args):
    """Per-X laws over a sequence of masks; returns counters, violations,
    and (up-mask, X-mask) pairs of interior-closed families for the
    global injectivity check.  Each up-closure and interior is computed
    once per family: interior(X) = down(up(X)) is shared by the laws, the
    sub-profile at l itself and the first nesting level."""
    a, m, l, masks = args
    sp = operators.profile_space(a, m, l)
    sub = [
        operators.profile_space(a, m, lp)
        for lp in itertools.product(*(range(mi, li + 1) for mi, li in zip(m, l)))
    ]
    # (lower, upper) index pairs of comparable sub-profiles, in sweep order
    comparable = [
        (i, j)
        for i, spp in enumerate(sub)
        for j, spq in enumerate(sub)
        if all(x <= y for x, y in zip(spp.l, spq.l))
    ]
    full = sp.full_m_mask
    # interior(empty family): every nesting level that reaches it shares it
    empty_interior = operators.interior_mask(sp, 0)
    checked = 0
    violations = []
    closed = []

    def witness(law, xmask, detail):
        fam = sorted(operators.mask_to_family(sp, xmask))
        violations.append({"law": law, "X": _plainfam(fam), "detail": detail})

    for xmask in masks:
        checked += 1
        ux = operators.up_mask(sp, xmask)
        al = operators.down_mask(sp, ux)
        if xmask & ~al:
            witness("extensive-interior", xmask, "X not within its interior")
        ual = operators.up_mask(sp, al)
        # when up(al) = up(X), interior(al) = down(up(X)) = al already
        if ual != ux:
            witness("up-of-interior", xmask, "up(interior(X)) != up(X)")
            if operators.down_mask(sp, ual) != al:
                witness("idempotent-interior", xmask, "interior not idempotent")
        if al == xmask:
            closed.append((ux, xmask))
        ints = [al if spp.l == sp.l else operators.interior_mask(spp, xmask)
                for spp in sub]
        for i, j in comparable:
            if ints[i] & ~ints[j]:
                witness(
                    "profile-monotone-interior", xmask,
                    f"interior at {sub[i].l} not within interior at {sub[j].l}",
                )
        # level k: d = boundary^k(X), di = interior(d); once both are
        # empty every later level repeats a passing check
        d, di = xmask, al
        for k in range(sum(m) + 2):
            if k:
                di = operators.interior_mask(sp, d) if d else empty_interior
            if not (d or di):
                break
            nd = di & ~d & full
            if d != di & ~nd:
                witness("nesting", xmask, "level set != interior minus next level")
            d = nd
        if len(violations) > 20:
            break
    return checked, violations, closed


def _plainfam(fam):
    return [[list(c) for c in t] for t in fam]


def suite_fact00(a, m, l, mode, samples, seed, jobs):
    sp = operators.profile_space(a, m, l)
    size = len(sp.m_tuples)
    report = RunReport(
        command="verify fact00",
        config={"a": a, "m": m, "l": l, "mode": mode, "samples": samples,
                "seed": seed},
    )
    rng = random.Random(seed)
    if mode == "exhaustive":
        if size > 20:
            raise UsageError(f"2^{size} families is over the exhaustive budget")
        masks = range(1 << size)
        chunk = max(1024, len(masks) // max(jobs, 1) // 4)
    else:
        masks = sorted({rng.getrandbits(size) for _ in range(samples)})
        chunk = max(1, -(-len(masks) // max(jobs, 1)))
    # contiguous slices of the masks, at most one per job in random mode
    tasks = [(a, m, l, masks[lo:lo + chunk])
             for lo in range(0, len(masks), chunk)]

    checked = 0
    violations = []
    closed = []
    # no more workers than tasks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fact00_chunk, tasks))
    else:
        results = [_fact00_chunk(t) for t in tasks]
    for c, v, cl in results:
        checked += c
        violations.extend(v)
        closed.extend(cl)

    # injectivity of up on interior-closed families, across all chunks
    seen = {}
    for upm, xmask in sorted(closed):
        if upm in seen and seen[upm] != xmask:
            violations.append({
                "law": "injective-on-closed",
                "X": _plainfam(sorted(operators.mask_to_family(sp, seen[upm]))),
                "detail": "two closed families share an up-closure",
            })
        seen[upm] = xmask

    # pair laws, seeded
    pair_checked = 0
    for _ in range(max(samples, 1000)):
        ymask = rng.getrandbits(size)
        xmask = ymask & rng.getrandbits(size)
        pair_checked += 1
        ux = operators.up_mask(sp, xmask)
        uy = operators.up_mask(sp, ymask)
        if ux & ~uy:
            violations.append({
                "law": "monotone-up",
                "X": _plainfam(sorted(operators.mask_to_family(sp, xmask))),
                "Y": _plainfam(sorted(operators.mask_to_family(sp, ymask))),
                "detail": "up not monotone",
            })
        if operators.down_mask(sp, ux) & ~operators.down_mask(sp, uy):
            violations.append({
                "law": "monotone-interior",
                "X": _plainfam(sorted(operators.mask_to_family(sp, xmask))),
                "Y": _plainfam(sorted(operators.mask_to_family(sp, ymask))),
                "detail": "interior not monotone",
            })

    report.counters = {
        "families_checked": checked,
        "pairs_checked": pair_checked,
        "closed_families": len(closed),
        "laws": len(_LAW_NAMES),
    }
    report.witnesses = violations
    report.outcome = VIOLATION if violations else PASS
    return report


# ---------------------------------------------------------------------------
# other verification suites

def suite_nilpotency(a, m, l, mode, samples, seed):
    report = RunReport(
        command="verify nilpotency",
        config={"a": a, "m": m, "l": l, "mode": mode, "samples": samples,
                "seed": seed},
    )
    m, l = operators.check_profiles(m, l)
    size = core.count_disjoint_tuples(a, m)
    bound = sum(m) + 1
    if mode == "exhaustive":
        if size > 24:
            raise UsageError(f"2^{size} families is over the exhaustive budget")
        masks = range(1 << size)
        total = 1 << size
    else:
        rng = random.Random(seed)
        total = samples
        masks = (rng.getrandbits(size) for _ in range(samples))
    # bit i of a mask selects the i-th m-tuple in enumeration order
    m_tuples = tuple(core.enum_disjoint_tuples(a, m))
    checked = 0
    for mask in masks:
        checked += 1
        X = frozenset(t for i, t in enumerate(m_tuples) if mask >> i & 1)
        idx = operators.nilpotency_index(a, m, l, X)
        if isinstance(idx, operators.CycleReport):
            report.outcome = VIOLATION
            report.witnesses = [{
                "kind": "cycle",
                "start": idx.start,
                "period": idx.period,
                "family": _plainfam(idx.family),
                "X": _plainfam(sorted(X)),
            }]
            break
        if idx > bound:
            report.outcome = VIOLATION
            report.witnesses = [{
                "kind": "index-over-bound", "index": idx, "bound": bound,
                "X": _plainfam(sorted(X)),
            }]
            break
    report.counters = {"families_checked": checked, "total": total,
                       "bound": bound}
    return report


def suite_bijection(a, n):
    report = RunReport(command="verify bijection", config={"a": a, "n": n})
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(a), k) for k in range(a + 1)
        )
    )
    images = set()
    checked = 0
    for s in itertools.product(subsets, repeat=n):
        q = maps.fin_to_disjoint(s)
        images.add(q)
        checked += 1
        if maps.disjoint_to_fin(q, n) != s:
            report.outcome = VIOLATION
            report.witnesses.append({"sequence": _plainfam([s])})
            break
    expected = (2 ** a) ** n
    report.counters = {
        "round_trips": checked,
        "distinct_images": len(images),
        "count_identity": expected == (2 ** n) ** a == len(images),
    }
    if not report.counters["count_identity"]:
        report.outcome = VIOLATION
    return report


def suite_ramsey(max_colorings):
    report = RunReport(command="verify ramsey",
                       config={"max_colorings": max_colorings})
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
        report.outcome = VIOLATION
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
                report.outcome = VIOLATION
                witnesses.append({"query": f"(j=1,c={c},r={r})",
                                  "value": got, "expected": expect})

    bound_checked = 0
    for j, c, r in [(1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 2, 3),
                    (2, 3, 2), (3, 2, 3), (0, 2, 2)]:
        qq = ramsey.RamseyQuery((j,), c, r)
        ub = ramsey.upper_bound_R(qq)
        try:
            res = ramsey.has_property((ub,), qq, max_colorings=max_colorings)
        except operators.BudgetExceeded:
            continue
        bound_checked += 1
        if not res.holds:
            report.outcome = VIOLATION
            witnesses.append({"query": f"(j={j},c={c},r={r})", "bound": ub,
                              "holds": False})
    report.counters = {
        "min_N_triangle": tri.value,
        "pigeonhole": pigeonhole,
        "bounds_validated": bound_checked,
    }
    report.witnesses = witnesses
    return report


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
        tuples = sorted(core.enum_disjoint_tuples(cfg.a, m))
        if len(tuples) <= _UNIFORM_MAX_TUPLES:
            fam = frozenset(t for t in tuples if rng.random() < 0.5)
        else:
            fam = frozenset(rng.sample(tuples, rng.randrange(_FEW_MEMBERS + 1)))
        if fam:
            X[j] = X.get(j, frozenset()) | fam
    return X


def suite_coding(config_path, mode, samples, seed):
    cfg = _load_config(config_path)
    report = RunReport(
        command="verify coding",
        config={"config": json.loads(cfg.to_json()), "mode": mode,
                "samples": samples, "seed": seed},
    )
    # through partitions when materialize fits its budget on any family
    use_partitions = sum(
        core.count_disjoint_tuples(cfg.a, m)
        * operators.count_extensions(cfg.a, m, cfg.f(j, m, k))
        for j, m, k in cfg.keys()
    ) <= operators.EXTENSION_BUDGET

    def roundtrip(X):
        # from the partition set when it fits the budget, else the book
        book = coding.encode(X, cfg)
        H = coding.materialize(book)[0] if use_partitions else None
        got = coding.decode(book) if H is None else coding.decode(H, cfg)
        return coding.normalize_indexed(got) == coding.normalize_indexed(X)

    checked = 0
    if mode == "exhaustive":
        if len(cfg.slots) != 1:
            raise UsageError("exhaustive mode needs a single-slot config")
        j, m = cfg.slots[0]
        tuples = sorted(core.enum_disjoint_tuples(cfg.a, m))
        if len(tuples) > 14:
            raise UsageError(f"2^{len(tuples)} families is over the exhaustive budget")
        for mask in range(1 << len(tuples)):
            fam = frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
            X = {j: fam} if fam else {}
            checked += 1
            if not roundtrip(X):
                report.outcome = VIOLATION
                report.witnesses.append({"X": {str(j): _plainfam(sorted(fam))}})
                break
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            X = sample_indexed_family(cfg, rng)
            checked += 1
            if not roundtrip(X):
                report.outcome = VIOLATION
                report.witnesses.append({
                    "X": {str(j): _plainfam(sorted(f)) for j, f in X.items()}
                })
                break
    report.counters = {"round_trips": checked,
                       "via_partitions": use_partitions}
    return report


def suite_symmetry(a_max=7, n_max=3):
    report = RunReport(command="verify symmetry",
                       config={"a_max": a_max, "n_max": n_max})
    witnesses = []

    orbit_checked = 0
    for n in range(n_max + 1):
        B = tuple(range(n + 2))
        for s in itertools.permutations(B, n + 1):
            op = symmetry.even_odd_orbits(B, s)
            orbit_checked += 1
            half = factorial(n + 2) // 2
            ok = (
                not (op.xi & op.theta)
                and len(op.xi) == len(op.theta) == half
                and op.xi | op.theta == set(itertools.permutations(B, n + 1))
            )
            if not ok:
                witnesses.append({"kind": "orbit", "B": list(B), "s": list(s)})

    trans_checked = 0
    for n in (1, 2):
        for a in range(n + 2, a_max + 1):
            for p in core.enum_disjoint_tuples(a, (1,) * n):
                for B in itertools.combinations(range(a), n + 2):
                    trans_checked += 1
                    t = symmetry.find_fixing_transposition(p, B, a)
                    if t is None or symmetry.apply_perm(t, p) != p:
                        witnesses.append({"kind": "transposition",
                                          "p": _plainfam([p]), "B": list(B)})

    fiber_checked = 0
    allB = list(core.enum_B_n(5, 1))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        restricted = [symmetry.restrict_outside(Q, E) for Q in allB]
        buckets = {}
        for Q, QE in zip(allB, restricted):
            buckets.setdefault(QE, []).append(Q)
        fiber_checked += len(allB)
        for key, qs in buckets.items():
            if len(qs) > symmetry.fiber_bound(1, E):
                witnesses.append({"kind": "fiber", "E": list(E),
                                  "size": len(qs)})
        for Q, QE in zip(allB, restricted):
            for P, PE in zip(allB, restricted):
                if symmetry.preceq(Q, P, E) and len(QE) == len(PE) and QE != PE:
                    witnesses.append({"kind": "projection-law", "E": list(E)})

    report.counters = {
        "orbit_pairs": orbit_checked,
        "transpositions": trans_checked,
        "fiber_partitions": fiber_checked,
    }
    report.witnesses = witnesses
    report.outcome = VIOLATION if witnesses else PASS
    return report


# ---------------------------------------------------------------------------
# counting tables

# Largest count that emit_counts checks by enumeration.
_COUNT_BUDGET = 2_000_000


def _tuple_profiles(a, n_max):
    """Profiles of arity 1..n_max with parts below 4 that fit in a."""
    return [m for n in range(1, n_max + 1)
            for m in itertools.product(range(4), repeat=n) if sum(m) <= a]


# Per space: the row keys at one ground size, and a row's closed form and
# enumerator.
_SPACES = {
    "bn": (lambda a, n_max: range(n_max + 1), core.count_B_n, core.enum_B_n),
    "on": (lambda a, n_max: range(n_max + 1), lambda a, n: (n + 1) ** a,
           core.enum_O_n),
    "tuples": (_tuple_profiles, core.count_disjoint_tuples,
               core.enum_disjoint_tuples),
}


def emit_counts(space, a_max, n_max):
    if space not in _SPACES:
        raise UsageError(f"unknown space {space!r}")
    keys, formula, enum = _SPACES[space]
    rows = []
    for a in range(a_max + 1):
        for key in keys(a, n_max):
            label = key if isinstance(key, int) else "|".join(map(str, key))
            count = formula(a, key)
            if count > _COUNT_BUDGET:
                rows.append((a, label, count, "", "infeasible"))
                continue
            got = sum(1 for _ in enum(a, key))
            rows.append((a, label, count, got, count == got))
    return rows


# ---------------------------------------------------------------------------
# coding verbs

def _load_json(path, what, parse):
    """parse() of the text of the file at path.  An unreadable file or
    malformed content is a usage error; JSON of the wrong shape shows up
    as TypeError or AttributeError in the parsers."""
    try:
        with open(path) as f:
            return parse(f.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise UsageError(f"bad {what} {path}: {type(e).__name__}: {e}")


def _load_config(path):
    return _load_json(path, "config", coding.CodingConfig.from_json)


def _load_family(path, cfg):
    def parse(text):
        X = {
            int(j): frozenset(tuple(tuple(c) for c in t) for t in fam)
            for j, fam in json.loads(text).items()
        }
        return coding.validate_indexed(X, cfg)

    return _load_json(path, "family", parse)


def demo_coding(cfg, X=None):
    if X is None:
        j, m = cfg.slots[0]
        first = next(iter(core.enum_disjoint_tuples(cfg.a, m)))
        X = {j: frozenset({first})}
    print(f"ground size {cfg.a}, arity {cfg.n}, slots {list(cfg.slots)}")
    print("input X:")
    for j, fam in sorted(X.items()):
        print(f"  {j}: {sorted(fam)}")
    book = coding.encode(X, cfg)
    print("code book:")
    for key, fam in sorted(book.Y.items()):
        print(f"  {key}: {sorted(fam)}")
    H, over = coding.materialize(book)
    if H is None:
        print(f"materialization infeasible ({over} candidate tuples); "
              "decoding symbolically")
        dec = coding.decode(book)
    else:
        print(f"|H| = {len(H)} partitions")
        for key in sorted(book.Y):
            Z = coding.extract_slice(H, cfg, *key)
            print(f"  slice {key}: {len(Z)} tuples")
        dec = coding.decode(H, cfg)
    verdict = coding.normalize_indexed(dec) == coding.normalize_indexed(X)
    print("decoded:")
    for j, fam in sorted(dec.items()):
        print(f"  {j}: {sorted(fam)}")
    print(f"round trip: {'pass' if verdict else 'FAIL'}")
    return verdict


# ---------------------------------------------------------------------------
# command handlers: each reads the parsed options and returns the exit code

def _verify(suite, args):
    """Run a suite on the parsed options and print its report, with the
    wall time outside the digest."""
    t0 = time.monotonic()
    rep = suite(args)
    rep.wall_time_s = time.monotonic() - t0
    print(rep.to_json())
    return rep.exit_code


def _profiles(o):
    # "append" would extend a default list, so the defaults are applied here
    return tuple(o.m or (1,)), tuple(o.l or (2,))


def _counts(args):
    rows = emit_counts(args.space, args.a_max, args.n_max)
    header = ("a", "n_or_profile", "formula", "enumerated", "match")
    if args.format == "csv":
        print(rows_to_csv(rows, header), end="")
    else:
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
    return 0 if all(r[-1] is True for r in rows) else 1


def _query(args):
    return ramsey.RamseyQuery(tuple(args.j), args.c, args.r)


def _ramsey_check(args):
    res = ramsey.has_property(tuple(args.sizes), _query(args),
                              max_colorings=args.max_colorings)
    doc = {"holds": res.holds, "searched": res.searched,
           "pruned": res.pruned, "note": res.note}
    if res.counterexample is not None:
        doc["counterexample"] = sorted(
            (str(k), v) for k, v in res.counterexample.items()
        )
    print(json.dumps(doc, indent=2))
    return 0


def _ramsey_search(args):
    res = ramsey.search_min_N(_query(args), args.cap,
                              max_colorings=args.max_colorings)
    doc = {"value": res.value, "cap": res.cap,
           "counterexample_N": res.counterexample_N,
           "searched": res.searched_total,
           "pruned": res.pruned_total}
    print(json.dumps(doc, indent=2))
    return 0


def _ramsey_bound(args):
    print(json.dumps({"upper_bound": ramsey.upper_bound_R(_query(args))}, indent=2))
    return 0


def _code_encode(args):
    cfg = _load_config(args.config)
    print(coding.encode(_load_family(args.family, cfg), cfg).to_json())
    return 0


def _code_decode(args):
    cfg = _load_config(args.config)
    book = _load_json(args.book, "book", coding.CodeBook.from_json)
    if book.cfg != cfg:
        raise UsageError("book does not match the given config")
    X = coding.decode(book)
    # decode . encode = id, so a book is a code iff it re-encodes
    try:
        again = coding.encode(X, cfg)
    except ValueError as e:
        raise UsageError(f"book is not the code of any family: {e}") from e
    if again != book:
        raise UsageError("book is not the code of any family: its "
                         "decoded family encodes to a different book")
    print(json.dumps(
        {str(j): sorted(_plainfam(fam)) for j, fam in sorted(X.items())},
        indent=2,
    ))
    return 0


def _code_demo(args):
    cfg = _load_config(args.config)
    X = _load_family(args.family, cfg) if args.family else None
    return 0 if demo_coding(cfg, X) else 1


def _csl(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_blocks(text, a):
    """The partition of range(a) into the given blocks and singletons;
    ValueError on an empty, overlapping or out-of-range block."""
    blocks = [_csl(b) for b in text.split("|")] if text else []
    used = {x for b in blocks for x in b}
    blocks += [(x,) for x in range(a) if x not in used]
    return core.canonicalize_partition(a, blocks)


def _parse_elements(text, a):
    E = _csl(text)
    for x in E:
        if not 0 <= x < a:
            raise UsageError(f"--E element {x} out of range [0, {a})")
    return E


def _symmetry_orbits(args):
    B = _csl(args.B) if args.B else tuple(range(args.n + 2))
    s = _csl(args.s) if args.s else B[:-1]
    op = symmetry.even_odd_orbits(B, s)
    print(json.dumps({"xi": sorted(map(list, op.xi)),
                      "theta": sorted(map(list, op.theta))}, indent=2))
    return 0


def _symmetry_support(args):
    P = _parse_blocks(args.blocks, args.a)
    E = _parse_elements(args.E, args.a)
    print(json.dumps(
        {"is_support": symmetry.is_support(E, frozenset(P), args.a)}
    ))
    return 0


def _symmetry_fiber(args):
    P = _parse_blocks(args.blocks, args.a)
    E = _parse_elements(args.E, args.a)
    fib = symmetry.fiber_of(P, E, args.n, args.a)
    bound = symmetry.fiber_bound(args.n, E)
    print(json.dumps({
        "fiber": sorted(_plainfam([Q])[0] for Q in fib),
        "size": len(fib), "bound": bound,
        "within_bound": len(fib) <= bound,
    }, indent=2))
    return 0 if len(fib) <= bound else 1


def _symmetry_chain(args):
    E = _parse_elements(args.E, args.a)
    allB = list(core.enum_B_n(args.a, args.n))
    L = symmetry.longest_strict_chain(allB, E)
    bound = symmetry.chain_bound(args.n, E)
    print(json.dumps({"longest_chain": L, "bound": bound,
                      "within_bound": L <= bound}))
    return 0 if L <= bound else 1


# ---------------------------------------------------------------------------
# the command table: each command accepts exactly the options it reads

# Every option any command reads.  A command lists an option as "name!"
# to make it required.
_OPTIONS = {
    "a": {"type": int, "default": 6},
    "n": {"type": int, "default": 1},
    "m": {"type": int, "action": "append"},
    "l": {"type": int, "action": "append"},
    "mode": {"choices": ("exhaustive", "random"), "default": "exhaustive"},
    "samples": {"type": int, "default": 1000},
    "seed": {"type": int, "default": 0},
    "jobs": {"type": int, "default": 1},
    "config": {},
    "family": {},
    "book": {},
    "space": {"choices": tuple(_SPACES), "default": "bn"},
    "a-max": {"type": int, "default": 6},
    "n-max": {"type": int, "default": 2},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "j": {"type": int, "action": "append"},
    "c": {"type": int},
    "r": {"type": int},
    "sizes": {"type": int, "action": "append"},
    "cap": {"type": int},
    "max-colorings": {
        "type": int, "default": ramsey.DEFAULT_MAX_COLORINGS,
        "help": "budget of the Ramsey search, in search nodes (partial "
                "colorings); grids whose witness masks exceed it are "
                "refused before the search",
    },
    "B": {"help": "comma-separated base elements"},
    "E": {"default": "", "help": "comma-separated elements"},
    "s": {"help": "comma-separated seed sequence"},
    "blocks": {"help": "partition blocks, e.g. '0,1|2,3' (rest singletons)"},
}

# Least value of each count option, checked wherever a command reads it.
_MINIMUM = {"a": 0, "n": 0, "samples": 0, "a-max": 0, "n-max": 0,
            "max-colorings": 0, "jobs": 1}

_SWEEP = ("a", "m", "l", "mode", "samples", "seed")
_QUERY = ("j!", "c!", "r!")

# verb -> (help, action -> (the options the action reads, its handler)).
# counts, the one verb without actions, has the single action None.
_COMMANDS = {
    "verify": ("run a property suite", {
        "fact00": (_SWEEP + ("jobs",), partial(_verify, lambda o: suite_fact00(
            o.a, *_profiles(o), o.mode, o.samples, o.seed, o.jobs))),
        "nilpotency": (_SWEEP, partial(_verify, lambda o: suite_nilpotency(
            o.a, *_profiles(o), o.mode, o.samples, o.seed))),
        "bijection": (("a", "n"), partial(
            _verify, lambda o: suite_bijection(o.a, o.n))),
        "ramsey": (("max-colorings",), partial(
            _verify, lambda o: suite_ramsey(o.max_colorings))),
        "coding": (("config!", "mode", "samples", "seed"), partial(
            _verify, lambda o: suite_coding(o.config, o.mode, o.samples, o.seed))),
        "symmetry": ((), partial(_verify, lambda o: suite_symmetry())),
    }),
    "counts": ("formula-vs-enumeration tables", {
        None: (("space", "a-max", "n-max", "format"), _counts),
    }),
    "ramsey": ("direct Ramsey queries", {
        "check": (_QUERY + ("sizes!", "max-colorings"), _ramsey_check),
        "search": (_QUERY + ("cap!", "max-colorings"), _ramsey_search),
        "bound": (_QUERY, _ramsey_bound),
    }),
    "code": ("partition coder", {
        "encode": (("config!", "family!"), _code_encode),
        "decode": (("config!", "book!"), _code_decode),
        "demo": (("config!", "family"), _code_demo),
    }),
    "symmetry": ("symmetry toolkit", {
        "orbits": (("n", "B", "s"), _symmetry_orbits),
        "support": (("a!", "blocks", "E"), _symmetry_support),
        "fiber": (("a!", "n", "blocks", "E"), _symmetry_fiber),
        "chain": (("a!", "n", "E"), _symmetry_chain),
    }),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="finpart",
        description="verification suites for finitary-partition constructions",
    )
    verbs = p.add_subparsers(dest="verb", required=True)
    for verb, (text, actions) in _COMMANDS.items():
        vp = verbs.add_parser(verb, help=text)
        sub = (None if None in actions
               else vp.add_subparsers(dest="action", required=True))
        for action, (names, handler) in actions.items():
            ap = vp if action is None else sub.add_parser(action)
            for name in names:
                ap.add_argument(f"--{name.rstrip('!')}", required=name.endswith("!"),
                                **_OPTIONS[name.rstrip("!")])
            ap.set_defaults(handler=handler)
    return p


def run(argv=None):
    args = build_parser().parse_args(argv)
    for name, least in _MINIMUM.items():
        if getattr(args, name.replace("-", "_"), least) < least:
            raise UsageError(f"--{name} must be at least {least}")
    return args.handler(args)


def main():
    try:
        code = run()
    except (ValueError, coding.DecodeError) as e:  # UsageError, CodingError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except operators.BudgetExceeded as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
