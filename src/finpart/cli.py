"""Batch command-line front-end.

Verbs:
  verify {fact00,nilpotency,bijection,ramsey,coding,symmetry}  -- property suites
  counts                                                       -- counting tables
  ramsey {check,search,bound}                                  -- direct Ramsey queries
  code {encode,decode,roundtrip,demo}                          -- the partition coder
  symmetry {orbits,support,fiber,chain}                        -- symmetry toolkit

All randomized paths are seeded; reports are deterministic JSON (CSV for
tables via --format csv).  Exit codes: 0 pass, 1 violation/infeasible,
2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from math import factorial

from . import coding, core, maps, operators, ramsey, symmetry
from .report import PASS, VIOLATION, RunReport, rows_to_csv


class UsageError(ValueError):
    """Invalid configuration: exit code 2."""


def _family_json(fam):
    return sorted([list(c) for c in t] for t in fam)


# ---------------------------------------------------------------------------
# operator-law suite (fact00)

_LAW_NAMES = (
    "monotone-up", "extensive-interior", "monotone-interior",
    "up-of-interior", "idempotent-interior", "injective-on-closed",
    "profile-monotone-interior", "nesting",
)


def _fact00_chunk(args):
    """Per-X laws over a contiguous mask range; returns counters,
    violations, and (up-mask, X-mask) pairs of interior-closed families
    for the global injectivity check."""
    a, m, l, lo, hi = args
    sp = operators.profile_space(a, m, l)
    sub = [
        operators.profile_space(a, m, lp)
        for lp in itertools.product(*(range(mi, li + 1) for mi, li in zip(m, l)))
    ]
    checked = 0
    violations = []
    closed = []

    def witness(law, xmask, detail):
        fam = sorted(operators.mask_to_family(sp, xmask))
        violations.append({"law": law, "X": _plainfam(fam), "detail": detail})

    for xmask in range(lo, hi):
        checked += 1
        al = operators.interior_mask(sp, xmask)
        if xmask & ~al:
            witness("extensive-interior", xmask, "X not within its interior")
        if operators.up_mask(sp, al) != operators.up_mask(sp, xmask):
            witness("up-of-interior", xmask, "up(interior(X)) != up(X)")
        if operators.interior_mask(sp, al) != al:
            witness("idempotent-interior", xmask, "interior not idempotent")
        if al == xmask:
            closed.append((operators.up_mask(sp, xmask), xmask))
        for spp in sub:
            app = operators.interior_mask(spp, xmask)
            for spq in sub:
                if all(x <= y for x, y in zip(spp.l, spq.l)):
                    if app & ~operators.interior_mask(spq, xmask):
                        witness(
                            "profile-monotone-interior", xmask,
                            f"interior at {spp.l} not within interior at {spq.l}",
                        )
        d = xmask
        for _ in range(sum(m) + 2):
            nd = operators.boundary_mask(sp, d)
            if d != operators.interior_mask(sp, d) & ~nd:
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
    if mode == "exhaustive":
        if size > 20:
            raise UsageError(f"2^{size} families is over the exhaustive budget")
        total = 1 << size
    else:
        total = samples
    rng = random.Random(seed)

    if mode == "exhaustive":
        chunk = max(1024, total // max(jobs, 1) // 4)
        tasks = [
            (a, m, l, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)
        ]
    else:
        masks = sorted({rng.getrandbits(size) for _ in range(samples)})
        # random mode routes through explicit per-mask ranges of width 1
        tasks = [(a, m, l, mk, mk + 1) for mk in masks]
        tasks = _coalesce(tasks)

    checked = 0
    violations = []
    closed = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        if operators.up_mask(sp, xmask) & ~operators.up_mask(sp, ymask):
            violations.append({
                "law": "monotone-up",
                "X": _plainfam(sorted(operators.mask_to_family(sp, xmask))),
                "Y": _plainfam(sorted(operators.mask_to_family(sp, ymask))),
                "detail": "up not monotone",
            })
        if operators.interior_mask(sp, xmask) & ~operators.interior_mask(sp, ymask):
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


def _coalesce(tasks):
    """Merge adjacent (lo, hi) ranges so the pool gets fewer tasks."""
    out = []
    for t in tasks:
        if out and out[-1][4] == t[3]:
            out[-1] = out[-1][:4] + (t[4],)
        else:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# other verification suites

def suite_nilpotency(a, m, l, mode, samples, seed):
    report = RunReport(
        command="verify nilpotency",
        config={"a": a, "m": m, "l": l, "mode": mode, "samples": samples,
                "seed": seed},
    )
    sp = operators.profile_space(a, m, l)
    size = len(sp.m_tuples)
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
    checked = 0
    for mask in masks:
        checked += 1
        idx = operators.nilpotency_index(
            a, m, l, operators.mask_to_family(sp, mask)
        )
        if isinstance(idx, operators.CycleReport):
            report.outcome = VIOLATION
            report.witnesses = [{
                "kind": "cycle",
                "start": idx.start,
                "period": idx.period,
                "family": _plainfam(idx.family),
                "X": _plainfam(sorted(operators.mask_to_family(sp, mask))),
            }]
            break
        if idx > bound:
            report.outcome = VIOLATION
            report.witnesses = [{
                "kind": "index-over-bound", "index": idx, "bound": bound,
                "X": _plainfam(sorted(operators.mask_to_family(sp, mask))),
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


def suite_ramsey(max_colorings, prune):
    report = RunReport(
        command="verify ramsey",
        config={"max_colorings": max_colorings, "prune": prune},
    )
    witnesses = []
    q = ramsey.RamseyQuery((2,), 2, 3)
    tri = ramsey.search_min_N(q, cap=7, max_colorings=max_colorings, prune=prune)
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
                max_colorings=max_colorings, prune=prune,
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
            res = ramsey.has_property((ub,), qq, max_colorings=max_colorings,
                                      prune=prune)
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


def suite_coding(config_path, mode, samples, seed, use_partitions=None):
    cfg = _load_config(config_path)
    report = RunReport(
        command="verify coding",
        config={"config": json.loads(cfg.to_json()), "mode": mode,
                "samples": samples, "seed": seed},
    )
    single_dense = (
        len(cfg.slots) == 1
        and operators.fits_dense(cfg.a, cfg.slots[0][1], cfg.g(*cfg.slots[0]))
    )
    if use_partitions is None:
        use_partitions = single_dense

    def roundtrip(X):
        # from the partition set when asked and within budget, else the book
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
        buckets = {}
        for Q in allB:
            buckets.setdefault(symmetry.restrict_outside(Q, E), []).append(Q)
        fiber_checked += len(allB)
        for key, qs in buckets.items():
            if len(qs) > symmetry.fiber_bound(1, E):
                witnesses.append({"kind": "fiber", "E": list(E),
                                  "size": len(qs)})
        for Q in allB:
            for P in allB:
                QE = symmetry.restrict_outside(Q, E)
                PE = symmetry.restrict_outside(P, E)
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


def emit_counts(space, a_max, n_max):
    rows = []
    if space == "bn":
        for a in range(a_max + 1):
            for n in range(n_max + 1):
                formula = core.count_B_n(a, n)
                if formula > _COUNT_BUDGET:
                    rows.append((a, n, formula, "", "infeasible"))
                    continue
                enum = sum(1 for _ in core.enum_B_n(a, n))
                rows.append((a, n, formula, enum, formula == enum))
    elif space == "on":
        for a in range(a_max + 1):
            for n in range(n_max + 1):
                formula = (n + 1) ** a
                if formula > _COUNT_BUDGET:
                    rows.append((a, n, formula, "", "infeasible"))
                    continue
                enum = sum(1 for _ in core.enum_O_n(a, n))
                rows.append((a, n, formula, enum, formula == enum))
    elif space == "tuples":
        for a in range(a_max + 1):
            for n in range(1, n_max + 1):
                for m in itertools.product(range(4), repeat=n):
                    if sum(m) > a:
                        continue
                    formula = core.count_disjoint_tuples(a, m)
                    if formula > _COUNT_BUDGET:
                        rows.append((a, m, formula, "", "infeasible"))
                        continue
                    enum = sum(1 for _ in core.enum_disjoint_tuples(a, m))
                    rows.append((a, "|".join(map(str, m)), formula, enum,
                                 formula == enum))
    else:
        raise UsageError(f"unknown space {space!r}")
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


def demo_coding(cfg, X=None, out=None):
    out = out if out is not None else sys.stdout
    if X is None:
        j, m = cfg.slots[0]
        first = next(iter(core.enum_disjoint_tuples(cfg.a, m)))
        X = {j: frozenset({first})}
    print(f"ground size {cfg.a}, arity {cfg.n}, slots {list(cfg.slots)}", file=out)
    print("input X:", file=out)
    for j, fam in sorted(X.items()):
        print(f"  {j}: {sorted(fam)}", file=out)
    book = coding.encode(X, cfg)
    print("code book:", file=out)
    for key, fam in sorted(book.Y.items()):
        print(f"  {key}: {sorted(fam)}", file=out)
    H, over = coding.materialize(book)
    if H is None:
        print(f"materialization infeasible ({over} candidate tuples); "
              "decoding symbolically", file=out)
        dec = coding.decode(book)
    else:
        print(f"|H| = {len(H)} partitions", file=out)
        for key in sorted(book.Y):
            Z = coding.extract_slice(H, cfg, *key)
            print(f"  slice {key}: {len(Z)} tuples", file=out)
        dec = coding.decode(H, cfg)
    verdict = coding.normalize_indexed(dec) == coding.normalize_indexed(X)
    print("decoded:", file=out)
    for j, fam in sorted(dec.items()):
        print(f"  {j}: {sorted(fam)}", file=out)
    print(f"round trip: {'pass' if verdict else 'FAIL'}", file=out)
    return verdict


# ---------------------------------------------------------------------------
# argument parsing

_RAMSEY_BUDGET_HELP = ("budget of the Ramsey search, in search nodes (partial "
                       "colorings); grids whose witness masks exceed it are "
                       "refused before the search")


def build_parser():
    p = argparse.ArgumentParser(
        prog="finpart",
        description="verification suites for finitary-partition constructions",
    )
    p.add_argument("--format", choices=("json", "csv"), default=None)
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("suite", choices=("fact00", "nilpotency", "bijection",
                                     "ramsey", "coding", "symmetry"))
    v.add_argument("--a", type=int, default=6)
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--m", type=int, action="append")
    v.add_argument("--l", type=int, action="append")
    v.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--max-colorings", type=int,
                   default=ramsey.DEFAULT_MAX_COLORINGS,
                   help=_RAMSEY_BUDGET_HELP)
    v.add_argument("--no-prune", action="store_true")
    v.add_argument("--config")

    c = sub.add_parser("counts", help="formula-vs-enumeration tables")
    c.add_argument("--space", choices=("bn", "on", "tuples"), default="bn")
    c.add_argument("--a-max", type=int, default=6)
    c.add_argument("--n-max", type=int, default=2)
    c.add_argument("--format", choices=("json", "csv"), default=None)

    r = sub.add_parser("ramsey", help="direct Ramsey queries")
    rsub = r.add_subparsers(dest="action", required=True)
    for name in ("check", "search", "bound"):
        rp = rsub.add_parser(name)
        rp.add_argument("--j", type=int, action="append", required=True)
        rp.add_argument("--c", type=int, required=True)
        rp.add_argument("--r", type=int, required=True)
        if name == "check":
            rp.add_argument("--sizes", type=int, action="append", required=True)
        if name == "search":
            rp.add_argument("--cap", type=int, required=True)
        rp.add_argument("--max-colorings", type=int,
                        default=ramsey.DEFAULT_MAX_COLORINGS,
                        help=_RAMSEY_BUDGET_HELP)
        rp.add_argument("--no-prune", action="store_true")

    d = sub.add_parser("code", help="partition coder")
    dsub = d.add_subparsers(dest="action", required=True)
    for name in ("encode", "decode", "roundtrip", "demo"):
        dp = dsub.add_parser(name)
        dp.add_argument("--config", required=True)
        if name == "encode":
            dp.add_argument("--family", required=True)
        if name == "decode":
            dp.add_argument("--book", required=True)
        if name == "roundtrip":
            dp.add_argument("--mode", choices=("exhaustive", "random"),
                            default="random")
            dp.add_argument("--samples", type=int, default=100)
            dp.add_argument("--seed", type=int, default=0)
        if name == "demo":
            dp.add_argument("--family")
        dp.add_argument("--materialize", action="store_true")

    s = sub.add_parser("symmetry", help="symmetry toolkit")
    ssub = s.add_subparsers(dest="action", required=True)
    for name in ("orbits", "support", "fiber", "chain"):
        sp_ = ssub.add_parser(name)
        sp_.add_argument("--a", type=int, required=True)
        sp_.add_argument("--n", type=int, default=1)
        sp_.add_argument("--B", help="comma-separated base elements")
        sp_.add_argument("--E", default="", help="comma-separated elements")
        sp_.add_argument("--s", help="comma-separated seed sequence")
        sp_.add_argument("--blocks",
                         help="partition blocks, e.g. '0,1|2,3' (rest singletons)")
        sp_.add_argument("--seed", type=int, default=0)
    return p


def _csl(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_blocks(text, a):
    ns = [tuple(int(x) for x in b.split(",")) for b in text.split("|")] if text else []
    return core.partition_from_ns(a, ns)


def run(argv=None):
    args = build_parser().parse_args(argv)

    if args.verb == "verify":
        import time

        t0 = time.monotonic()
        m = tuple(args.m) if args.m else (1,)
        l = tuple(args.l) if args.l else (2,)
        if args.suite == "fact00":
            rep = suite_fact00(args.a, m, l, args.mode, args.samples,
                               args.seed, args.jobs)
        elif args.suite == "nilpotency":
            rep = suite_nilpotency(args.a, m, l, args.mode, args.samples,
                                   args.seed)
        elif args.suite == "bijection":
            rep = suite_bijection(args.a, args.n)
        elif args.suite == "ramsey":
            rep = suite_ramsey(args.max_colorings, not args.no_prune)
        elif args.suite == "coding":
            if not args.config:
                raise UsageError("verify coding needs --config")
            rep = suite_coding(args.config, args.mode, args.samples, args.seed)
        else:
            rep = suite_symmetry()
        rep.wall_time_s = time.monotonic() - t0
        print(rep.to_json())
        return rep.exit_code

    if args.verb == "counts":
        rows = emit_counts(args.space, args.a_max, args.n_max)
        header = ("a", "n_or_profile", "formula", "enumerated", "match")
        if (args.format or "json") == "csv":
            print(rows_to_csv(rows, header), end="")
        else:
            print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
        return 0 if all(r[-1] is True for r in rows) else 1

    if args.verb == "ramsey":
        q = ramsey.RamseyQuery(tuple(args.j), args.c, args.r)
        prune = not args.no_prune
        if args.action == "check":
            res = ramsey.has_property(tuple(args.sizes), q,
                                      max_colorings=args.max_colorings,
                                      prune=prune)
            doc = {"holds": res.holds, "searched": res.searched,
                   "pruned": res.pruned, "note": res.note}
            if res.counterexample is not None:
                doc["counterexample"] = sorted(
                    (str(k), v) for k, v in res.counterexample.items()
                )
            print(json.dumps(doc, indent=2))
            return 0
        if args.action == "search":
            res = ramsey.search_min_N(q, args.cap,
                                      max_colorings=args.max_colorings,
                                      prune=prune)
            doc = {"value": res.value, "cap": res.cap,
                   "counterexample_N": res.counterexample_N,
                   "searched": res.searched_total,
                   "pruned": res.pruned_total}
            print(json.dumps(doc, indent=2))
            return 0
        print(json.dumps({"upper_bound": ramsey.upper_bound_R(q)}, indent=2))
        return 0

    if args.verb == "code":
        cfg = _load_config(args.config)
        if args.action == "demo":
            X = _load_family(args.family, cfg) if args.family else None
            return 0 if demo_coding(cfg, X) else 1
        if args.action == "encode":
            X = _load_family(args.family, cfg)
            book = coding.encode(X, cfg)
            print(book.to_json())
            if args.materialize:
                H, over = coding.materialize(book)
                if H is None:
                    print(json.dumps({"materialize": "infeasible",
                                      "candidates": over}))
                else:
                    print(json.dumps({"materialize": len(H)}))
            return 0
        if args.action == "decode":
            book = _load_json(args.book, "book", coding.CodeBook.from_json)
            if book.cfg != cfg:
                raise UsageError("book does not match the given config")
            X = coding.decode(book)
            print(json.dumps(
                {str(j): _family_json(fam) for j, fam in sorted(X.items())},
                indent=2,
            ))
            return 0
        rep = suite_coding(args.config, args.mode, args.samples, args.seed,
                           use_partitions=args.materialize or None)
        print(rep.to_json())
        return rep.exit_code

    if args.verb == "symmetry":
        a = args.a
        if args.action == "orbits":
            B = _csl(args.B) if args.B else tuple(range(args.n + 2))
            s = _csl(args.s) if args.s else B[:-1]
            op = symmetry.even_odd_orbits(B, s)
            print(json.dumps({"xi": sorted(map(list, op.xi)),
                              "theta": sorted(map(list, op.theta))}, indent=2))
            return 0
        if args.action == "support":
            P = _parse_blocks(args.blocks, a)
            E = _csl(args.E)
            print(json.dumps({"is_support": symmetry.is_support(E, P, a)}))
            return 0
        if args.action == "fiber":
            P = _parse_blocks(args.blocks, a)
            E = _csl(args.E)
            fib = symmetry.fiber_of(P, E, args.n, a)
            bound = symmetry.fiber_bound(args.n, E)
            print(json.dumps({
                "fiber": sorted(_plainfam([Q])[0] for Q in fib),
                "size": len(fib), "bound": bound,
                "within_bound": len(fib) <= bound,
            }, indent=2))
            return 0 if len(fib) <= bound else 1
        E = _csl(args.E)
        allB = list(core.enum_B_n(a, args.n))
        L = symmetry.longest_strict_chain(allB, E)
        bound = symmetry.chain_bound(args.n, E)
        print(json.dumps({"longest_chain": L, "bound": bound,
                          "within_bound": L <= bound}))
        return 0 if L <= bound else 1

    raise UsageError(f"unhandled verb {args.verb}")


def main():
    try:
        code = run()
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (coding.CodingError, coding.DecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except operators.BudgetExceeded as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
