"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible via pytest -v through
the test's own outcome, and in captured output on failure) and enforces
the stated runtime limit where one applies.
"""

import itertools
import random
import time
from math import factorial
from pathlib import Path

from finpart import cli, coding, core, maps, operators, ramsey, symmetry

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name):
    return coding.CodingConfig.from_json((CONFIG_DIR / name).read_text())


def report(name, ok):
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {name} failed"


def test_criterion_01_bijection_roundtrip():
    t0 = time.monotonic()
    ok = True
    subsets = [
        s for k in range(5) for s in itertools.combinations(range(4), k)
    ]
    for n in (1, 2, 3):
        images = set()
        for s in itertools.product(subsets, repeat=n):
            q = maps.fin_to_disjoint(s)
            images.add(q)
            if maps.disjoint_to_fin(q, n) != s:
                ok = False
        if not (len(images) == (2 ** 4) ** n == (2 ** n) ** 4):
            ok = False
    elapsed = time.monotonic() - t0
    report("1 (bijection round trip, a=4, n<=3)", ok and elapsed < 10)


def test_criterion_02_operator_laws():
    t0 = time.monotonic()
    reps = []
    for m, l in [((1,), (2,)), ((1,), (3,))]:
        reps.append(cli.suite_fact00(6, m, l, "exhaustive", 1000, 0, jobs=1))
    reps.append(cli.suite_fact00(6, (2,), (3,), "exhaustive", 1000, 0, jobs=1))
    ok = all(r.outcome == "pass" for r in reps)
    ok = ok and reps[0].counters["families_checked"] == 64
    ok = ok and reps[2].counters["families_checked"] == 2 ** 15
    ok = ok and all(r.counters["pairs_checked"] >= 1000 for r in reps)
    elapsed = time.monotonic() - t0
    report("2 (operator laws, a=6)", ok and elapsed < 300)


def test_criterion_03_nilpotency():
    reps = [
        cli.suite_nilpotency(6, (1,), (2,), "exhaustive", 1000, 0),
        cli.suite_nilpotency(6, (1,), (3,), "exhaustive", 1000, 0),
        cli.suite_nilpotency(8, (1, 1), (2, 2), "random", 1000, 0),
    ]
    ok = all(r.outcome == "pass" for r in reps)
    ok = ok and [r.counters["families_checked"] for r in reps] == [64, 64, 1000]
    # the degenerate regime must surface as a cycle, not a hang
    rep = operators.nilpotency_index(2, (1,), (3,), {((0,),)})
    ok = ok and isinstance(rep, operators.CycleReport)
    cyc = cli.suite_nilpotency(2, (1,), (3,), "exhaustive", 1000, 0)
    ok = ok and cyc.outcome == "violation"
    ok = ok and cyc.witnesses[0]["kind"] == "cycle"
    ok = ok and cyc.witnesses[0]["X"] == [[[0]]]  # the first family, {(0,)}
    report("3 (boundary nilpotency + cycle detection)", ok)


def test_criterion_04_ramsey():
    t0 = time.monotonic()
    ok = True
    res = ramsey.search_min_N(ramsey.RamseyQuery((2,), 2, 3), cap=7)
    ok = ok and res.value == 6 and res.counterexample_N == 5
    col = ramsey.ProductColoring((5,), (2,), res.counterexample)
    ok = ok and not any(
        ramsey.check_witness(col, [T], d)
        for T in itertools.combinations(range(5), 3)
        for d in range(2)
    )
    for c in (1, 2, 3):
        for r in (1, 2, 3, 4):
            got = ramsey.search_min_N(
                ramsey.RamseyQuery((1,), c, r), cap=c * (r - 1) + 2
            ).value
            ok = ok and got == c * (r - 1) + 1
    validated = 0
    for j, c, r in [(0, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 2), (2, 2, 3),
                    (2, 3, 2), (3, 2, 3)]:
        q = ramsey.RamseyQuery((j,), c, r)
        try:
            # unpruned: the pruned search reads the bound it would check
            holds = ramsey.has_property((ramsey.upper_bound_R(q),), q,
                                        prune=False).holds
        except operators.BudgetExceeded:
            continue
        validated += 1
        ok = ok and holds
    ok = ok and validated >= 4
    elapsed = time.monotonic() - t0
    report("4 (polarized Ramsey search + bounds)", ok and elapsed < 600)


def test_criterion_05_coding_roundtrip():
    t0 = time.monotonic()
    ok = True

    cfg = load_config("single_slot_a12.json")
    singles = sorted(core.enum_disjoint_tuples(12, (1,)))
    for mask in range(1 << 12):
        fam = frozenset(t for i, t in enumerate(singles) if mask >> i & 1)
        X = {0: fam} if fam else {}
        H, _ = coding.materialize(coding.encode(X, cfg))
        if coding.normalize_indexed(coding.decode(H, cfg)) != \
                coding.normalize_indexed(X):
            ok = False
            break

    cfgB = load_config("two_slot_a28.json")
    rng = random.Random(7)
    singlesB = sorted(core.enum_disjoint_tuples(28, (1,)))
    pairsB = sorted(core.enum_disjoint_tuples(28, (2,)))
    for _ in range(100):
        X = {}
        f0 = frozenset(t for t in singlesB if rng.random() < 0.5)
        f1 = frozenset(rng.sample(pairsB, rng.randrange(7)))
        if f0:
            X[0] = f0
        if f1:
            X[1] = f1
        if coding.normalize_indexed(coding.decode(coding.encode(X, cfgB))) \
                != coding.normalize_indexed(X):
            ok = False
            break

    cfgC = load_config("pair_slot_a24.json")
    tuplesC = sorted(core.enum_disjoint_tuples(24, (1, 1)))
    for _ in range(100):
        fam = frozenset(rng.sample(tuplesC, rng.randrange(4)))
        X = {0: fam} if fam else {}
        if coding.normalize_indexed(coding.decode(coding.encode(X, cfgC))) \
                != coding.normalize_indexed(X):
            ok = False
            break

    elapsed = time.monotonic() - t0
    report("5 (coding round trips)", ok and elapsed < 900)


def test_criterion_06_prime_signature():
    sig = coding.SizeSignature("prime")
    ok = coding.block_sizes(sig, 0, (1,), 0, 1) == (10,)
    ok = ok and coding.block_sizes(sig, 0, (1,), 1, 1) == (70,)
    for n in (1, 2):
        slots = [
            (j, m)
            for j in range(3)
            for m in itertools.product((1, 2), repeat=n)
        ]
        try:
            coding.validate_signature(sig, slots)
        except coding.CodingError:
            ok = False
    report("6 (prime size signature)", ok)


def test_criterion_07_surjectivity_shadow():
    ok = True
    for a in range(6):
        for n in (1, 2):
            image = set()
            for m in itertools.product(range(2, a + 1), repeat=n):
                for t in core.enum_disjoint_tuples(a, m):
                    P, lands = maps.tuple_to_partition(a, t)
                    if lands:
                        image.add(P)
            if image != set(core.enum_B_n(a, n)):
                ok = False
    report("7 (tuple-to-partition surjectivity)", ok)


def test_criterion_08_symmetry():
    ok = True
    for n in range(4):
        B = tuple(range(n + 2))
        op = symmetry.even_odd_orbits(B, tuple(range(n + 1)))
        half = factorial(n + 2) // 2
        if (op.xi & op.theta or len(op.xi) != half or len(op.theta) != half
                or op.xi | op.theta != set(itertools.permutations(B, n + 1))):
            ok = False
    for n in (1, 2):
        for a in range(n + 2, 8):
            for p in core.enum_disjoint_tuples(a, (1,) * n):
                for B in itertools.combinations(range(a), n + 2):
                    t = symmetry.find_fixing_transposition(p, B, a)
                    if t is None or symmetry.apply_perm(t, p) != p:
                        ok = False
    allB = list(core.enum_B_n(5, 1))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        buckets = {}
        for Q in allB:
            buckets.setdefault(symmetry.restrict_outside(Q, E), []).append(Q)
        if max(len(v) for v in buckets.values()) > symmetry.fiber_bound(1, E):
            ok = False
        for Q in allB:
            for P in allB:
                if symmetry.preceq(Q, P, E):
                    QE = symmetry.restrict_outside(Q, E)
                    PE = symmetry.restrict_outside(P, E)
                    if len(QE) == len(PE) and QE != PE:
                        ok = False
    report("8 (symmetry invariants)", ok)


def test_criterion_09_counting_oracles():
    ok = True
    for a in range(8):
        for n in range(4):
            if core.count_B_n(a, n) != sum(1 for _ in core.enum_B_n(a, n)):
                ok = False
    for j, n, want in [(4, 2, 3), (5, 2, 10), (3, 2, 0)]:
        if core.assoc_stirling(j, n) != want:
            ok = False
        direct = sum(
            1
            for P in core.enum_set_partitions(j)
            if len(P) == n and all(len(b) >= 2 for b in P)
        )
        if direct != want:
            ok = False
    report("9 (counting oracles)", ok)


def test_criterion_10_determinism():
    ok = True
    r1 = cli.suite_fact00(6, (1,), (3,), "random", 200, 42, jobs=1)
    r2 = cli.suite_fact00(6, (1,), (3,), "random", 200, 42, jobs=1)
    ok = ok and r1.canonical_json() == r2.canonical_json()
    serial = cli.suite_fact00(6, (1,), (3,), "exhaustive", 1000, 0, jobs=1)
    parallel = cli.suite_fact00(6, (1,), (3,), "exhaustive", 1000, 0, jobs=2)
    ok = ok and serial.canonical_json() == parallel.canonical_json()
    n1 = cli.suite_nilpotency(6, (1,), (2,), "random", 100, 5)
    n2 = cli.suite_nilpotency(6, (1,), (2,), "random", 100, 5)
    ok = ok and n1.canonical_json() == n2.canonical_json()
    report("10 (deterministic reports, parallel == serial)", ok)
