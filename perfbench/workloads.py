"""The four benchmark workloads: seeded inputs, the operations that run on
them, and an independent answer for every operation.

Importing this module imports finpart, so the runner imports it inside the
set-up timing window.  Every operation is an `Op`: `run()` calls the
package through public functions only, and `check(result)` compares the
result with an answer that does not come from the code under test (the
input itself for round trips, known Ramsey values with replayed
certificates, closed forms for suite counters).  `check` returns None when
the verdict is right and a message when it is wrong.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, perm
from pathlib import Path
from typing import Callable

from finpart import cli, coding, core, operators, ramsey

Refused = operators.BudgetExceeded

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _config(name):
    return coding.CodingConfig.from_json((CONFIGS / name).read_text())


def _normalized(X):
    return {j: frozenset(f) for j, f in X.items() if f}


# ---------------------------------------------------------------------------
# coder workloads

def _roundtrip_check(X):
    want = _normalized(X)

    def check(decoded):
        if _normalized(decoded) != want:
            return f"round trip changed the family {sorted(want.items())!r}"
        return None

    return check


class CoderPartitions:
    """single_slot_a12 families drawn from the 2^12 space, round-tripped
    encode -> materialize -> decode(H, cfg)."""

    name = "coder_partitions"
    limit_s = 0.25
    forks = False
    sliced = False
    pass_len = None
    trace_ops = 256

    def __init__(self):
        self.cfg = _config("single_slot_a12.json")
        self.singles = sorted(core.enum_disjoint_tuples(self.cfg.a, (1,)))

    def _op(self, rng):
        mask = rng.getrandbits(len(self.singles))
        fam = frozenset(t for i, t in enumerate(self.singles) if mask >> i & 1)
        X = {0: fam} if fam else {}
        cfg = self.cfg

        def run():
            H, over = coding.materialize(coding.encode(X, cfg))
            if H is None:
                raise Refused(f"materialize refused: {over} candidate tuples")
            return coding.decode(H, cfg)

        return Op(f"mask={mask:03x}", run, _roundtrip_check(X))

    def setup_op(self, seed):
        return self._op(random.Random(f"{seed}:setup"))

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            yield self._op(rng)


class CoderSymbolic:
    """two_slot_a28 families (criterion 5's sampler) interleaved with
    pair_slot_a24 families, round-tripped encode -> decode(book)."""

    name = "coder_symbolic"
    limit_s = 1.0
    forks = False
    sliced = False
    pass_len = None
    trace_ops = 64

    def __init__(self):
        self.two = _config("two_slot_a28.json")
        self.pair = _config("pair_slot_a24.json")
        self.singles = sorted(core.enum_disjoint_tuples(28, (1,)))
        self.pairs = sorted(core.enum_disjoint_tuples(28, (2,)))
        self.pair_tuples = sorted(core.enum_disjoint_tuples(24, (1, 1)))

    @staticmethod
    def _symbolic(label, X, cfg):
        return Op(label, lambda: coding.decode(coding.encode(X, cfg)),
                  _roundtrip_check(X))

    def _two_slot(self, rng):
        f0 = frozenset(t for t in self.singles if rng.random() < 0.5)
        f1 = frozenset(rng.sample(self.pairs, rng.randrange(7)))
        X = {j: f for j, f in ((0, f0), (1, f1)) if f}
        return self._symbolic(f"two_slot |f0|={len(f0)} |f1|={len(f1)}", X, self.two)

    def _pair_slot(self, rng):
        fam = frozenset(rng.sample(self.pair_tuples, rng.randrange(4)))
        X = {0: fam} if fam else {}
        return self._symbolic(f"pair_slot |f|={len(fam)}", X, self.pair)

    def setup_op(self, seed):
        # a two-slot family, so the ranked profile-space build lands here
        return self._two_slot(random.Random(f"{seed}:setup"))

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            yield self._two_slot(rng)
            yield self._pair_slot(rng)


# ---------------------------------------------------------------------------
# Ramsey grid

def _no_witness(sizes, j, r, c, colors):
    """Replay a counterexample: no r-witness is monochromatic in it."""
    col = ramsey.ProductColoring(tuple(sizes), tuple(j), colors)
    sides = [itertools.combinations(range(N), r) for N in sizes]
    return not any(
        ramsey.check_witness(col, Ts, d)
        for Ts in itertools.product(*sides)
        for d in range(c)
    )


def _grid_op(sizes, j, c, r, holds):
    """has_property on one grid; `holds` is the known answer.  A False
    verdict must come with a certificate that replays."""
    q = ramsey.RamseyQuery(j, c, r)

    def check(res):
        if res.holds != holds:
            return f"holds={res.holds}, known answer {holds}"
        if not holds and not _no_witness(sizes, j, r, c, res.counterexample):
            return "counterexample does not replay"
        return None

    return Op(f"grid j={j} c={c} r={r} sizes={sizes}",
              lambda: ramsey.has_property(sizes, q), check)


def _search_op(j, c, r, cap, value):
    """search_min_N with a known least N; the certificate at N-1 replays."""
    q = ramsey.RamseyQuery(j, c, r)

    def check(res):
        if res.value != value:
            return f"least N {res.value}, known value {value}"
        if res.counterexample_N != value - 1:
            return f"certificate at N={res.counterexample_N}, expected {value - 1}"
        sizes = (value - 1,) * len(j)
        if not _no_witness(sizes, j, r, c, res.counterexample):
            return "certificate does not replay"
        return None

    return Op(f"search j={j} c={c} r={r} cap={cap}",
              lambda: ramsey.search_min_N(q, cap=cap), check)


# least sufficient side size of each criterion-4 query (j, c, r): r points
# when r <= j (a single grid point is a witness), pigeonhole c(r-1)+1 for
# j=1, and R(3,3)=6 for two-coloured graph edges
_KNOWN_R = {(0, 2, 2): 2, (1, 2, 3): 5, (1, 3, 3): 7, (2, 2, 2): 2,
            (2, 2, 3): 6, (2, 3, 2): 2, (3, 2, 3): 3}


def _bound_op(j, c, r):
    """upper_bound_R is validated by the exhaustive checker at the bound."""
    q = ramsey.RamseyQuery((j,), c, r)

    def run():
        ub = ramsey.upper_bound_R(q)
        return ub, ramsey.has_property((ub,), q)

    def check(result):
        ub, res = result
        if ub < _KNOWN_R[(j, c, r)]:
            return f"upper bound {ub} below the known value {_KNOWN_R[(j, c, r)]}"
        if not res.holds:
            return f"property fails at the upper bound {ub}"
        return None

    return Op(f"bound j={j} c={c} r={r}", run, check)


def _ramsey_queries():
    ops = [_search_op((2,), 2, 3, 7, 6)]  # R(3,3) = 6
    ops += [_search_op((1,), c, r, c * (r - 1) + 2, c * (r - 1) + 1)
            for c in (1, 2, 3) for r in (1, 2, 3, 4)]
    ops += [_bound_op(*key) for key in _KNOWN_R]
    # 2-colourable rectangle grids (Fenner et al., arXiv:1005.3750)
    ops += [_grid_op(s, (1, 1), 2, 2, False)
            for s in ((4, 4), (3, 6), (4, 5), (5, 4))]
    # (1,2) on 3x4 holds by pigeonhole: of the three points over any pair
    # of columns two share a colour; on 2x5 colour row 0 with 0, row 1 with 1
    ops += [_grid_op((3, 4), (1, 2), 2, 2, True),
            _grid_op((2, 5), (1, 2), 2, 2, False)]
    # reach: 5x5 and 3x7 are in the 2-colour obstruction set, so these
    # hold and (1,1),2,2 has least side 5; the colouring budget refuses them
    ops += [_grid_op((5, 5), (1, 1), 2, 2, True),
            _grid_op((3, 7), (1, 1), 2, 2, True),
            _search_op((1, 1), 2, 2, 5, 5)]
    return ops


class RamseyGrid:
    """A fixed query list with independently known answers; the seed
    shuffles the order of each pass."""

    name = "ramsey_grid"
    limit_s = 30.0
    forks = False
    # the tail is a 2 s query, too long for probes around it to track the
    # host's speed, so the sidecar times probes all through the loop
    sliced = True
    pass_len = len(_ramsey_queries())
    trace_ops = pass_len

    def setup_op(self, seed):
        return _ramsey_queries()[0]

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            queries = _ramsey_queries()
            rng.shuffle(queries)
            yield from queries


# ---------------------------------------------------------------------------
# shipped property suites

@cache
def _closed_masks(k, L):
    """Masks of the interior-closed families over the k-subsets of a 6-set
    with extension size L, from the definition: X is closed iff every
    k-subset outside X has an L-superset containing no member of X.  Bits
    follow the package's enumeration order of the k-subsets."""
    subsets = [t[0] for t in core.enum_disjoint_tuples(6, (k,))]
    bit = {s: 1 << i for i, s in enumerate(subsets)}
    ext = [
        [sum(bit[s] for s in itertools.combinations(q, k))
         for q in itertools.combinations(range(6), L) if set(p) <= set(q)]
        for p in subsets
    ]
    size = len(subsets)
    return frozenset(
        x for x in range(1 << size)
        if all(x >> i & 1 or any(x & e == 0 for e in ext[i]) for i in range(size))
    )


def _assoc_stirling(j, n):
    """Partitions of a j-set into n blocks, each of size >= 2."""
    if j == 0:
        return 1 if n == 0 else 0
    if j == 1 or n == 0:
        return 0
    return n * _assoc_stirling(j - 1, n) + (j - 1) * _assoc_stirling(j - 2, n - 1)


def _report_check(expected):
    def check(rep):
        if rep.outcome != "pass":
            return f"outcome {rep.outcome}, expected pass"
        if rep.counters != expected:
            return f"counters {rep.counters}, expected {expected}"
        return None

    return check


def _fact00_op(k, L, mode, seed, jobs):
    """fact00 at a=6, m=(k,), l=(L,); counters from closed forms and the
    definition-level closed-family oracle."""
    size = comb(6, k)
    if mode == "exhaustive":
        masks = range(1 << size)
    else:
        rng = random.Random(seed)
        masks = {rng.getrandbits(size) for _ in range(1000)}

    def check(rep):
        closed = _closed_masks(k, L)
        expected = {"families_checked": len(masks), "pairs_checked": 1000,
                    "closed_families": sum(1 for x in masks if x in closed),
                    "laws": 8}
        return _report_check(expected)(rep)

    return Op(f"fact00 a=6 m=({k},) l=({L},) {mode} jobs={jobs}",
              lambda: cli.suite_fact00(6, (k,), (L,), mode, 1000, seed, jobs),
              check)


def _nilpotency_op(l):
    return Op(f"nilpotency a=6 m=(1,) l={l}",
              lambda: cli.suite_nilpotency(6, (1,), l, "exhaustive", 1000, 0),
              _report_check({"families_checked": 64, "total": 64, "bound": 2}))


def _bijection_op():
    return Op("bijection a=4 n=3", lambda: cli.suite_bijection(4, 3),
              _report_check({"round_trips": 4096, "distinct_images": 4096,
                             "count_identity": True}))


def _symmetry_op():
    # orbit pairs: injective (n+1)-sequences of an (n+2)-set, n = 0..3;
    # transpositions: (tuple of n singletons, (n+2)-set) pairs, n = 1, 2;
    # fiber partitions: |B_1(5)| = 2^5 - 5 - 1 per E with |E| <= 2
    expected = {
        "orbit_pairs": sum(factorial(n + 2) for n in range(4)),
        "transpositions": sum(perm(a, n) * comb(a, n + 2)
                              for n in (1, 2) for a in range(n + 2, 8)),
        "fiber_partitions": (2 ** 5 - 5 - 1) * sum(comb(5, k) for k in range(3)),
    }
    return Op("symmetry", lambda: cli.suite_symmetry(), _report_check(expected))


def _counts_op(space):
    if space == "bn":
        def formula(a, key):
            return sum(comb(a, j) * _assoc_stirling(j, key) for j in range(a + 1))
        keys = [(a, n) for a in range(7) for n in range(3)]
    elif space == "on":
        def formula(a, key):
            return (key + 1) ** a
        keys = [(a, n) for a in range(7) for n in range(3)]
    else:
        def formula(a, key):
            m = tuple(int(x) for x in key.split("|"))
            out = factorial(a) // factorial(a - sum(m))
            for x in m:
                out //= factorial(x)
            return out
        keys = [(a, "|".join(map(str, m))) for a in range(7) for n in (1, 2)
                for m in itertools.product(range(4), repeat=n) if sum(m) <= a]

    def check(rows):
        got = [(a, key) for a, key, *_ in rows]
        if got != keys:
            return f"rows {got}, expected {keys}"
        for a, key, f, enum, match in rows:
            if not (f == enum == formula(a, key) and match is True):
                return f"row {(a, key, f, enum, match)} disagrees with {formula(a, key)}"
        return None

    return Op(f"counts {space}", lambda: cli.emit_counts(space, 6, 2), check)


class SuitesExhaustive:
    """The shipped property suites with their expected outcomes and exact
    counters; the seed picks the random-mode sample and the order."""

    name = "suites_exhaustive"
    limit_s = 30.0
    # suite_fact00 with jobs=2 forks two workers, which a loop pinned to one
    # core would squeeze onto that core
    forks = True
    sliced = False
    pass_len = 11
    trace_ops = pass_len

    def _suites(self, seed):
        return [
            _fact00_op(2, 3, "exhaustive", 0, 1),
            _fact00_op(2, 3, "exhaustive", 0, 2),
            _fact00_op(2, 3, "random", seed, 1),
            _fact00_op(1, 3, "exhaustive", 0, 1),
            _nilpotency_op((2,)),
            _nilpotency_op((3,)),
            _bijection_op(),
            _symmetry_op(),
            _counts_op("bn"),
            _counts_op("on"),
            _counts_op("tuples"),
        ]

    def setup_op(self, seed):
        return _fact00_op(1, 3, "exhaustive", 0, 1)

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            suites = self._suites(rng.getrandbits(32))
            rng.shuffle(suites)
            yield from suites


WORKLOADS = {w.name: w for w in (CoderPartitions, CoderSymbolic, RamseyGrid,
                                   SuitesExhaustive)}
