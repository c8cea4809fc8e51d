import itertools
import random
from functools import cache
from math import factorial

import pytest

from finpart import suites, symmetry
from finpart.core import canonicalize_partition, enum_B_n, ns_blocks
from finpart.maps import fin_to_disjoint, disjoint_to_fin
from finpart.operators import BudgetExceeded
from finpart.report import VIOLATION
from finpart.symmetry import (
    apply_perm,
    chain_bound,
    even_odd_orbits,
    fiber_bound,
    fiber_of,
    find_fixing_transposition,
    is_support,
    longest_strict_chain,
    parity,
    preceq,
    projection_preceq,
    restrict_outside,
    transposition,
)


def identity_perm(a):
    return tuple(range(a))


def compose(pi, sigma):
    """The permutation acting as sigma first, then pi."""
    return tuple(pi[x] for x in sigma)


def inverse(pi):
    out = [0] * len(pi)
    for x, y in enumerate(pi):
        out[y] = x
    return tuple(out)


def from_cycles(a, cycles):
    """Permutation of range(a) from disjoint cycles, e.g. [(0, 1, 2)]."""
    out = list(range(a))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def random_perm(rng, a):
    table = list(range(a))
    rng.shuffle(table)
    return tuple(table)


def test_apply_perm_examples():
    t = transposition(4, 0, 1)
    # a partition is acted on as its block set
    P = frozenset(canonicalize_partition(4, [(0, 2), (1,), (3,)]))
    assert apply_perm(t, P) == \
        frozenset(canonicalize_partition(4, [(1, 2), (0,), (3,)]))
    assert apply_perm(identity_perm(4), P) == P
    c = from_cycles(4, [(0, 1, 2)])
    assert apply_perm(c, ((0,), (1, 3))) == ((1,), (2, 3))
    # tuples of subsets that cover the ground set keep their order
    assert apply_perm((0, 1, 2), ((2,), (0, 1))) == ((2,), (0, 1))
    assert apply_perm((1, 0, 2), ((0, 2), (1,))) == ((1, 2), (0,))
    assert apply_perm((1, 0), {0: (1,), 1: ()}) == {1: (0,), 0: ()}
    with pytest.raises(TypeError, match="list"):
        apply_perm((0,), [0])
    # a negative element would index the table from its end
    for obj in (-1, (-1, 0), 3):
        with pytest.raises(ValueError, match="out of range"):
            apply_perm((1, 2, 0), obj)
    with pytest.raises(ValueError, match=r"not a permutation of range\(2\)"):
        apply_perm((0, 0), (1,))


def test_action_laws():
    rng = random.Random(0)
    a = 6
    P = canonicalize_partition(a, [(0, 1, 2), (3, 4), (5,)])
    t = ((0,), (2, 4))
    fam = frozenset({((0,),), ((3,),)})
    # covers the ground set but has an empty component: a disjoint tuple,
    # not a partition
    cover = ((0, 1, 2), (), (3, 4, 5))
    assert apply_perm((1, 0), ((0, 1), ())) == ((0, 1), ())
    for _ in range(30):
        pi, sg = random_perm(rng, a), random_perm(rng, a)
        for obj in (P, t, fam, cover):
            assert apply_perm(identity_perm(a), obj) == obj
            assert apply_perm(compose(pi, sg), obj) == \
                apply_perm(pi, apply_perm(sg, obj))


def test_parity():
    assert parity(identity_perm(3)) == "even"
    assert parity(transposition(3, 0, 1)) == "odd"
    assert parity(from_cycles(3, [(0, 1, 2)])) == "even"


@pytest.mark.parametrize("pi", [(1.0, 0), (True, False), (0, True),
                                (0.0,), (1, 0, 2.0)])
def test_a_table_entry_that_is_not_an_int_is_refused(pi):
    # 1.0 and True equal 1, so such a table sorts like a permutation;
    # read as one, it would put floats or bools into the images
    message = rf"not a permutation of range\({len(pi)}\)"
    for obj in (0, ((0,),), frozenset({(0,)}), {0: ()}):
        with pytest.raises(ValueError, match=message):
            apply_perm(pi, obj)
    with pytest.raises(ValueError, match=message):
        parity(pi)


def test_parity_homomorphism():
    rng = random.Random(1)
    for _ in range(50):
        pi, sg = random_perm(rng, 6), random_perm(rng, 6)
        odd = (parity(pi) == "odd") ^ (parity(sg) == "odd")
        assert parity(compose(pi, sg)) == ("odd" if odd else "even")


def test_inverse():
    rng = random.Random(2)
    for _ in range(20):
        pi = random_perm(rng, 5)
        assert compose(pi, inverse(pi)) == identity_perm(5)


def test_is_support():
    P = frozenset(canonicalize_partition(4, [(0, 1), (2,), (3,)]))
    assert not is_support((0,), P, 4)
    assert is_support((0, 1), P, 4)
    # the union of non-singleton blocks always supports a partition
    for Q in enum_B_n(5, 1):
        E = tuple(x for b in ns_blocks(Q) for x in b)
        assert is_support(E, frozenset(Q), 5)
    # the full ground set as an object is supported by the empty set
    assert is_support((), tuple(range(4)), 4)


def test_support_monotone():
    P = frozenset(canonicalize_partition(5, [(0, 1), (2,), (3,), (4,)]))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(4)
    ):
        if is_support(E, P, 5):
            for extra in range(5):
                assert is_support(tuple(set(E) | {extra}), P, 5)


def test_is_support_matches_all_transpositions():
    """The star transpositions decide as all pairs outside E do."""
    a = 5
    objects = [frozenset(P) for P in enum_B_n(a, 1)] + [
        ((0, 1), (2,)), ((), (3, 4)), frozenset({((0,), (1,)), ((1,), (0,))}),
    ]
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(a), k) for k in range(a + 1)
    ):
        outside = [x for x in range(a) if x not in E]
        for obj in objects:
            assert is_support(E, obj, a) == all(
                apply_perm(transposition(a, x, y), obj) == obj
                for x, y in itertools.combinations(outside, 2)
            ), (E, obj)


def test_even_odd_orbits_example():
    op = even_odd_orbits((0, 1, 2), (0, 1))
    assert op.xi == {(0, 1), (1, 2), (2, 0)}
    assert op.theta == {(1, 0), (0, 2), (2, 1)}


def test_orbit_invariants():
    for n in range(4):
        B = tuple(range(n + 2))
        op = even_odd_orbits(B, tuple(range(n + 1)))
        half = factorial(n + 2) // 2
        assert not (op.xi & op.theta)
        assert len(op.xi) == len(op.theta) == half
        assert op.xi | op.theta == set(itertools.permutations(B, n + 1))


def test_odd_permutation_swaps_orbits():
    op = even_odd_orbits((0, 1, 2, 3), (0, 1, 2))
    t = transposition(4, 1, 2)
    # relabel each sequence pointwise, keeping its order
    assert frozenset(tuple(t[x] for x in s) for s in op.xi) == op.theta
    assert frozenset(tuple(t[x] for x in s) for s in op.theta) == op.xi


def oracle_orbits(B, s):
    """Both orbits from the definition: the images of s under the even,
    and under the odd, permutations of B, each parity read by `parity`
    off the positions of the images."""
    orbits = {"even": set(), "odd": set()}
    for images in itertools.permutations(B):
        pi = dict(zip(B, images))
        orbits[parity(tuple(B.index(y) for y in images))].add(
            tuple(pi[x] for x in s))
    return orbits["even"], orbits["odd"]


@pytest.mark.parametrize("base", [(0, 1, 2, 3, 4), (1, 3, 4, 7, 9)])
def test_orbits_match_the_parity_definition(base):
    # every seed over every base of 2 to 5 points
    for size in range(2, 6):
        B = base[:size]
        for s in itertools.permutations(B, size - 1):
            op = even_odd_orbits(B, s)
            assert (op.xi, op.theta) == oracle_orbits(B, s), (B, s)


def test_even_odd_orbits_validation():
    with pytest.raises(ValueError, match="injective"):
        even_odd_orbits((0, 1, 2), (0, 0))
    with pytest.raises(ValueError, match="length"):
        even_odd_orbits((0, 1, 2), (0,))


def test_parity_table_matches_parity():
    # indexed in itertools.permutations order; each entry is also the
    # parity of the digit sum of the inversion table in that position
    for k in range(8):
        table = symmetry._odd_table(k)
        perms = list(itertools.permutations(range(k)))
        assert [parity(p) for p in perms] == \
            ["odd" if b else "even" for b in table], k
        codes = itertools.product(*map(range, range(k, 0, -1)))
        assert list(table) == [sum(c) & 1 for c in codes], k


def test_flipped_parity_entry_is_an_orbit_witness(monkeypatch):
    # the identity goes to the odd side: over the base of 4 points every
    # seed's orbits come out uneven, and no other check fails.  The true
    # tables are read first: the cached table for 5 is built from the one
    # for 4, and must not be built from the flipped one
    table = {k: symmetry._odd_table(k) for k in range(6)}

    def flipped(k):
        t = table[k]
        return bytes([t[0] ^ 1]) + t[1:] if k == 4 else t

    monkeypatch.setattr(symmetry, "_odd_table", flipped)
    report = suites.suite_symmetry()
    assert report.outcome == VIOLATION
    assert report.witnesses == [
        {"kind": "orbit", "B": [0, 1, 2, 3], "s": list(s)}
        for s in itertools.permutations(range(4), 3)
    ]


# `verify symmetry`'s counters, derived from closed forms in
# tests/test_cli.py::test_verify_symmetry
SYMMETRY_COUNTERS = {"orbit_pairs": 152, "transpositions": 2466,
                     "fiber_partitions": 416}


def test_transposition_that_moves_p_is_a_witness(monkeypatch):
    real = symmetry.find_fixing_transposition

    def planted(p, B, a):
        # swaps 0, p's only component, with 1, outside it
        if (p, B, a) == (((0,),), (0, 1, 2), 3):
            return transposition(3, 0, 1)
        return real(p, B, a)

    monkeypatch.setattr(symmetry, "find_fixing_transposition", planted)
    report = suites.suite_symmetry()
    assert (report.outcome, report.exit_code) == (VIOLATION, 1)
    assert report.witnesses == [
        {"kind": "transposition", "p": [[[0]]], "B": [0, 1, 2]}]
    assert report.counters == SYMMETRY_COUNTERS


def test_each_transposition_is_applied_once_per_tuple(monkeypatch):
    # over a = 4, p = ((0,),) gets the transposition (1 2) from two bases,
    # (0, 1, 2) and (1, 2, 3); a fault planted for that transposition and
    # that tuple alone gives one witness per base, and the sweep applies
    # each distinct transposition once per tuple: 882 calls for 2,466 pairs
    real = symmetry.apply_perm
    calls = []

    def planted(pi, obj):
        calls.append((pi, obj))
        if (pi, obj) == (transposition(4, 1, 2), ((0,),)):
            return ((3,),)
        return real(pi, obj)

    assert [find_fixing_transposition(((0,),), B, 4)
            for B in itertools.combinations(range(4), 3)] == [
        transposition(4, 1, 2), transposition(4, 1, 3),
        transposition(4, 2, 3), transposition(4, 1, 2)]
    monkeypatch.setattr(symmetry, "apply_perm", planted)
    report = suites.suite_symmetry()
    assert (report.outcome, report.exit_code) == (VIOLATION, 1)
    assert report.witnesses == [
        {"kind": "transposition", "p": [[[0]]], "B": [0, 1, 2]},
        {"kind": "transposition", "p": [[[0]]], "B": [1, 2, 3]}]
    assert report.counters == SYMMETRY_COUNTERS
    assert len(calls) == len(set(calls)) == 882


def test_fiber_over_its_bound_is_a_witness(monkeypatch):
    # with E empty each partition is its own fiber, of size 1 > 0
    real = symmetry.fiber_bound
    monkeypatch.setattr(symmetry, "fiber_bound",
                        lambda n, E: 0 if not E else real(n, E))
    report = suites.suite_symmetry()
    assert (report.outcome, report.exit_code) == (VIOLATION, 1)
    assert report.witnesses == \
        [{"kind": "fiber", "E": [], "size": 1}] * len(list(enum_B_n(5, 1)))
    assert report.counters == SYMMETRY_COUNTERS


def test_find_fixing_transposition_examples():
    assert find_fixing_transposition(((0,), (1,)), (0, 1, 2, 3), 6) == \
        transposition(6, 2, 3)
    assert find_fixing_transposition(((0, 1), (2, 3)), (0, 1, 2, 3), 6) == \
        transposition(6, 0, 1)
    t = find_fixing_transposition(((5,),), (0, 1, 2), 6)
    assert t is not None
    # components out of order: the class with the least element comes first
    assert find_fixing_transposition(((2, 3), (0, 1)), (0, 1, 2, 3), 4) == \
        transposition(4, 0, 1)
    # |B| = arity + 1 and each class holds one point of B: no pair
    assert find_fixing_transposition(((0,), (1,)), (0, 1, 2), 3) is None


def test_find_fixing_transposition_total():
    from finpart.core import enum_disjoint_tuples

    for n in (1, 2):
        for a in range(n + 2, 8):
            for p in enum_disjoint_tuples(a, (1,) * n):
                for B in itertools.combinations(range(a), n + 2):
                    t = find_fixing_transposition(p, B, a)
                    assert t is not None
                    assert apply_perm(t, p) == p


def test_restrict_outside():
    P = canonicalize_partition(6, [(0, 1, 4), (2, 3), (5,)])
    assert restrict_outside(P, (4, 5)) == {(0, 1), (2, 3)}
    assert restrict_outside(P, ()) == {(0, 1, 4), (2, 3)}
    assert restrict_outside(P, (0, 1, 4)) == {(2, 3)}


def test_preceq():
    P = canonicalize_partition(4, [(0, 2), (1, 3)])
    Q = canonicalize_partition(4, [(0, 1, 2, 3)])
    assert preceq(Q, P, ())
    assert preceq(P, P, ())
    P2 = canonicalize_partition(4, [(0, 1), (2,), (3,)])
    Q2 = canonicalize_partition(4, [(0, 2), (1,), (3,)])
    assert not preceq(Q2, P2, ())


def test_projection_preceq_matches_elementwise_definition():
    """QE precedes PE iff each element of a QE block lies in a PE block
    inside that QE block; preceq decides it on the two projections."""
    parts = list(enum_B_n(5, 1)) + list(enum_B_n(5, 2))
    for E in [(), (0,), (1, 3)]:
        for Q in parts:
            QE = restrict_outside(Q, E)
            for P in parts:
                PE = restrict_outside(P, E)
                want = all(
                    any(x in pb and set(pb) <= set(qb) for pb in PE)
                    for qb in QE for x in qb
                )
                assert projection_preceq(QE, PE) == want, (QE, PE)
                assert preceq(Q, P, E) == want, (Q, P, E)


def test_fiber_example():
    P = canonicalize_partition(5, [(1, 2), (0,), (3,), (4,)])
    fib = fiber_of(P, (0,), 1, 5)
    assert {ns_blocks(Q) for Q in fib} == {((1, 2),), ((0, 1, 2),)}
    assert len(fib) <= fiber_bound(1, (0,))
    # empty E: the fiber is the partition itself
    assert fiber_of(P, (), 1, 5) == {P}


def test_fiber_bound_sweep():
    allB = list(enum_B_n(5, 1))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        buckets = {}
        for Q in allB:
            buckets.setdefault(restrict_outside(Q, E), []).append(Q)
        assert max(len(v) for v in buckets.values()) <= fiber_bound(1, E), E


def test_projection_law():
    allB = list(enum_B_n(5, 1))
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        for Q in allB:
            for P in allB:
                if preceq(Q, P, E):
                    QE = restrict_outside(Q, E)
                    PE = restrict_outside(P, E)
                    if len(QE) == len(PE):
                        assert QE == PE


def test_projection_law_witness_per_partition_pair(monkeypatch):
    # with every pair related, the suite reports one witness per ordered
    # pair of partitions whose projections differ with as many blocks
    monkeypatch.setattr(symmetry, "projection_preceq", lambda QE, PE: True)
    report = suites.suite_symmetry()
    allB = list(enum_B_n(5, 1))
    pairs = 0
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(3)
    ):
        restricted = [restrict_outside(Q, E) for Q in allB]
        pairs += sum(len(QE) == len(PE) and QE != PE
                     for QE in restricted for PE in restricted)
    assert pairs > 0
    assert [w["kind"] for w in report.witnesses] == ["projection-law"] * pairs


def test_chain_length_bound():
    for a, n in [(5, 1), (5, 2)]:
        allB = list(enum_B_n(a, n))
        for E in [(), (0,)]:
            L = longest_strict_chain(allB, E)
            assert 1 <= L <= chain_bound(n, E), (a, n, E)
    # 4083 classes give over 16 million ordered pairs: refused unbuilt
    with pytest.raises(BudgetExceeded, match="chain digraph"):
        longest_strict_chain(enum_B_n(12, 1), ())


def test_longest_strict_chain_matches_brute_force():
    # with E = (0, 1), B_2(6) has strictly related partitions, so the
    # strictness test runs; the chain is built from preceq on partitions
    E = (0, 1)
    allB = list(enum_B_n(6, 2))
    below = {P: [Q for Q in allB if preceq(Q, P, E) and not preceq(P, Q, E)]
             for P in allB}

    @cache
    def depth(P):
        return 1 + max(map(depth, below[P]), default=0)

    assert max(map(depth, allB)) == longest_strict_chain(allB, E) == 2


def test_equivariance_of_canonical_maps():
    """Relabeling commutes with the subset-sequence bijection."""
    rng = random.Random(3)
    a = 6
    for _ in range(20):
        pi = random_perm(rng, a)
        s = tuple(
            tuple(sorted(rng.sample(range(a), rng.randrange(3))))
            for _ in range(2)
        )
        left = fin_to_disjoint(tuple(apply_perm(pi, x) for x in s))
        right = tuple(apply_perm(pi, c) for c in fin_to_disjoint(s))
        assert left == right
        assert disjoint_to_fin(left, 2) == \
            tuple(apply_perm(pi, x) for x in s)
