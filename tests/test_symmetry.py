import itertools
import random
from math import factorial

import pytest

from finpart.core import canonicalize_partition, enum_B_n, ns_blocks
from finpart.maps import fin_to_disjoint, disjoint_to_fin
from finpart.symmetry import (
    apply_perm,
    apply_perm_seq,
    chain_bound,
    compose,
    even_odd_orbits,
    fiber_bound,
    fiber_of,
    find_fixing_transposition,
    from_cycles,
    identity_perm,
    inverse,
    is_support,
    longest_strict_chain,
    parity,
    preceq,
    restrict_outside,
    transposition,
)


def random_perm(rng, a):
    table = list(range(a))
    rng.shuffle(table)
    return tuple(table)


def test_apply_perm_examples():
    t = transposition(4, 0, 1)
    P = canonicalize_partition(4, [(0, 2), (1,), (3,)])
    assert apply_perm(t, P) == canonicalize_partition(4, [(1, 2), (0,), (3,)])
    assert apply_perm(identity_perm(4), P) == P
    c = from_cycles(4, [(0, 1, 2)])
    assert apply_perm(c, ((0,), (1, 3))) == ((1,), (2, 3))


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
    P = canonicalize_partition(4, [(0, 1), (2,), (3,)])
    assert not is_support((0,), P, 4)
    assert is_support((0, 1), P, 4)
    # the union of non-singleton blocks always supports a partition
    for Q in enum_B_n(5, 1):
        E = tuple(x for b in ns_blocks(Q) for x in b)
        assert is_support(E, Q, 5)
    # the full ground set as an object is supported by the empty set
    assert is_support((), tuple(range(4)), 4)


def test_support_monotone():
    P = canonicalize_partition(5, [(0, 1), (2,), (3,), (4,)])
    for E in itertools.chain.from_iterable(
        itertools.combinations(range(5), k) for k in range(4)
    ):
        if is_support(E, P, 5):
            for extra in range(5):
                assert is_support(tuple(set(E) | {extra}), P, 5)


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
    assert frozenset(apply_perm_seq(t, s) for s in op.xi) == op.theta
    assert frozenset(apply_perm_seq(t, s) for s in op.theta) == op.xi


def test_even_odd_orbits_validation():
    with pytest.raises(ValueError, match="injective"):
        even_odd_orbits((0, 1, 2), (0, 0))
    with pytest.raises(ValueError, match="length"):
        even_odd_orbits((0, 1, 2), (0,))


def test_find_fixing_transposition_examples():
    assert find_fixing_transposition(((0,), (1,)), (0, 1, 2, 3), 6) == \
        transposition(6, 2, 3)
    assert find_fixing_transposition(((0, 1), (2, 3)), (0, 1, 2, 3), 6) == \
        transposition(6, 0, 1)
    t = find_fixing_transposition(((5,),), (0, 1, 2), 6)
    assert t is not None


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


def test_chain_length_bound():
    for a, n in [(5, 1), (5, 2)]:
        allB = list(enum_B_n(a, n))
        for E in [(), (0,)]:
            L = longest_strict_chain(allB, E)
            assert 1 <= L <= chain_bound(n, E), (a, n, E)


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
