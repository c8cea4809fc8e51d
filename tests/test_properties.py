"""Property tests: both operator routes, the coder's pullback and the
Ramsey search against naive oracles written from the definitions, the
package's maps against relabellings of the ground set, the subset
action against its elementwise definition and the nested action against
its recursive one, the fixing transposition
against its class order, and the enumeration orders of disjoint tuples
and O_n against their definitions."""

import itertools
import random
from math import comb, prod
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from finpart import coding, core, maps, operators, ramsey, suites  # noqa: E402
from finpart.core import (  # noqa: E402
    as_subset,
    enum_disjoint_tuples,
    partition_from_ns,
)
from finpart.operators import (  # noqa: E402
    CycleReport,
    boundary,
    boundary_power,
    down,
    exists_uncovered_extension,
    interior,
    interior_sparse,
    nilpotency_index,
    up,
)
from finpart.ramsey import (  # noqa: E402
    ProductColoring,
    RamseyQuery,
    check_witness,
    grid_points,
    has_property,
    subgrid,
)
from finpart.symmetry import (  # noqa: E402
    apply_perm,
    find_fixing_transposition,
    is_support,
    transposition,
)
from oracles import (  # noqa: E402
    extends,
    oracle_down,
    oracle_fixing_transposition,
    oracle_interior,
    oracle_up,
)


def oracle_uncovered(a, p, l, X):
    """Some l-extension of p extends no member of X."""
    return any(not any(extends(x, q) for x in X)
               for q in enum_disjoint_tuples(a, l) if extends(p, q))


def oracle_boundary_chain(a, m, l, X, steps):
    """X, boundary(X), boundary^2(X), ...: at least steps + 1 families, and
    on until one is empty or repeats an earlier one."""
    chain = [X]
    while len(chain) <= steps or chain[-1] and chain[-1] not in chain[:-1]:
        chain.append(oracle_interior(a, m, l, chain[-1]) - chain[-1])
    return chain


def oracle_nilpotency(chain):
    """The first k whose family is empty, or the cycle the chain enters."""
    for k, Y in enumerate(chain):
        if not Y:
            return k
        if Y in chain[:k]:
            start = chain.index(Y)
            return CycleReport(start=start, period=k - start,
                               family=tuple(sorted(Y)))
    raise AssertionError("chain stops before it dies or repeats")


def support(t):
    return {x for c in t for x in c}


@st.composite
def instances(draw, a_min=1):
    """(a, m, l) with m <= l componentwise and sum(m) <= a; sum(l) may
    exceed a, where interior is vacuous."""
    a = draw(st.integers(a_min, 6))
    n = draw(st.integers(1, 2))
    m = tuple(draw(st.integers(0, 2)) for _ in range(n))
    hypothesis.assume(sum(m) <= a)
    l = tuple(mi + draw(st.integers(0, 2)) for mi in m)
    return a, m, l


def subfamily(draw, tuples):
    mask = draw(st.integers(0, (1 << len(tuples)) - 1))
    return frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)


@st.composite
def families(draw):
    a, m, l = draw(instances())
    return a, m, l, subfamily(draw, list(enum_disjoint_tuples(a, m)))


def family_leaving_free(draw, a, m, free):
    """A family of m-tuples whose support is exactly the ground elements
    outside `free`; needs at least sum(m) of them, or none."""
    avoid = [t for t in enum_disjoint_tuples(a, m) if not support(t) & free]
    X = set(subfamily(draw, avoid))
    for e in range(a):
        if e in free or any(e in support(t) for t in X):
            continue
        holders = [t for t in avoid if e in support(t)]
        X.add(holders[draw(st.integers(0, len(holders) - 1))])
    return frozenset(X)


@st.composite
def near_covering_families(draw):
    """Families whose members cover all but fewer than sum(l - m) ground
    elements, so no candidate can route its extension through fresh ground
    and exists_uncovered_extension has to search."""
    a, m, l = draw(instances(a_min=2))
    need = sum(l) - sum(m)
    hypothesis.assume(sum(m) >= 1 and need >= 1)
    free = draw(st.sets(st.integers(0, a - 1),
                        max_size=min(need - 1, a - sum(m))))
    X = family_leaving_free(draw, a, m, free)
    covered = set().union(*map(support, X))
    assert a - len(covered) < need
    return a, m, l, X


@st.composite
def threshold_families(draw):
    """Families whose support leaves exactly sum(l) - d ground elements
    free, d = 0 ... sum(m) + 1: interior_sparse's floor is d, and it
    searches the classes with fewer than d support elements, from none
    (the result is X) to every class."""
    a, m, l = draw(instances())
    free_count = sum(l) - draw(st.integers(0, sum(m) + 1))
    taken = a - free_count
    hypothesis.assume(0 <= free_count <= a)
    hypothesis.assume(taken == 0 or 1 <= sum(m) <= taken)
    free = set(draw(st.permutations(range(a)))[:free_count])
    X = family_leaving_free(draw, a, m, free)
    assert a - len(set().union(*map(support, X))) == free_count
    return a, m, l, X


def check_routes_agree(a, m, l, X):
    want = oracle_interior(a, m, l, X)
    assert interior(a, m, l, X) == want
    assert interior_sparse(a, m, l, X) == want


@given(families())
def test_interior_routes_match_oracle(case):
    check_routes_agree(*case)


@given(families())
def test_mask_format_round_trips(case):
    # at_bits agrees with the per-bit reader on both sides of a dense
    # space, and reads back the family that _index_mask wrote
    a, m, l, X = case
    sp = operators.profile_space(a, m, l)
    x = operators._index_mask(a, m, X)
    for profile, tuples, mask in ((m, sp.m_tuples, x),
                                  (l, sp.l_tuples, operators.up_mask(sp, x))):
        got = list(operators.at_bits(tuples, mask))
        assert got == [t for i, t in enumerate(tuples) if mask >> i & 1]
        assert operators._index_mask(a, profile, got) == mask
    assert operators.mask_to_family(sp, x) == X


@given(near_covering_families())
def test_interior_routes_match_oracle_near_covering(case):
    a, m, l, X = case
    for p in enum_disjoint_tuples(a, m):
        assert exists_uncovered_extension(a, p, l, X) == oracle_uncovered(a, p, l, X)
    check_routes_agree(a, m, l, X)


@given(families())
@example((2, (0, 0), (1, 1), frozenset({((), ())})))  # a member with no elements
@example((4, (1,), (2,), frozenset({((0,),)})))  # D <= 0 at every p
def test_uncovered_extension_search_matches_oracle(case):
    # with a node budget of 0 a call answers iff it expands no node: p has
    # no extension, a member lies inside p, or D <= 0 (extensions through
    # fresh ground); otherwise it raises
    a, m, l, X = case
    S = set().union(*map(support, X))
    for p in enum_disjoint_tuples(a, m):
        expect = oracle_uncovered(a, p, l, X)
        assert exists_uncovered_extension(a, p, l, X) == expect
        need = [li - len(c) for li, c in zip(l, p)]
        D = sum(need) - (a - len(S | support(p)))
        searched = min(need, default=0) >= 0 and D > 0 and not any(
            extends(x, p) for x in X)
        with mock.patch.object(operators, "_NODE_BUDGET", 0):
            if searched:
                with pytest.raises(operators.BudgetExceeded):
                    exists_uncovered_extension(a, p, l, X)
            else:
                assert exists_uncovered_extension(a, p, l, X) == expect


@given(threshold_families())
def test_interior_routes_match_oracle_at_threshold(case):
    check_routes_agree(*case)


@given(st.one_of(families(), near_covering_families()))
def test_pullback_inverts_up_on_closed_families(case):
    a, m, l, X = case
    hypothesis.assume(sum(l) <= a)
    Y = interior(a, m, l, X)
    Z = up(a, m, l, Y)
    assert coding.pullback_Y(a, m, Z, l) == Y
    with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
        assert coding.pullback_Y(a, m, Z, l) == Y


def check_operators(a, m, l, X, Z):
    want = oracle_interior(a, m, l, X)
    assert up(a, m, l, X) == oracle_up(a, m, l, X)
    assert interior(a, m, l, X) == want
    assert boundary(a, m, l, X) == want - X
    assert down(a, m, l, Z) == oracle_down(a, m, l, Z)
    assert down(a, m, l, oracle_up(a, m, l, X)) == want
    chain = oracle_boundary_chain(a, m, l, X, sum(m) + 2)
    for k in range(sum(m) + 3):
        assert boundary_power(a, m, l, X, k) == chain[k]
    assert nilpotency_index(a, m, l, X) == oracle_nilpotency(chain)


@given(st.one_of(families(), near_covering_families(), threshold_families()),
       st.data())
def test_operators_match_oracle_on_both_routes(case, data):
    """up, interior, boundary, down, boundary_power and nilpotency_index
    on the route fits_dense picks (dense at these sizes) and forced onto
    the sparse route, against the definitions; down also on l-families
    that are not up-closed."""
    a, m, l, X = case
    Z = subfamily(data.draw, list(enum_disjoint_tuples(a, l)))
    check_operators(a, m, l, X, Z)
    with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
        check_operators(a, m, l, X, Z)


@settings(max_examples=6)
@given(st.sampled_from([(3, (2,), (4,)), (5, (1, 1), (2, 2)), (6, (2,), (4,)),
                        (7, (2,), (4,))]),
       st.integers(4097, 5000), st.integers(0, 2**32), st.booleans())
def test_sliced_nilpotency_sends_the_families_alive_at_every_level(
        instance, samples, seed, narrow):
    """Over a seeded run of more than 4096 masks, in the default tiles or
    in tiles of 4096, the families that the sliced sweep hands to
    nilpotency_index are those whose levels boundary^k(X), k = 0 ...
    sum(m) + 1, are all non-empty, computed family by family.  The
    recording stand-in answers 0, so the sweep never stops at a failure."""
    a, m, l = instance
    seen = []
    width = (lambda sp: 4096) if narrow else operators.tile_width
    with mock.patch.object(operators, "nilpotency_index",
                           lambda a, m, l, X: seen.append(X) or 0), \
            mock.patch.object(operators, "tile_width", width):
        suites.suite_nilpotency(a, m, l, "random", samples, seed)
    tuples = operators.indexed_tuples(a, m)[0]
    rng = random.Random(seed)
    families = [frozenset(operators.at_bits(tuples, rng.getrandbits(len(tuples))))
                for _ in range(samples)]
    assert seen == [X for X in families if all(
        boundary_power(a, m, l, X, k) for k in range(sum(m) + 2))]


def oracle_counterexample(sizes, query):
    """The first c-coloring, in itertools.product order (point 0 most
    significant), with no monochromatic r-witness; None if there is none."""
    j, c, r = query.j, query.c, query.r
    points = list(itertools.product(
        *(itertools.combinations(range(N), jj) for N, jj in zip(sizes, j))
    ))
    witnesses = list(itertools.product(
        *(itertools.combinations(range(N), r) for N in sizes)
    ))
    for colors in itertools.product(range(c), repeat=len(points)):
        col = ProductColoring(sizes, j, dict(zip(points, colors)))
        if not any(check_witness(col, Ts, d, r)
                   for Ts in witnesses for d in range(c)):
            return col.colors
    return None


@st.composite
def ramsey_instances(draw):
    """Small grids (1-2 coordinates, j <= 2, c <= 3) with c^P <= 4096.
    Witnesses exist and are not empty (j < r <= N), so the search runs;
    test_ramsey.py covers the regimes answered without one."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    j = tuple(draw(st.integers(0, min(2, r - 1))) for _ in range(n))
    sizes = tuple(draw(st.integers(r, 5)) for _ in range(n))
    c = draw(st.integers(1, 3))
    hypothesis.assume(c ** prod(comb(N, jj) for N, jj in zip(sizes, j)) <= 4096)
    return sizes, RamseyQuery(j, c, r)


# answered by the counting bound before any search: pigeonhole at 5 = 2 * 2 + 1,
# and one colour on 2 x 3 holds at most 4 points without a 2 x 2 rectangle
@example(((5,), RamseyQuery((1,), 2, 3)))
@example(((2, 3), RamseyQuery((1, 1), 1, 2)))
@given(ramsey_instances())
def test_ramsey_search_matches_oracle(case):
    sizes, query = case
    want = oracle_counterexample(sizes, query)
    pruned = has_property(sizes, query, prune=True)
    full = has_property(sizes, query, prune=False)
    assert pruned.holds == full.holds == (want is None)
    # both searches return the lex-least counterexample; it replays
    # because the oracle checked it with check_witness
    if want is not None:
        assert pruned.counterexample == full.counterexample == want
    assert pruned.searched <= full.searched


@st.composite
def ramsey_grids(draw):
    """Grids of 1-3 coordinates with j_i in {0, 1, 2} and j_i <= r <= N_i."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(0, 4))
    j = tuple(draw(st.integers(0, min(2, r))) for _ in range(n))
    sizes = tuple(draw(st.integers(r, min(r + 2, 6))) for _ in range(n))
    return sizes, j, r


def oracle_index(sizes, j):
    return {pt: i for i, pt in enumerate(grid_points(sizes, j))}


def oracle_witness_masks(sizes, j, r):
    """Each witness's mask ORed point by point from `subgrid`, filed under
    its last point, witnesses in itertools.product order."""
    index = oracle_index(sizes, j)
    ends = [[] for _ in index]
    for Ts in itertools.product(
        *(itertools.combinations(range(N), r) for N in sizes)
    ):
        mask = 0
        for pt in subgrid(Ts, j):
            mask |= 1 << index[pt]
        ends[mask.bit_length() - 1].append(mask)
    return ends


def oracle_transposition_pairs(sizes, j):
    """Per adjacent transposition (coord, x), in order of first use: the
    pairs (i, image) with i < image, the image found by moving x to x + 1
    in the point's coord-th component and looking the point up."""
    index = oracle_index(sizes, j)
    gens = {}
    for pt, i in index.items():
        for coord, comp in enumerate(pt):
            for x in comp:
                if x + 1 < sizes[coord] and x + 1 not in comp:
                    moved = tuple(x + 1 if y == x else y for y in comp)
                    image = index[pt[:coord] + (moved,) + pt[coord + 1:]]
                    gens.setdefault((coord, x), []).append((i, image))
    return list(gens.values())


@example(((), (), 2))  # no coordinates: one point, one witness
@given(ramsey_grids())
def test_ramsey_masks_match_oracle(case):
    sizes, j, r = case
    assert ramsey._witness_masks(sizes, j, r) == oracle_witness_masks(sizes, j, r)
    assert ramsey._transposition_pairs(sizes, j) == oracle_transposition_pairs(sizes, j)


# ---------------------------------------------------------------------------
# equivariance: pi . f(X) == f(pi . X) for every permutation pi of the ground

@st.composite
def relabelled_families(draw):
    """(a, m, l, X, Z, pi): a family X of m-tuples, a family Z of
    l-tuples and a permutation of range(a)."""
    a, m, l, X = draw(st.one_of(families(), near_covering_families(),
                                threshold_families()))
    Z = subfamily(draw, list(enum_disjoint_tuples(a, l)))
    return a, m, l, X, Z, tuple(draw(st.permutations(range(a))))


def check_operators_commute(a, m, l, X, Z, pi):
    pX, pZ = apply_perm(pi, X), apply_perm(pi, Z)
    for op in (up, interior, boundary):
        assert op(a, m, l, pX) == apply_perm(pi, op(a, m, l, X)), op
    assert down(a, m, l, pZ) == apply_perm(pi, down(a, m, l, Z))


# members that cover the ground set, and members with an empty component
@example((3, (1, 2), (1, 2), frozenset({((0,), (1, 2)), ((2,), (0, 1))}),
          frozenset({((1,), (0, 2))}), (1, 0, 2)))
@example((3, (0, 1), (1, 1), frozenset({((), (0,)), ((), (2,))}),
          frozenset({((1,), (0,))}), (2, 0, 1)))
@given(relabelled_families())
def test_operators_commute_with_relabelling(case):
    """up, interior, boundary and down on both routes; and the support of
    X's members supports interior(X)."""
    a, m, l, X, Z, pi = case
    check_operators_commute(a, m, l, X, Z, pi)
    with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
        check_operators_commute(a, m, l, X, Z, pi)
    E = set().union(*map(support, X))
    assert is_support(E, interior(a, m, l, X), a)


SINGLE_SLOT_A12 = coding.CodingConfig.from_json(
    (Path(__file__).resolve().parent.parent / "configs"
     / "single_slot_a12.json").read_text()
)


def relabel_slots(pi, X):
    return {j: apply_perm(pi, fam) for j, fam in X.items()}


def singleton_family(members):
    return {0: frozenset(((x,),) for x in members)} if members else {}


@settings(max_examples=30)
@given(st.sets(st.integers(0, 11)), st.sets(st.integers(0, 11)),
       st.permutations(range(12)))
def test_coder_commutes_with_relabelling(members, others, pi):
    """encode per key and materialize; decode on the union of two
    families' partition sets, which need not be any family's code."""
    cfg = SINGLE_SLOT_A12
    pi = tuple(pi)
    X = singleton_family(members)
    book = coding.encode(X, cfg)
    pbook = coding.encode(relabel_slots(pi, X), cfg)
    assert pbook.Y == {key: apply_perm(pi, fam) for key, fam in book.Y.items()}
    H = coding.materialize(book)[0]
    assert coding.materialize(pbook)[0] == apply_perm(pi, H)
    H |= coding.materialize(coding.encode(singleton_family(others), cfg))[0]
    pH = apply_perm(pi, H)
    assert coding.decode(pH, cfg, check=False) == \
        relabel_slots(pi, coding.decode(H, cfg, check=False))


@settings(max_examples=30)
@given(st.sets(st.integers(0, 11)))
def test_materialize_is_ns_injection_of_partitions(members):
    """Each element of H is the non-singleton block set of the partition
    an l-extension induces."""
    cfg = SINGLE_SLOT_A12
    book = coding.encode(singleton_family(members), cfg)
    assert coding.materialize(book)[0] == frozenset(
        maps.ns_injection(partition_from_ns(cfg.a, q))
        for (j, m, k), fam in book.Y.items()
        for q in up(cfg.a, m, cfg.f(j, m, k), fam)
    )


# n = 2: each key's two blocks have distinct sizes, (2, 3) at a = 6
PAIR_EMPTY_A6 = coding.compact_config(6, 2, [(0, (0, 0))])


def oracle_slice(H, l):
    """l-profile tuples in H: elements whose non-singleton block sizes are
    l as a multiset, component i being the block of size l_i."""
    out = set()
    for P in H:
        ns = [b for b in P if len(b) >= 2]
        if sorted(map(len, ns)) == sorted(l):
            out.add(tuple(next(b for b in ns if len(b) == li) for li in l))
    return frozenset(out)


def oracle_decode(H, cfg, check=False):
    """Per key, in key order, the slice oracle pulled back by oracle_down;
    then the book's alternating difference.  A slice holding anything but
    a disjoint l-profile tuple over range(a) is no code: CodingError.
    With check, a pullback that is not interior-closed at the slot's top
    profile g is not faithful: DecodeError."""
    Y = {}
    for j, m, k in cfg.keys():
        l = cfg.f(j, m, k)
        Z = oracle_slice(H, l)
        if not Z <= set(enum_disjoint_tuples(cfg.a, l)):
            raise coding.CodingError(f"slice {l} holds a malformed tuple")
        Yk = Y[(j, m, k)] = oracle_down(cfg.a, m, l, Z)
        if check and oracle_interior(cfg.a, m, cfg.g(j, m), Yk) != Yk:
            raise coding.DecodeError(f"slice {l} is not interior-closed")
    return coding.decode(coding.CodeBook(cfg, Y))


@st.composite
def block_sets(draw, a):
    """Disjoint blocks of sizes 2..6 cut from a shuffled range(a): none,
    one, or several, with sizes a key may or may not have.  Now and then a
    block is malformed: in descending order, or with its largest element
    moved to a or beyond."""
    order = draw(st.permutations(range(a)))
    out, start = [], 0
    for size in draw(st.lists(st.integers(2, 6), max_size=3)):
        if start + size > a:
            break
        block = sorted(order[start:start + size])
        start += size
        flaw = draw(st.sampled_from([None, None, None, "unsorted", "out of range"]))
        if flaw == "unsorted":
            block.reverse()
        elif flaw == "out of range":
            block[-1] += a
        out.append(tuple(block))
    return frozenset(out)


def code_of(cfg, X):
    return coding.materialize(coding.encode(X, cfg))[0]


@st.composite
def coded_unions(draw):
    """(cfg, H): the union of two families' partition sets plus arbitrary
    block sets, so H need not be any family's code."""
    cfg = draw(st.sampled_from([SINGLE_SLOT_A12, PAIR_EMPTY_A6]))
    (j, m), = cfg.slots
    tuples = sorted(enum_disjoint_tuples(cfg.a, m))
    H = set()
    for _ in range(2):
        fam = draw(st.sets(st.sampled_from(tuples)))
        H |= code_of(cfg, {j: fam} if fam else {})
    H |= draw(st.sets(block_sets(cfg.a), max_size=6))
    return cfg, frozenset(H)


# junk: no non-singleton block, two blocks, and sizes of no key
@example((SINGLE_SLOT_A12, code_of(SINGLE_SLOT_A12, {0: {((0,),), ((5,),)}}) | {
    frozenset(), frozenset({(0, 1, 2), (3, 4, 5, 6, 7)}),
    frozenset({(1, 2, 3, 4)}), frozenset({(4, 9)})}))
@example((PAIR_EMPTY_A6, code_of(PAIR_EMPTY_A6, {0: {((), ())}}) | {
    frozenset({(0, 1, 2), (3, 4, 5)}), frozenset({(0, 1)}),
    frozenset({(0, 1), (2, 3), (4, 5)})}))
# malformed blocks: with the sizes of a key, and of no key
@example((SINGLE_SLOT_A12, code_of(SINGLE_SLOT_A12, {0: {((0,),)}}) | {
    frozenset({(2, 1, 0)})}))
@example((SINGLE_SLOT_A12, code_of(SINGLE_SLOT_A12, {0: {((0,),)}}) | {
    frozenset({(9, 10, 12)}), frozenset({(1, 0)}), frozenset({(3, 12)})}))
@example((PAIR_EMPTY_A6, frozenset({frozenset({(0, 7), (1, 2, 3)})})))
@settings(max_examples=40)
@given(coded_unions())
def test_decode_matches_full_partitions_and_slice_oracle(case):
    """Every key's slice equals the slice oracle.  decode(H) on block sets
    raises CodingError exactly when oracle_decode does, and otherwise
    equals it and decode on the same partitions written out in full."""
    cfg, H = case
    for j, m, k in cfg.keys():
        assert coding.extract_slice(H, cfg, j, m, k) == \
            oracle_slice(H, cfg.f(j, m, k))
    try:
        want = oracle_decode(H, cfg)
    except coding.CodingError:
        with pytest.raises(coding.CodingError):
            coding.decode(H, cfg, check=False)
        return
    got = coding.decode(H, cfg, check=False)
    assert got == want
    full = frozenset(partition_from_ns(cfg.a, P) for P in H)
    assert coding.decode(full, cfg, check=False) == got


# not interior-closed at g = (5,): the slice of k = 0 pulls back to the
# singletons 0..7, and every 5-set through 8..11 meets them
@example((SINGLE_SLOT_A12, frozenset(
    frozenset({q}) for q in itertools.combinations(range(12), 3) if q[0] < 8)))
@settings(max_examples=40)
@given(coded_unions())
def test_checked_decode_matches_interior_oracle(case):
    """decode(H) with its check raises DecodeError exactly where the
    oracle's pullback of the first failing key is not interior-closed at
    g, CodingError where that key's slice is malformed, and otherwise
    returns the oracle's family.  H listed twice decodes the same: a
    repeated element must not change any slice."""
    cfg, H = case
    twice = list(H) * 2
    try:
        want = oracle_decode(H, cfg, check=True)
    except (coding.CodingError, coding.DecodeError) as e:
        for source in (H, twice):
            with pytest.raises(type(e)):
                coding.decode(source, cfg)
        return
    assert coding.decode(H, cfg) == want
    assert coding.decode(twice, cfg) == want


@st.composite
def subset_sequences(draw):
    """A sequence of 1-4 subsets of range(a), some empty, some repeated."""
    a = draw(st.integers(1, 7))
    n = draw(st.integers(1, 4))
    return tuple(tuple(sorted(draw(st.sets(st.integers(0, a - 1)))))
                 for _ in range(n))


@example(((0, 1), (0, 1)))
@example(((), (2,), ()))
@given(subset_sequences())
def test_fin_to_disjoint_matches_definition(s):
    """Component i holds exactly the elements lying in the sets indexed by
    i's one-bits and in no other set; disjoint_to_fin inverts it."""
    n = len(s)
    q = maps.fin_to_disjoint(s)
    assert len(q) == (1 << n) - 1
    union = sorted(set().union(*s))
    for i, comp in enumerate(q, start=1):
        assert comp == tuple(
            x for x in union
            if all((x in s[k]) == bool(i >> k & 1) for k in range(n))
        )
    assert maps.disjoint_to_fin(q, n) == s


@st.composite
def relabelled_sequences(draw):
    """(a, s, pi): a sequence of 1-3 subsets of range(a), some empty."""
    a = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    s = tuple(tuple(sorted(draw(st.sets(st.integers(0, a - 1)))))
              for _ in range(n))
    return a, s, tuple(draw(st.permutations(range(a))))


@given(relabelled_sequences())
def test_fin_to_disjoint_commutes_with_relabelling(case):
    a, s, pi = case
    assert maps.fin_to_disjoint(apply_perm(pi, s)) == \
        apply_perm(pi, maps.fin_to_disjoint(s))


@st.composite
def relabelled_tuples(draw):
    """(a, t, pi): one disjoint tuple of range(a) and a permutation."""
    a, m, _ = draw(instances())
    t = draw(st.sampled_from(sorted(enum_disjoint_tuples(a, m))))
    return a, t, tuple(draw(st.permutations(range(a))))


@example((3, ((0,), (1, 2)), (1, 0, 2)))
@given(relabelled_tuples())
def test_tuple_to_partition_commutes_with_relabelling(case):
    a, t, pi = case
    P, lands = maps.tuple_to_partition(a, t)
    pP, plands = maps.tuple_to_partition(a, apply_perm(pi, t))
    assert frozenset(pP) == apply_perm(pi, frozenset(P))
    assert plands == lands


@st.composite
def relabelled_set_families(draw):
    """(a, sets, pi): n distinct subsets of range(a), drawn through a
    signature label per ground element so that bfin_map is often defined."""
    a = draw(st.integers(2, 8))
    n = draw(st.integers(1, 2))
    labels = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=a,
                           max_size=a))
    sets = [tuple(x for x in range(a) if labels[x] >> k & 1) for k in range(n)]
    hypothesis.assume(len(set(sets)) == n)
    return a, sets, tuple(draw(st.permutations(range(a))))


@given(relabelled_set_families())
def test_bfin_map_commutes_with_relabelling(case):
    a, sets, pi = case
    P = maps.bfin_map(a, sets)[0]
    pP = maps.bfin_map(a, [apply_perm(pi, x) for x in sets])[0]
    assert (pP is None) == (P is None)
    if P is not None:
        assert frozenset(pP) == apply_perm(pi, frozenset(P))


def bfin_oracle(a, sets):
    """bfin_map from the definition: each element's signature is the set of
    indices of the sets holding it; the map is defined iff each of the
    2^n - 1 non-empty signatures holds at least 2 elements, and then the
    partition's blocks are those classes plus a singleton per element of
    no set.  Blocks sorted by least element, as in a canonical partition."""
    n = len(sets)
    sig = [frozenset(k for k, s in enumerate(sets) if x in s) for x in range(a)]
    classes = [
        tuple(x for x in range(a) if sig[x] == {k for k in range(n) if i >> k & 1})
        for i in range(1, 1 << n)
    ]
    if any(len(c) < 2 for c in classes):
        return None
    return tuple(sorted(classes + [(x,) for x in range(a) if not sig[x]]))


@st.composite
def set_families(draw):
    """(a, sets): up to 3 distinct subsets of range(a), drawn through a
    signature label per ground element so that every case arises."""
    a = draw(st.integers(0, 9))
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=a,
                           max_size=a))
    sets = [tuple(x for x in range(a) if labels[x] >> k & 1) for k in range(n)]
    hypothesis.assume(len(set(sets)) == n)
    return a, sets


@example((8, [(0, 1, 4, 5), (2, 3, 4, 5)]))
@given(set_families())
def test_bfin_map_matches_definition(case):
    a, sets = case
    P, reason = maps.bfin_map(a, sets)
    assert P == bfin_oracle(a, sets)
    assert (reason is None) == (P is not None)


def oracle_subset_action(pi, obj):
    """A tuple of ints as a subset, relabelled element by element; an
    element outside the table is refused, a bool indexes it as 0 or 1."""
    for x in obj:
        if not 0 <= x < len(pi):
            raise ValueError(f"element {x} out of range [0, {len(pi)})")
    return as_subset(pi[x] for x in obj)


@st.composite
def perms_and_int_tuples(draw):
    """(pi, obj): a permutation of range(a) and a tuple of ints and bools,
    some negative, some at a or beyond, some repeated, in any order."""
    a = draw(st.integers(0, 7))
    pi = tuple(draw(st.permutations(range(a))))
    obj = draw(st.lists(st.integers(-2, a + 1) | st.booleans(), max_size=6))
    return pi, tuple(obj)


@example(((1, 2, 0), (-1, 0)))
@example(((1, 2, 0), (0, 3, -1)))
@example(((1, 0), (True, False, 1)))
@example(((0,), (True,)))
@example(((), ()))
@given(perms_and_int_tuples())
def test_subset_action_matches_the_elementwise_oracle(case):
    pi, obj = case
    try:
        want = oracle_subset_action(pi, obj)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            apply_perm(pi, obj)
        assert str(got.value) == str(e)
    else:
        assert apply_perm(pi, obj) == want


def oracle_action(pi, obj):
    """The structural action from its definition, one element at a time:
    the table is a permutation of ints, an int is an index into it, a
    tuple of ints a subset, any other tuple componentwise, a set
    elementwise and a dict as its keys and values."""
    if (not all(type(x) is int for x in pi)
            or sorted(pi) != list(range(len(pi)))):
        raise ValueError(f"not a permutation of range({len(pi)}): {pi!r}")
    return _oracle_act(pi, obj)


def _oracle_act(pi, obj):
    if isinstance(obj, int):
        return oracle_subset_action(pi, (obj,))[0]
    if isinstance(obj, tuple):
        if all(isinstance(x, int) for x in obj):
            return oracle_subset_action(pi, obj)
        return tuple(_oracle_act(pi, x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(_oracle_act(pi, x) for x in obj)
    if isinstance(obj, dict):
        return {_oracle_act(pi, k): _oracle_act(pi, v) for k, v in obj.items()}
    raise TypeError(f"no action defined on {type(obj).__name__}")


def nested_objects(a):
    """Tuples of subsets, frozensets of blocks, dicts, and their nestings,
    with bools, negative and out-of-range ints among the elements."""
    elems = (st.integers(0, max(a - 1, 0)) | st.integers(-2, a + 1)
             | st.booleans())
    subsets = st.lists(elems, max_size=4).map(tuple)
    keys = st.recursive(
        elems | subsets,
        lambda kids: (st.lists(kids, max_size=3).map(tuple)
                      | st.frozensets(kids, max_size=3)),
        max_leaves=4)
    return st.recursive(
        keys,
        lambda kids: (st.lists(kids, max_size=3).map(tuple)
                      | st.dictionaries(keys, kids, max_size=3)),
        max_leaves=6)


_NESTED_OBJECTS = [nested_objects(a) for a in range(7)]


@st.composite
def perms_and_nested_objects(draw):
    """(pi, obj): a table that is a permutation of range(a), or now and
    then one with a bool or a float in place of an entry, and a nested
    object over it, now and then with a list or None, on which no action
    is defined, as its last component."""
    a = draw(st.integers(0, 6))
    pi = list(draw(st.permutations(range(a))))
    # about one draw in five or eight: an inner value, since hypothesis
    # favours the ends of a range
    if a and draw(st.integers(0, 4)) == 3:
        i = draw(st.integers(0, a - 1))
        pi[i] = draw(st.sampled_from([bool(pi[i] & 1), float(pi[i])]))
    obj = draw(_NESTED_OBJECTS[a])
    if draw(st.integers(0, 7)) == 5:
        obj = (obj, draw(st.none() | st.lists(st.integers(0, 2), max_size=2)))
    return tuple(pi), obj


@example(((1, 0), ((0, 1), frozenset({(1,), (0, 2)}))))
@example(((1.0, 0), 0))
@example(((True, False), ((0,),)))
@example(((1, 0), {(0,): (1, (0,)), 1: frozenset({(True,)})}))
@example(((0, 1), (0, (1, 0), [0])))
@settings(max_examples=100)
@given(perms_and_nested_objects())
def test_nested_action_matches_the_recursive_oracle(case):
    pi, obj = case
    try:
        want = oracle_action(pi, obj)
    except (ValueError, TypeError) as e:
        with pytest.raises(type(e)) as got:
            apply_perm(pi, obj)
        assert str(got.value) == str(e)
    else:
        assert apply_perm(pi, obj) == want


@st.composite
def tuples_and_bases(draw):
    """(p, B, a): a tuple of disjoint subsets of range(a), empty ones too,
    its components in any order, and a base B drawn from range(a) in any
    order, some elements repeated."""
    a = draw(st.integers(0, 9))
    arity = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(-1, arity - 1), min_size=a, max_size=a))
    p = tuple(as_subset(x for x in range(a) if owner[x] == i)
              for i in range(arity))
    B = draw(st.lists(st.integers(0, a - 1), max_size=a + 2)) if a else []
    return p, tuple(B), a


# the outside class holds two points of B, but so does the component
# before it, which wins
@example((((0, 1),), (3, 2, 1, 0), 4))
@example((((2, 3), (0, 1)), (0, 1, 2, 3), 4))
@example((((0,), (1,)), (0, 1, 2), 3))
@given(tuples_and_bases())
def test_fixing_transposition_matches_the_class_order_oracle(case):
    p, B, a = case
    pair = oracle_fixing_transposition(p, B)
    want = None if pair is None else transposition(a, *pair)
    assert find_fixing_transposition(p, B, a) == want


# ---------------------------------------------------------------------------
# the member check: one fused pass against the three-step definition

def oracle_check_disjoint_tuple(t, a, profile=None):
    """A tuple or list, each component a strictly increasing tuple (or
    list) of ints in range(a), then the components pairwise disjoint, then
    the profile."""
    if not isinstance(t, (tuple, list)):
        raise ValueError(f"not a tuple of components: {t!r}")
    for s in t:
        if any(type(x) is not int for x in s) or list(s) != sorted(set(s)):
            raise ValueError(f"not a canonical subset: {s!r}")
        if s and (s[0] < 0 or s[-1] >= a):
            raise ValueError(f"element out of range [0, {a}): {s!r}")
    seen = set()
    for s in t:
        for x in s:
            if x in seen:
                raise ValueError(f"components not pairwise disjoint: {t!r}")
            seen.add(x)
    if profile is not None and tuple(len(s) for s in t) != tuple(profile):
        raise ValueError(f"tuple {t!r} does not match profile {tuple(profile)}")


def outcome(check, *args):
    """None if the check accepts, else the type and message it raises."""
    try:
        check(*args)
    except Exception as e:  # compared, type and message, against the oracle
        return type(e), str(e)
    return None


FLAWS = ("bool", "float", "negative", "unsorted", "repeat", "out-of-range",
         "overlap", "list")


def flawed(draw, comps, a, flaws):
    """The components of a disjoint tuple over range(a), each with its
    drawn flaws applied in order.  A flaw replaces one element, so the
    sizes stay, and an empty component takes none."""
    out = []
    for i, c in enumerate(comps):
        c = list(c)
        others = [x for o in comps[:i] + comps[i + 1:] for x in o]
        for flaw in flaws[i] if c else ():
            k = draw(st.integers(0, len(c) - 1))
            if flaw == "bool":
                c[k] = draw(st.booleans())
            elif flaw == "float":
                c[k] = float(c[k])
            elif flaw == "negative":
                c[k] = draw(st.integers(-3, -1))
            elif flaw == "unsorted":
                c.reverse()
            elif flaw == "repeat":
                c[k] = c[k - 1]
            elif flaw == "out-of-range":
                c[k] = a + draw(st.integers(0, 2))
            elif flaw == "overlap" and others:
                c[k] = draw(st.sampled_from(others))
        out.append(c if "list" in flaws[i] else tuple(c))
    return tuple(out)


@st.composite
def disjoint_tuples(draw, a, n):
    """A disjoint n-tuple over range(a), each element in at most one
    component."""
    owner = draw(st.lists(st.integers(0, n), min_size=a, max_size=a))
    return tuple(tuple(x for x in range(a) if owner[x] == i + 1)
                 for i in range(n))


@st.composite
def member_checks(draw):
    """(t, a, profile): a disjoint tuple over range(a), or a list, whose
    components carry none, one or several flaws, and no profile, its own
    or another."""
    a = draw(st.integers(1, 8))
    n = draw(st.integers(0, 3))
    comps = draw(disjoint_tuples(a, n))
    flaws = [draw(st.lists(st.sampled_from(FLAWS), max_size=2)) for _ in comps]
    t = flawed(draw, comps, a, flaws)
    if draw(st.booleans()):
        t = list(t)
    profile = draw(st.one_of(
        st.none(), st.just(tuple(map(len, comps))),
        st.lists(st.integers(0, 3), max_size=4).map(tuple)))
    return t, a, profile


@example((((0, 0),), 5, None))  # a repeated element
@example((((-1, 0),), 5, None))  # a negative one
@example((((0, 5),), 5, None))  # the last element out of range
@example((((0,), (1, 2), (0,)), 5, None))  # an overlap past the first pair
@example((((0, True),), 5, None))
@example((([0, 1], (2,)), 5, (2, 1)))
@example((((0, 1),), 5, (2, 0)))
@example(([(1,)], 5, None))  # a list member, returned as a tuple
@example((5, 5, None))  # a number, which has no components to iterate
@given(member_checks())
def test_member_check_matches_three_step_oracle(case):
    """The check raises what the oracle raises, and where the oracle
    accepts it returns the member as a tuple of tuples, t itself if it is
    one."""
    t, a, profile = case
    want = outcome(oracle_check_disjoint_tuple, t, a, profile)
    assert outcome(core.check_disjoint_tuple, t, a, profile) == want
    if want is None:
        got = core.check_disjoint_tuple(t, a, profile)
        assert got == tuple(map(tuple, t))
        if type(t) is tuple and all(type(c) is tuple for c in t):
            assert got is t


@example((((True,),), 6, (1,)))
@example((((0, 1.0),), 6, None))
@example((((9,),), 6, (1,)))
# sets, whose iteration order is not the order of their components
@example((frozenset({(1,), (2, 3)}), 6, (2, 1)))
@example(({(1,), (2, 3)}, 6, (1, 2)))
@example((frozenset({(0,)}), 6, None))
@given(member_checks())
def test_both_routes_check_members_as_the_oracle_does(case):
    """up and interior on a member of X, and down on a member of Z, raise
    the oracle's exception, type and message, on the dense route and on
    the sparse one, and neither raises where the oracle accepts."""
    t, a, profile = case
    p = tuple(map(len, t)) if profile is None else profile
    want = outcome(oracle_check_disjoint_tuple, t, a, p)
    wider = tuple(x + 1 for x in p)
    for op, m, l in [(up, p, wider), (interior, p, wider),
                     (down, tuple(x // 2 for x in p), p)]:
        dense = outcome(op, a, m, l, [t])
        with mock.patch.object(operators, "fits_dense", lambda a, m, l: False):
            sparse = outcome(op, a, m, l, [t])
        assert dense == sparse == want


def tuples_of(a, profile):
    return sorted(enum_disjoint_tuples(a, profile))


SPARSE_CONFIGS = [coding.CodingConfig.from_json(
    (Path(__file__).resolve().parent.parent / "configs" / name).read_text())
    for name in ("two_slot_a28.json", "pair_slot_a24.json")]


@st.composite
def families_with_one_bad_member(draw):
    """(cfg, X, bad, m): a family on a config whose slots all run sparse,
    holding valid members and `bad`, a member of slot (j, m) with flaws.
    Slot members sit in lists, as list components are unhashable; `bad`
    with list components and no other flaw is a valid member."""
    cfg = draw(st.sampled_from(SPARSE_CONFIGS))
    X = {j: draw(st.lists(st.sampled_from(tuples_of(cfg.a, m)), max_size=3,
                          unique=True))
         for j, m in cfg.slots}
    j, m = draw(st.sampled_from(cfg.slots))
    comps = draw(st.sampled_from(tuples_of(cfg.a, m)))
    flaws = [draw(st.lists(st.sampled_from(FLAWS), min_size=1, max_size=2))
             for _ in comps]
    bad = flawed(draw, comps, cfg.a, flaws)
    hypothesis.assume(bad not in X[j])  # (1.0,) equals (1,)
    X[j].append(bad)
    return cfg, X, bad, m


@example((SPARSE_CONFIGS[1], {0: [frozenset({(1,), (2,)})]},
          frozenset({(1,), (2,)}), (1, 1)))
@settings(max_examples=40)
@given(families_with_one_bad_member())
def test_encode_raises_what_the_member_check_raises(case):
    cfg, X, bad, m = case
    want = outcome(oracle_check_disjoint_tuple, bad, cfg.a, m)
    got = outcome(coding.encode, X, cfg)
    assert got == want


# ---------------------------------------------------------------------------
# enumeration orders against the definitions

def oracle_extensions(a, p, l):
    """Every l-profile tuple of pairwise disjoint subsets of range(a) that
    contains p componentwise, sorted by the concatenation of the elements
    each component adds to p's."""
    found = [q for q in itertools.product(*(itertools.combinations(range(a), k)
                                            for k in l))
             if len(support(q)) == sum(l) and extends(p, q)]
    return sorted(found, key=lambda q: tuple(
        x for c, d in zip(p, q) for x in d if x not in c))


def oracle_O_n(a, n):
    """The n-tuples of disjoint subsets of range(a), one per assignment
    vector in product order: 0 puts an element in no component, i in the
    i-th."""
    out = []
    for assign in itertools.product(range(n + 1), repeat=a):
        comps = [[] for _ in range(n)]
        for x, c in enumerate(assign):
            if c:
                comps[c - 1].append(x)
        out.append(tuple(tuple(c) for c in comps))
    return out


@st.composite
def extension_instances(draw):
    """(a, p, l): a disjoint tuple p over range(a) and a profile l, most
    often at or above p's sizes, sometimes below one (no extensions)."""
    a = draw(st.integers(0, 7))
    n = draw(st.integers(0, 3))
    p = draw(disjoint_tuples(a, n))
    l = tuple(max(0, len(c) + draw(st.integers(-1, 2))) for c in p)
    hypothesis.assume(prod(comb(a, k) for k in l) <= 20_000)
    return a, p, l


@example((5, ((3,), (1,)), (1, 2)))  # the last base above an added element
@example((4, ((), ()), (1, 2)))
@given(extension_instances())
def test_enum_extensions_matches_the_sorted_definition(case):
    a, p, l = case
    assert list(core.enum_extensions(a, p, l)) == oracle_extensions(a, p, l)


@given(st.integers(0, 7), st.integers(0, 3))
def test_enum_O_n_matches_the_assignment_vector_loop(a, n):
    assert list(core.enum_O_n(a, n)) == oracle_O_n(a, n)
