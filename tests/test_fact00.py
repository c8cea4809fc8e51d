"""The bit-sliced fact00 sweep and pair laws against a per-mask, per-law
oracle."""

import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finpart import operators, suites


def oracle_chunk(a, m, l, masks):
    """The fact00 per-family laws, mask by mask, each operator asked
    separately: up and interior recomputed per law, every sub-profile
    interior recomputed per comparison, and boundary_mask at every
    nesting level."""
    sp = operators.profile_space(a, m, l)
    sub = [
        operators.profile_space(a, m, lp)
        for lp in itertools.product(*(range(mi, li + 1) for mi, li in zip(m, l)))
    ]
    checked = 0
    violations = []
    closed = 0

    def witness(law, xmask, detail):
        fam = sorted(operators.mask_to_family(sp, xmask))
        violations.append({"law": law, "X": suites._plainfam(fam), "detail": detail})

    for xmask in masks:
        checked += 1
        al = operators.interior_mask(sp, xmask)
        if xmask & ~al:
            witness("extensive-interior", xmask, "X not within its interior")
        if operators.up_mask(sp, al) != operators.up_mask(sp, xmask):
            witness("up-of-interior", xmask, "up(interior(X)) != up(X)")
        if operators.interior_mask(sp, al) != al:
            witness("idempotent-interior", xmask, "interior not idempotent")
        closed += al == xmask
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


def oracle_fact00(a, m, l, mode, samples, seed):
    """suite_fact00's counters and witnesses, mask by mask: oracle_chunk on
    the whole sweep, then the seeded pairs, drawn as the suite draws them
    (per block of suites._PAIR_BLOCK pairs, a y-column per m-tuple, then
    per m-tuple an x-column ANDed into its y-column), each pair's masks
    rebuilt bit by bit from the columns and checked through up_mask and
    down_mask, both stopping after the family or pair that takes the count
    past 20."""
    sp = operators.profile_space(a, m, l)
    size = len(sp.m_tuples)
    rng = random.Random(seed)
    if mode == "exhaustive":
        masks = range(1 << size)
    else:
        masks = sorted({rng.getrandbits(size) for _ in range(samples)})
    checked, violations, closed = oracle_chunk(a, m, l, masks)

    def fam(mask):
        return suites._plainfam(sorted(operators.mask_to_family(sp, mask)))

    def row(cols, f):
        return sum((c >> f & 1) << i for i, c in enumerate(cols))

    pairs, total = 0, max(samples, 1000)
    while pairs < total and len(violations) <= 20:
        n = min(suites._PAIR_BLOCK, total - pairs)
        ycols = [rng.getrandbits(n) for _ in range(size)]
        xcols = [y & rng.getrandbits(n) for y in ycols]
        for f in range(n):
            if len(violations) > 20:
                break
            pairs += 1
            xmask, ymask = row(xcols, f), row(ycols, f)
            ux = operators.up_mask(sp, xmask)
            uy = operators.up_mask(sp, ymask)
            if ux & ~uy:
                violations.append({"law": "monotone-up", "X": fam(xmask),
                                   "Y": fam(ymask), "detail": "up not monotone"})
            if operators.down_mask(sp, ux) & ~operators.down_mask(sp, uy):
                violations.append({"law": "monotone-interior", "X": fam(xmask),
                                   "Y": fam(ymask),
                                   "detail": "interior not monotone"})
    counters = {"families_checked": checked, "pairs_checked": pairs,
                "closed_families": closed, "laws": len(suites._LAW_NAMES)}
    return counters, violations


INSTANCES = [(4, (2,), (3,)), (4, (1, 1), (2, 2)), (5, (1,), (3,))]


def _column(i, change):
    """Plants change(column, ones) as column i of a sliced kernel's
    output: the transpose of a per-mask fault on bit i."""
    def plant(kernel):
        def planted(sp, cols, *ones):
            out = kernel(sp, cols, *ones)
            out[i] = change(out[i], *ones)
            return out
        return planted
    return plant


def _flip_bit0(down):
    # interior(empty) = {bit 0}, and the next level is not extensive: only
    # a nesting loop that runs on past an empty level with a non-empty
    # interior sees it
    return lambda sp, g: down(sp, g) ^ 1


def _xor_bit0_into_bit1(g):
    # a bijection of l-side masks, its own inverse and not monotone: up
    # composed with it and down with its inverse leave interior as it is,
    # so only the pair law monotone-up sees the fault
    return g ^ (g & 1) << 1


def _xor_col0_into_col1(cols):
    return [cols[0], cols[1] ^ cols[0], *cols[2:]]


# per fault: the per-mask kernel and its plant, then the sliced ones
FAULTS = {
    "none": (),
    "down-or-bit0": (
        ("down_mask", lambda down: lambda sp, g: down(sp, g) | 1),
        ("down_sliced", _column(0, lambda col, ones: ones)),
    ),
    "down-flips-bit0": (
        ("down_mask", _flip_bit0),
        ("down_sliced", _column(0, lambda col, ones: col ^ ones)),
    ),
    "down-drops-top": (
        ("down_mask", lambda down: lambda sp, g:
            down(sp, g) & ((1 << len(sp.m_tuples)) - 1) >> 1),
        ("down_sliced", _column(-1, lambda col, ones: 0)),
    ),
    "up-drops-bit0": (
        ("up_mask", lambda up: lambda sp, x: up(sp, x) & ~1),
        ("up_sliced", _column(0, lambda col: 0)),
    ),
    # without down's inverse: interior is not monotone either
    "up-xors-bit0-into-bit1": (
        ("up_mask", lambda up: lambda sp, x: _xor_bit0_into_bit1(up(sp, x))),
        ("up_sliced", lambda up: lambda sp, x: _xor_col0_into_col1(up(sp, x))),
    ),
}

# faults that only the pair laws report, so no per-family sweep shows them
PAIR_FAULTS = {
    "up-not-monotone": (
        ("up_mask", lambda up: lambda sp, x: _xor_bit0_into_bit1(up(sp, x))),
        ("down_mask", lambda down: lambda sp, g: down(sp, _xor_bit0_into_bit1(g))),
        ("up_sliced", lambda up: lambda sp, x: _xor_col0_into_col1(up(sp, x))),
        ("down_sliced", lambda down: lambda sp, g, ones: down(
            sp, _xor_col0_into_col1(g), ones)),
    ),
}


def _plant(mp, fault):
    for name, plant in {**FAULTS, **PAIR_FAULTS}[fault]:
        mp.setattr(operators, name, plant(getattr(operators, name)))


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("a, m, l", INSTANCES)
def test_chunk_matches_oracle(monkeypatch, a, m, l, fault):
    _plant(monkeypatch, fault)
    masks = range(1 << len(operators.profile_space(a, m, l).m_tuples))
    got = suites._fact00_chunk(a, m, l, masks)
    assert got == oracle_chunk(a, m, l, masks)
    if fault != "none":
        assert got[1], "a planted fault must show up as witnesses"


@pytest.mark.parametrize("mode, samples", [("exhaustive", 0), ("random", 4500)])
@pytest.mark.parametrize("fault", [*FAULTS, *PAIR_FAULTS])
@pytest.mark.parametrize("a, m, l", INSTANCES)
def test_suite_matches_oracle(monkeypatch, a, m, l, fault, mode, samples):
    """The whole suite, pair laws included, at 4500 samples and pairs."""
    _plant(monkeypatch, fault)
    report = suites.suite_fact00(a, m, l, mode, samples, 0, 1)
    counters, witnesses = oracle_fact00(a, m, l, mode, samples, 0)
    assert (report.counters, report.witnesses) == (counters, witnesses)
    assert report.outcome == ("violation" if witnesses else "pass")
    if fault != "none":
        assert witnesses, "a planted fault must show up as witnesses"
    if fault in PAIR_FAULTS:
        assert {w["law"] for w in witnesses} == {"monotone-up"}


@pytest.mark.parametrize("fault", [*FAULTS, *PAIR_FAULTS])
def test_suite_matches_oracle_in_narrow_tiles(monkeypatch, fault):
    """In tiles of 8 masks and blocks of 8 pairs the count of witnesses
    carries from tile to tile and from block to block, so the report still
    ends where the mask-by-mask oracle's does."""
    _plant(monkeypatch, fault)
    monkeypatch.setattr(operators, "tile_width", lambda sp: 8)
    monkeypatch.setattr(suites, "_PAIR_BLOCK", 8)
    for (a, m, l), (mode, samples) in itertools.product(
            INSTANCES, [("exhaustive", 0), ("random", 4500)]):
        report = suites.suite_fact00(a, m, l, mode, samples, 0, 1)
        counters, witnesses = oracle_fact00(a, m, l, mode, samples, 0)
        assert (report.counters, report.witnesses) == (counters, witnesses)


class _CountingRandom(random.Random):
    """random.Random that records the width of each getrandbits call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_pairs_are_drawn_a_column_per_tuple(monkeypatch):
    """(6, (2,), (3,)) has 15 m-tuples, and its exhaustive sweep draws
    nothing: its 1,000 pairs, one block short of _PAIR_BLOCK, take one
    draw of 1,000 bits per y-column and one per x-column, 30 in all, so
    per-pair draws, or a short block drawn at full width, show here."""
    rngs = []

    def counting(seed):
        rngs.append(_CountingRandom(seed))
        return rngs[-1]

    monkeypatch.setattr(suites, "random", SimpleNamespace(Random=counting))
    report = suites.suite_fact00(6, (2,), (3,), "exhaustive", 0, 0, 1)
    assert report.outcome == "pass"
    assert report.counters["pairs_checked"] == 1000 < suites._PAIR_BLOCK
    assert [r.widths for r in rngs] == [[1000] * 30]


def _mask_runs(size):
    """Sorted lists of distinct masks, and runs of masks from any start."""
    top = (1 << size) - 1
    return st.one_of(
        st.sets(st.integers(0, top), min_size=1, max_size=120).map(sorted),
        st.tuples(st.integers(0, top), st.integers(1, 120)).map(
            lambda r: range(r[0], min(r[0] + r[1], top + 1))),
    )


@st.composite
def _tasks(draw):
    a, m, l = draw(st.sampled_from(INSTANCES))
    return a, m, l, draw(_mask_runs(len(operators.profile_space(a, m, l).m_tuples)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fault=st.sampled_from(list(FAULTS)), task=_tasks())
def test_sliced_chunk_matches_oracle_on_any_masks(fault, task):
    """Sorted mask lists, and runs that need not start at a multiple of
    4096, take the byte-level transpose; under a fault the stop after 21
    violations falls anywhere in the run."""
    with pytest.MonkeyPatch.context() as mp:
        _plant(mp, fault)
        assert suites._fact00_chunk(*task) == oracle_chunk(*task)


@st.composite
def _sized_masks(draw):
    size = draw(st.integers(0, 9000))
    return size, draw(_mask_runs(size) if size < 60 else st.lists(
        st.integers(0, (1 << size) - 1), min_size=1, max_size=5))


def _every_byte(size, n):
    """n masks of `size` bits whose bytes differ from family to family and
    from byte to byte, so a column read off the wrong byte shows."""
    return [sum((37 * f + 11 * j + 1) % 256 << 8 * j for j in range(size // 8 + 1))
            & (1 << size) - 1 for f in range(n)]


# masks of a whole number of bytes, one bit past it, and past the 8 bytes
# that pack into one array item, in runs of a length that is no multiple
# of 8
@example((8, _every_byte(8, 3)))
@example((9, _every_byte(9, 5)))
@example((16, _every_byte(16, 7)))
@example((17, _every_byte(17, 9)))
@example((32, _every_byte(32, 11)))
@example((33, _every_byte(33, 13)))
@example((64, _every_byte(64, 15)))
@example((65, _every_byte(65, 17)))
@example((17, range(3, 4100)))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sized_masks())
def test_columns_are_the_transpose(case):
    """Per bit i, bit f of column i is bit i of masks[f], past one tile of
    4096 bits too."""
    size, masks = case
    assert operators.columns(masks, size) == [
        sum((x >> i & 1) << f for f, x in enumerate(masks)) for i in range(size)]


def _drop_first(space, side):
    """The incidence with one (m-tuple, l-tuple) incidence of `space`
    dropped, on the up side (0) or the down side (1): the first tuple's
    first index is replaced by its second, which adds nothing to an OR or
    an AND.  Every tuple of each instance has at least two on each side."""
    incidence = operators._incidence

    def dropped(*key):
        tables = list(incidence(*key))
        if key == space:
            first, second, *rest = tables[side]
            tables[side] = ((second[0],) + first[1:], second, *rest)
        return tuple(tables)
    return dropped


@pytest.mark.parametrize("side", [0, 1], ids=["up", "down"])
@pytest.mark.parametrize("a, m, l", INSTANCES)
def test_dropped_incidence_shows_witnesses(monkeypatch, a, m, l, side):
    monkeypatch.setattr(operators, "_incidence", _drop_first((a, m, l), side))
    masks = range(1 << len(operators.profile_space(a, m, l).m_tuples))
    assert suites._fact00_chunk(a, m, l, masks)[1]


def test_a_passing_tile_builds_no_law_vector(monkeypatch):
    """Every law holds on the one tile of (6, (2,), (3,))'s 2^15 families,
    so a law costs its test that p & q == p per column: no law builds its
    vector through `_outside`, and each level set after X is di ^ d, which
    needs none either.  No containment is tested twice: level 0 of the
    nesting law is the extensive law, so it reads that law's vector."""
    outside, tested = [], []
    real_outside, real_excess = suites._outside, suites._excess
    monkeypatch.setattr(suites, "_outside",
                        lambda p, q: outside.append((p, q)) or real_outside(p, q))
    monkeypatch.setattr(suites, "_excess",
                        lambda p, q: tested.append((p, q)) or real_excess(p, q))
    got = suites._fact00_chunk(6, (2,), (3,), range(1 << 15))
    assert got == (1 << 15, [], 6115)
    assert outside == []
    # extensive, one comparable pair of sub-profiles, nesting at levels 1
    # and 2; level 3 and its interior are empty for every family
    assert len(tested) == 4
    assert not any(p is pp and q is qq for i, (p, q) in enumerate(tested)
                   for pp, qq in tested[:i])


def test_first_and_last_tasks_at_a7_match_oracle():
    """(7, (2,), (3,)) has 2^21 families, over the old cap of 2^20: its
    first and last two runs of 4096 masks."""
    a, m, l = 7, (2,), (3,)
    masks = suites._exhaustive_masks(len(operators.profile_space(a, m, l).m_tuples), 24)
    for lo in (0, 4096, len(masks) - 8192, len(masks) - 4096):
        run = masks[lo:lo + 4096]
        assert suites._fact00_chunk(a, m, l, run) == oracle_chunk(a, m, l, run)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_report_under_a_fault_does_not_depend_on_jobs(monkeypatch, mode):
    """`jobs` is kept for callers that pass it by position and read by
    nothing, so the witnesses (and the digest) are the same at any jobs."""
    # a down operator that keeps nothing breaks the laws on most families
    monkeypatch.setattr(operators, "down_mask", lambda sp, g: 0)
    monkeypatch.setattr(operators, "down_sliced",
                        lambda sp, g, ones: [0] * len(sp.m_tuples))
    serial = suites.suite_fact00(6, (2,), (3,), mode, 3000, 0, 1)
    parallel = suites.suite_fact00(6, (2,), (3,), mode, 3000, 0, 2)
    assert serial.outcome == "violation"
    assert serial.canonical_json() == parallel.canonical_json()


@pytest.mark.parametrize("run", [
    lambda: suites.suite_fact00(6, (2,), (3,), "exhaustive", 0, 0, 1),
    lambda: suites.suite_fact00(6, (2,), (3,), "random", 9000, 0, 1),
    lambda: suites.suite_nilpotency(7, (2,), (4,), "exhaustive", 0, 0),
], ids=["fact00-exhaustive", "fact00-random", "nilpotency"])
@pytest.mark.parametrize("fault", [False, True], ids=["none", "down-empty"])
def test_report_does_not_depend_on_the_kernel_width(monkeypatch, run, fault):
    """The report ends after the family or pair that takes it past 20
    witnesses, wherever the kernels' tiles fall: each instance's default
    tile is wider than 8192 masks, here against tiles of 4096 (the sample
    draws 7,889 distinct masks and 9,000 pairs), and (7, (2,), (4,)) first
    fails at family 6,643, in the second tile of 4096."""
    assert operators.tile_width(operators.profile_space(6, (2,), (3,))) > 8192
    assert operators.tile_width(operators.profile_space(7, (2,), (4,))) > 8192
    if fault:
        monkeypatch.setattr(operators, "down_mask", lambda sp, g: 0)
        monkeypatch.setattr(operators, "down_sliced",
                            lambda sp, g, ones: [0] * len(sp.m_tuples))
    wide = run()
    monkeypatch.setattr(operators, "tile_width", lambda sp: 4096)
    assert run().canonical_json() == wide.canonical_json()


def test_faulted_cap_run_stops_in_its_first_tile(monkeypatch):
    """Under a down operator that keeps nothing, nearly every one of the
    2^24 families at (24, (1,), (2,)) breaks a law: the report ends with
    the family that takes it past 20 witnesses, within the first tile,
    and no pair is checked."""
    monkeypatch.setattr(operators, "down_sliced",
                        lambda sp, g, ones: [0] * len(sp.m_tuples))
    rep = suites.suite_fact00(24, (1,), (2,), "exhaustive", 0, 0, 1)
    last = rep.witnesses[-1]["X"]
    before = [w for w in rep.witnesses if w["X"] != last]
    assert rep.outcome == "violation"
    assert len(before) <= 20 < len(rep.witnesses)
    assert rep.counters["families_checked"] <= operators.tile_width(
        operators.profile_space(24, (1,), (2,)))
    assert rep.counters["pairs_checked"] == 0
    assert len(rep.canonical_json()) < 64_000


@pytest.mark.parametrize("a, l, closed", [(8, 2, 248), (10, 3, 969),
                                          (12, 5, 3303), (14, 7, 9909),
                                          (20, 2, 2**20 - 20)])
def test_closed_families_at_m1_follow_the_closed_form(a, l, closed):
    """At m = (1,) a point p outside X is interior exactly when every l-set
    through p meets X, that is when a - |X| - 1 < l - 1; so X is closed
    exactly when |X| <= a - l or X is every point.  At a = 20 the sweep
    runs over 2^20 families, in 128 kernel tiles."""
    assert closed == sum(comb(a, i) for i in range(a - l + 1)) + 1
    rep = suites.suite_fact00(a, (1,), (l,), "exhaustive", 0, 0, 1)
    assert rep.counters["closed_families"] == closed


def closed_graphs(a):
    """The edge sets X of the complete graph on a points with every edge
    outside X in a triangle outside X, counted by brute force: the closed
    families at m = (2,), l = (3,), where an edge outside X is interior
    exactly when each triangle through it has an edge in X."""
    edges = list(itertools.combinations(range(a), 2))
    bit = {e: 1 << i for i, e in enumerate(edges)}
    # per edge, the other two edges of each triangle through it
    rest = [[bit[min(u, w), max(u, w)] | bit[min(v, w), max(v, w)]
             for w in range(a) if w not in (u, v)] for u, v in edges]
    return sum(
        all(X >> i & 1 or any(not r & X for r in rest[i])
            for i in range(len(edges)))
        for X in range(1 << len(edges)))


@pytest.mark.parametrize("a, closed", [(2, 1), (3, 2), (4, 12), (5, 187),
                                       (6, 6115)])
def test_closed_families_at_m2_l3_count_closed_graphs(a, closed):
    rep = suites.suite_fact00(a, (2,), (3,), "exhaustive", 0, 0, 1)
    assert rep.counters["closed_families"] == closed_graphs(a) == closed


def test_list_profiles_report_as_tuples_do():
    as_lists = suites.suite_fact00(6, [1], [3], "exhaustive", 1000, 0, 1)
    as_tuples = suites.suite_fact00(6, (1,), (3,), "exhaustive", 1000, 0, 1)
    assert as_lists.canonical_json() == as_tuples.canonical_json()


def test_profile_arity_mismatch_is_refused():
    with pytest.raises(ValueError, match="profile arity mismatch"):
        suites.suite_fact00(6, [1], [2, 2], "exhaustive", 1000, 0, 1)
