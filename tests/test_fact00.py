"""The bit-sliced fact00 sweep and pair laws against a per-mask, per-law
oracle."""

import itertools
import random
from math import comb

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
    the sweep's tasks of 4096 masks, then each seeded pair (y, then the
    mask ANDed into y for x) through up_mask and down_mask."""
    sp = operators.profile_space(a, m, l)
    size = len(sp.m_tuples)
    rng = random.Random(seed)
    if mode == "exhaustive":
        masks = range(1 << size)
    else:
        masks = sorted({rng.getrandbits(size) for _ in range(samples)})
    checked = closed = 0
    violations = []
    for lo in range(0, len(masks), 4096):
        c, v, cl = oracle_chunk(a, m, l, masks[lo:lo + 4096])
        checked += c
        violations += v
        closed += cl

    def fam(mask):
        return suites._plainfam(sorted(operators.mask_to_family(sp, mask)))

    pairs = max(samples, 1000)
    for _ in range(pairs):
        ymask = rng.getrandbits(size)
        xmask = ymask & rng.getrandbits(size)
        ux = operators.up_mask(sp, xmask)
        uy = operators.up_mask(sp, ymask)
        if ux & ~uy:
            violations.append({"law": "monotone-up", "X": fam(xmask),
                               "Y": fam(ymask), "detail": "up not monotone"})
        if operators.down_mask(sp, ux) & ~operators.down_mask(sp, uy):
            violations.append({"law": "monotone-interior", "X": fam(xmask),
                               "Y": fam(ymask), "detail": "interior not monotone"})
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
        ("down_mask", lambda down: lambda sp, g: down(sp, g) & sp.full_m_mask >> 1),
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
    """The whole suite, pair laws included: 4500 pairs take two tasks."""
    _plant(monkeypatch, fault)
    report = suites.suite_fact00(a, m, l, mode, samples, 0, 1)
    counters, witnesses = oracle_fact00(a, m, l, mode, samples, 0)
    assert (report.counters, report.witnesses) == (counters, witnesses)
    assert report.outcome == ("violation" if witnesses else "pass")
    if fault != "none":
        assert witnesses, "a planted fault must show up as witnesses"
    if fault in PAIR_FAULTS:
        assert {w["law"] for w in witnesses} == {"monotone-up"}


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
    4096, take the bit-string transpose; under a fault the stop after 21
    violations falls anywhere in the task."""
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


def test_first_and_last_tasks_at_a7_match_oracle():
    """(7, (2,), (3,)) has 2^21 families, over the old cap of 2^20: its
    first and last two tasks of 4096, cut as the sweep cuts them."""
    a, m, l = 7, (2,), (3,)
    masks = suites._exhaustive_masks(len(operators.profile_space(a, m, l).m_tuples), 24)
    for lo in (0, 4096, len(masks) - 8192, len(masks) - 4096):
        task = masks[lo:lo + 4096]
        assert suites._fact00_chunk(a, m, l, task) == oracle_chunk(a, m, l, task)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_report_under_a_fault_does_not_depend_on_jobs(monkeypatch, mode):
    """Each task stops after 21 violations; tasks are cut from the masks
    alone, so the witnesses (and the digest) are the same at any --jobs."""
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
    """The report is cut into windows of 4096 masks whatever the kernels'
    tile: each instance's default tile holds several windows (the sample
    draws 7,889 distinct masks and 9,000 pairs), each window stops
    after its own 21 violations, and (7, (2,), (4,)) first fails at family
    6,643, in the second window."""
    assert operators.tile_width(operators.profile_space(6, (2,), (3,))) > 8192
    assert operators.tile_width(operators.profile_space(7, (2,), (4,))) > 8192
    if fault:
        monkeypatch.setattr(operators, "down_mask", lambda sp, g: 0)
        monkeypatch.setattr(operators, "down_sliced",
                            lambda sp, g, ones: [0] * len(sp.m_tuples))
    wide = run()
    monkeypatch.setattr(operators, "tile_width", lambda sp: 4096)
    assert run().canonical_json() == wide.canonical_json()


@pytest.mark.parametrize("a, l, closed", [(8, 2, 248), (10, 3, 969),
                                          (12, 5, 3303), (14, 7, 9909),
                                          (20, 2, 2**20 - 20)])
def test_closed_families_at_m1_follow_the_closed_form(a, l, closed):
    """At m = (1,) a point p outside X is interior exactly when every l-set
    through p meets X, that is when a - |X| - 1 < l - 1; so X is closed
    exactly when |X| <= a - l or X is every point.  At a = 20 the sweep
    runs over 2^20 families, in many kernel tiles and 256 windows."""
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
