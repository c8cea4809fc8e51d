"""The fact00 sweep against a per-law oracle, and the size of its pool."""

import itertools
import json

import pytest

from finpart import cli, operators, suites


def oracle_chunk(args):
    """The fact00 per-family laws, each operator asked separately: up and
    interior recomputed per law, every sub-profile interior recomputed per
    comparison, and boundary_mask at every nesting level."""
    a, m, l, masks = args
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


INSTANCES = [(4, (2,), (3,)), (4, (1, 1), (2, 2)), (5, (1,), (3,))]


def _or_bit0(down):
    return lambda sp, g: down(sp, g) | 1


def _flip_bit0(down):
    # interior(empty) = {bit 0}, and the next level is not extensive: only
    # a nesting loop that runs on past an empty level with a non-empty
    # interior sees it
    return lambda sp, g: down(sp, g) ^ 1


def _drop_top(down):
    return lambda sp, g: down(sp, g) & sp.full_m_mask >> 1


def _drop_bit0(up):
    return lambda sp, x: up(sp, x) & ~1


FAULTS = {
    "none": None,
    "down-or-bit0": ("down_mask", _or_bit0),
    "down-flips-bit0": ("down_mask", _flip_bit0),
    "down-drops-top": ("down_mask", _drop_top),
    "up-drops-bit0": ("up_mask", _drop_bit0),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("a, m, l", INSTANCES)
def test_chunk_matches_oracle(monkeypatch, a, m, l, fault):
    if FAULTS[fault] is not None:
        name, plant = FAULTS[fault]
        monkeypatch.setattr(operators, name, plant(getattr(operators, name)))
    task = (a, m, l, range(1 << len(operators.profile_space(a, m, l).m_tuples)))
    got = suites._fact00_chunk(task)
    assert got == oracle_chunk(task)
    if fault != "none":
        assert got[1], "a planted fault must show up as witnesses"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process."""

    made = []

    def __init__(self, max_workers):
        RecordingPool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def _fact00_report(capsys, argv):
    assert cli.run(["verify", "fact00"] + argv) == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("wall_time_s")
    return doc


def _pool_sizes(capsys, monkeypatch, cores, argv):
    """The pool sizes a --jobs 64 run asks for, after checking that its
    report equals the serial one."""
    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(RecordingPool, "made", [])
    wide = _fact00_report(capsys, argv + ["--jobs", "64"])
    assert wide == _fact00_report(capsys, argv + ["--jobs", "1"])
    return RecordingPool.made


@pytest.mark.parametrize("cores, mode, workers", [
    (2, "exhaustive", []),   # 64 masks, one task: no pool at all
    (3, "random", []),       # at most 1000 masks, one task whatever --jobs
    (None, "random", []),    # unknown core count: serial
])
def test_pool_is_capped_by_tasks_and_cores(capsys, monkeypatch, cores, mode,
                                           workers):
    argv = ["--a", "6", "--m", "1", "--l", "3", "--mode", mode]
    assert _pool_sizes(capsys, monkeypatch, cores, argv) == workers


def test_pool_is_capped_by_cores(capsys, monkeypatch):
    # 2^14 masks make 4 tasks of 4096: three workers on three cores
    argv = ["--a", "14", "--m", "1", "--l", "2", "--mode", "exhaustive"]
    assert _pool_sizes(capsys, monkeypatch, 3, argv) == [3]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_report_under_a_fault_does_not_depend_on_jobs(monkeypatch, mode):
    """Each task stops after 21 violations; tasks are cut from the masks
    alone, so the witnesses (and the digest) are the same at any --jobs.
    The jobs=2 run maps its tasks in this process, on a recording pool."""
    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
    # a down operator that keeps nothing breaks the laws on most families
    monkeypatch.setattr(operators, "down_mask", lambda sp, g: 0)
    serial = suites.suite_fact00(6, (2,), (3,), mode, 3000, 0, 1)
    parallel = suites.suite_fact00(6, (2,), (3,), mode, 3000, 0, 2)
    assert serial.outcome == "violation"
    assert serial.canonical_json() == parallel.canonical_json()
