import itertools
import json
import shlex
import sys
import time
from math import comb, factorial, perm
from pathlib import Path

import pytest

from finpart import cli, coding, core, operators, ramsey, suites, symmetry
from finpart.report import RunReport, UsageError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CONFIG = str(CONFIGS / "single_slot_a12.json")


def run_cli(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


def strip_time(text):
    doc = json.loads(text)
    doc.pop("wall_time_s", None)
    return doc


def test_bijection_suite(capsys):
    code, out = run_cli(capsys, ["verify", "bijection", "--a", "4", "--n", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["outcome"] == "pass"
    assert doc["counters"]["round_trips"] == 256


@pytest.mark.parametrize("fault, distinct", [
    ("earlier", 20),   # the image of a sequence already checked: a repeat
    ("later", 21),     # the image of a sequence not yet checked
    ("no-image", 21),  # its inverse (element 7) is no sequence over range(3)
    ("overlap", 21),   # its inverse comes earlier but maps to another image
])
def test_bijection_counts_a_failing_image_as_a_set_would(monkeypatch, fault,
                                                         distinct):
    # fin_to_disjoint sends the 21st sequence to another tuple; the suite's
    # counters read as when it kept every image in a set
    a, n = 3, 2
    real = suites.maps.fin_to_disjoint
    subsets = [c for k in range(a + 1) for c in itertools.combinations(range(a), k)]
    seqs = list(itertools.product(subsets, repeat=n))
    target = {"earlier": real(seqs[5]), "later": real(seqs[40]),
              "no-image": ((7,), (), ()), "overlap": ((0,), (0,), ())}[fault]
    monkeypatch.setattr(suites.maps, "fin_to_disjoint",
                        lambda s: target if s == seqs[20] else real(s))
    images = set()
    for s in seqs:
        q = suites.maps.fin_to_disjoint(s)
        images.add(q)
        if suites.maps.disjoint_to_fin(q, n) != s:
            break
    report = suites.suite_bijection(a, n)
    assert report.outcome == "violation"
    assert report.witnesses == [{"sequence": [list(map(list, seqs[20]))]}]
    assert report.counters == {"round_trips": 21, "distinct_images": distinct,
                               "count_identity": False}
    assert len(images) == distinct


def test_fact00_pass(capsys):
    code, out = run_cli(capsys, [
        "verify", "fact00", "--a", "6", "--m", "1", "--l", "2",
        "--mode", "exhaustive",
    ])
    doc = json.loads(out)
    assert code == 0
    assert doc["outcome"] == "pass"
    assert doc["counters"]["families_checked"] == 64


def test_nilpotency_cycle_reported(capsys):
    code, out = run_cli(capsys, [
        "verify", "nilpotency", "--a", "2", "--m", "1", "--l", "3",
    ])
    doc = json.loads(out)
    assert code == 1
    assert doc["outcome"] == "violation"
    assert doc["witnesses"][0]["kind"] == "cycle"
    assert doc["witnesses"][0]["period"] == 2


def test_nilpotency_off_the_dense_route(capsys):
    # O_(10,)(24) is over the dense budget, so boundary runs sparse
    code, out = run_cli(capsys, [
        "verify", "nilpotency", "--a", "24", "--m", "1", "--l", "10",
        "--mode", "random", "--samples", "3",
    ])
    doc = json.loads(out)
    assert code == 0
    assert doc["outcome"] == "pass"
    assert doc["counters"]["families_checked"] == 3


def test_counts_bn(capsys):
    code, out = run_cli(capsys, [
        "counts", "--space", "bn", "--a-max", "6", "--n-max", "2",
    ])
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] is True for r in rows)


@pytest.mark.parametrize("space", ["bn", "on", "tuples"])
def test_counts_over_budget_rows_keep_their_key(monkeypatch, capsys, space):
    argv = ["counts", "--space", space, "--a-max", "4", "--n-max", "2"]
    _, out = run_cli(capsys, argv)
    keys = [(r["a"], r["n_or_profile"]) for r in json.loads(out)]
    monkeypatch.setattr(suites, "_COUNT_BUDGET", 10)
    code, out = run_cli(capsys, argv)
    rows = json.loads(out)
    assert code == 1
    assert any(r["match"] == "infeasible" for r in rows)
    assert [(r["a"], r["n_or_profile"]) for r in rows] == keys


def test_counts_budget_bounds_the_whole_table(monkeypatch, capsys):
    # every row but the last fits the budget alone; the table does not
    enumerated = []

    def counted(enum):
        def wrapped(a, key):
            for item in enum(a, key):
                enumerated.append(item)
                yield item
        return wrapped

    monkeypatch.setattr(suites, "_SPACES", {
        space: (keys, formula, counted(enum))
        for space, (keys, formula, enum) in suites._SPACES.items()
    })
    monkeypatch.setattr(suites, "_COUNT_BUDGET", 100)
    code, out = run_cli(capsys, [
        "counts", "--space", "bn", "--a-max", "6", "--n-max", "2",
    ])
    rows = json.loads(out)
    assert code == 1
    assert len(enumerated) <= 100
    assert sum(r["formula"] for r in rows if r["formula"] <= 100) > 100
    assert sum(r["enumerated"] for r in rows if r["match"] is True) \
        == len(enumerated)


def test_counts_csv(capsys):
    code, out = run_cli(capsys, [
        "counts", "--space", "on", "--a-max", "3", "--n-max", "2",
        "--format", "csv",
    ])
    assert code == 0
    assert out.splitlines()[0].startswith("a,")


def test_ramsey_search(capsys):
    code, out = run_cli(capsys, [
        "ramsey", "search", "--j", "2", "--c", "2", "--r", "3", "--cap", "7",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 6
    assert 0 < doc["pruned"] < doc["searched"]


def test_ramsey_suite(capsys):
    code, out = run_cli(capsys, ["verify", "ramsey"])
    doc = json.loads(out)
    assert code == 0 and doc["outcome"] == "pass"
    assert doc["counters"] == {
        "min_N_triangle": 6,
        "pigeonhole": {f"c={c},r={r}": c * (r - 1) + 1
                       for c in (1, 2, 3) for r in (1, 2, 3, 4)},
        "bounds_validated": 8,
    }


def test_ramsey_check_readme_line(capsys):
    code, out = run_cli(capsys, [
        "ramsey", "check", "--j", "2", "--c", "2", "--r", "3", "--sizes", "6",
    ])
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_ramsey_check_counterexample_replays(capsys):
    # 4x4 is 2-colourable without a monochromatic rectangle: the printed
    # colouring, read back, has no monochromatic 2x2 sub-grid
    code, out = run_cli(capsys, [
        "ramsey", "check", "--j", "1", "--j", "1", "--c", "2", "--r", "2",
        "--sizes", "4", "--sizes", "4",
    ])
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is False
    # plain JSON: each point a list of int lists, sorted by point
    points = [pt for pt, _ in doc["counterexample"]]
    assert points == sorted(points) and len(points) == 16
    col = ramsey.ProductColoring((4, 4), (1, 1), {
        tuple(map(tuple, pt)): d for pt, d in doc["counterexample"]})
    pairs = list(itertools.combinations(range(4), 2))
    assert not any(ramsey.check_witness(col, [S, T], d, r=2)
                   for S in pairs for T in pairs for d in range(2))


def test_ramsey_bound(capsys):
    code, out = run_cli(capsys, [
        "ramsey", "bound", "--j", "1", "--c", "3", "--r", "4",
    ])
    assert code == 0
    assert json.loads(out)["upper_bound"] == 10


@pytest.mark.parametrize("argv", [
    # 2^15 colors on the last coordinate: the graph recurrence is refused
    ["--j", "2", "--j", "2", "--c", "2", "--r", "3"],
    # 2 ** comb(32770, 3) is refused before it is raised
    ["--j", "4", "--c", "2", "--r", "5"],
])
def test_ramsey_bound_over_budget_exits_1(monkeypatch, capsys, argv):
    code, err = run_main(monkeypatch, capsys, ["ramsey", "bound"] + argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("infeasible: ")


def test_ramsey_bound_large_value(capsys):
    # step-down from the graph bound R(4, 4) <= 20: 2 + 2 ** comb(20, 2)
    code, out = run_cli(capsys, [
        "ramsey", "bound", "--j", "3", "--c", "2", "--r", "5",
    ])
    assert code == 0
    assert json.loads(out)["upper_bound"] == 2 + 2**190


def test_ramsey_bound_prints_every_digit(monkeypatch, capsys):
    # a 9,521-digit bound, past the interpreter's 4,300-digit str limit,
    # which the command lifts for its one conversion and then restores
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(sys, "argv", [
        "finpart", "ramsey", "bound", "--j", "3", "--c", "2", "--r", "7",
    ])
    assert cli.main() == 0
    assert sys.get_int_max_str_digits() == limit
    digits = json.loads(capsys.readouterr().out, parse_int=str)["upper_bound"]
    bound = ramsey.upper_bound_R(ramsey.RamseyQuery((3,), 2, 7))
    sys.set_int_max_str_digits(0)
    try:
        assert digits == str(bound)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) == 9521


def test_counts_tuples_makes_only_profiles_that_fit():
    # 4^12 profiles of arity 12 alone, of which 91 fit in a = 2
    rows = suites.emit_counts("tuples", 2, 12)
    assert len(rows) == 556 and all(r[-1] is True for r in rows)
    for a in range(6):
        for n_max in range(5):
            assert suites._tuple_profiles(a, n_max) == [
                m for n in range(1, n_max + 1)
                for m in itertools.product(range(4), repeat=n) if sum(m) <= a
            ]


def test_counts_refuses_an_unknown_space():
    with pytest.raises(UsageError, match="unknown space 'foo'"):
        suites.emit_counts("foo", 2, 2)


def test_code_demo(capsys):
    code, out = run_cli(capsys, ["code", "demo", "--config", CONFIG])
    assert code == 0
    assert "round trip: pass" in out


def test_code_demo_sparse_pullback(capsys):
    # the second slot, (1,(2,)), decodes through the sparse pullback
    code, out = run_cli(capsys, [
        "code", "demo", "--config", str(CONFIGS / "two_slot_a28.json"),
    ])
    assert code == 0
    assert "round trip: pass" in out


def test_code_demo_materialization_infeasible(tmp_path, capsys):
    # two pairs in slot 1 carry 3,124,550 candidate tuples, over the
    # extension budget, so the demo decodes the book instead
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"1": [[[0, 1]], [[2, 3]]]}))
    code, out = run_cli(capsys, [
        "code", "demo", "--config", str(CONFIGS / "two_slot_a28.json"),
        "--family", str(family),
    ])
    assert code == 0
    assert "materialization infeasible (3124550 candidate tuples)" in out
    assert "round trip: pass" in out


def test_code_demo_buckets_H_once(monkeypatch, capsys):
    # the slices it counts are the slices it decodes
    calls = []
    slices = coding.slices
    monkeypatch.setattr(coding, "slices",
                        lambda H, cfg: calls.append(len(H)) or slices(H, cfg))
    code, out = run_cli(capsys, ["code", "demo", "--config", CONFIG])
    assert code == 0 and "round trip: pass" in out
    assert len(calls) == 1


def test_code_roundtrip_random(capsys):
    code, out = run_cli(capsys, [
        "verify", "coding", "--config", CONFIG, "--mode", "random",
        "--samples", "5", "--seed", "3",
    ])
    doc = json.loads(out)
    assert code == 0
    assert doc["outcome"] == "pass"


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"a": 4, "n": 1, "signature": "compact", "slots": [[0, [5]]]}
    ))
    with pytest.raises(cli.UsageError, match="ground size"):
        cli.run(["code", "demo", "--config", str(bad)])


def run_main(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["finpart"] + argv)
    code = cli.main()
    return code, capsys.readouterr().err


def assert_one_line_error(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_missing_book_exits_2(monkeypatch, capsys, tmp_path):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "decode", "--config", CONFIG, "--book", str(tmp_path / "none"),
    ]))


def test_missing_family_exits_2(monkeypatch, capsys, tmp_path):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "encode", "--config", CONFIG, "--family", str(tmp_path / "none"),
    ]))


def test_book_missing_keys_exits_2(monkeypatch, capsys, tmp_path):
    book = tmp_path / "book.json"
    book.write_text(json.dumps({"config": json.loads(Path(CONFIG).read_text())}))
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "decode", "--config", CONFIG, "--book", str(book),
    ]))


@pytest.mark.parametrize("entries", [
    pytest.param({"0|1|0": [[[99]]], "0|1|1": []}, id="out-of-range"),
    pytest.param({"0|1|0": [[[0, 1]]], "0|1|1": []}, id="wrong-profile"),
    pytest.param({"0|1|0": [[[0]]], "0|1|1": [], "7|1|0": [[[0]]]},
                 id="unknown-key"),
    pytest.param({"0|1|0": [[[0]]], "0|1|1": [[[0]]]}, id="not-nested"),
])
def test_decode_rejects_book_no_family_encodes_to(monkeypatch, capsys,
                                                   tmp_path, entries):
    book = tmp_path / "book.json"
    book.write_text(json.dumps({"config": json.loads(Path(CONFIG).read_text()),
                                "book": entries}))
    code, err = run_main(monkeypatch, capsys, [
        "code", "decode", "--config", CONFIG, "--book", str(book),
    ])
    assert_one_line_error(code, err)
    assert "not the code of any family" in err


def test_decode_accepts_encoded_book(capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"0": [[[0]], [[5]]]}))
    _, book = run_cli(capsys, ["code", "encode", "--config", CONFIG,
                               "--family", str(family)])
    (tmp_path / "book.json").write_text(book)
    code, out = run_cli(capsys, ["code", "decode", "--config", CONFIG,
                                 "--book", str(tmp_path / "book.json")])
    assert code == 0
    assert json.loads(out) == {"0": [[[0]], [[5]]]}


@pytest.mark.parametrize("name, via", [
    ("single_slot_a12.json", True),
    ("seq_arity1_a12.json", True),
    ("pair_slot_a24.json", False),
    ("two_slot_a28.json", False),
    ("seq_arity2_a40.json", False),
])
def test_suite_coding_route_per_config(name, via):
    # through partitions exactly when materialize fits its budget on any
    # family; slots with over 64 tuples (pair_slot_a24's 552, for one) are
    # sampled with at most 4 members
    cfg = coding.CodingConfig.from_json((CONFIGS / name).read_text())
    rep = cli.suite_coding(cfg, "random", 5, 0)
    assert rep.outcome == "pass"
    assert rep.counters == {"round_trips": 5, "via_partitions": via}


def test_suite_coding_exhaustive():
    # all 2^9 families of singletons; grounds of 5 to 8 are too small for
    # some of them, and the round trip raises CodingError
    rep = cli.suite_coding(coding.compact_config(9, 1, [(0, (1,))]),
                           "exhaustive", 0, 0)
    assert rep.outcome == "pass"
    assert rep.counters == {"round_trips": 512, "via_partitions": True}
    with pytest.raises(coding.CodingError, match="too small"):
        cli.suite_coding(coding.compact_config(8, 1, [(0, (1,))]),
                         "exhaustive", 0, 0)


def test_suite_coding_reports_a_lossy_round_trip(monkeypatch):
    # decode drops each slot's least member: the first non-empty family,
    # mask 1 of the sweep, fails and ends it
    real = coding.decode
    monkeypatch.setattr(coding, "decode", lambda *args: {
        j: f - {min(f)} for j, f in real(*args).items()})
    rep = cli.suite_coding(coding.compact_config(9, 1, [(0, (1,))]),
                           "exhaustive", 0, 0)
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.witnesses == [{"X": {"0": [[[0]]]}}]
    assert rep.counters == {"round_trips": 2, "via_partitions": True}


def test_decode_error_exits_2(monkeypatch, capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"0": [[[0]]]}))
    _, book = run_cli(capsys, ["code", "encode", "--config", CONFIG,
                               "--family", str(family)])
    (tmp_path / "book.json").write_text(book)

    def unfaithful(*args, **kwargs):
        raise coding.DecodeError("slice (0, (1,), 0) is not interior-closed")

    monkeypatch.setattr(coding, "decode", unfaithful)
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "decode", "--config", CONFIG, "--book", str(tmp_path / "book.json"),
    ]))


@pytest.mark.parametrize("argv, size", [
    (["verify", "fact00", "--a", "8", "--m", "2", "--l", "3"], 28),
    (["verify", "nilpotency", "--a", "25", "--m", "1", "--l", "3"], 25),
    (["verify", "coding", "--config", "a15.json", "--mode", "exhaustive"], 15),
], ids=["fact00", "nilpotency", "coding"])
def test_exhaustive_caps_are_infeasible(monkeypatch, capsys, tmp_path, argv,
                                        size):
    # over 2^24, 2^24 and 2^14 families: refused as work over a budget
    cfg = tmp_path / "a15.json"
    cfg.write_text(json.dumps({"a": 15, "n": 1, "signature": "compact",
                               "slots": [[0, [1]]]}))
    argv = [str(cfg) if x == "a15.json" else x for x in argv]
    assert run_main(monkeypatch, capsys, argv) == (
        1, f"infeasible: 2^{size} families is over the exhaustive budget\n")


def test_random_nilpotency_refuses_before_listing_tuples(monkeypatch, capsys):
    # 11,875,500 (3, 3)-tuples over 30 points: over the budget of listed
    # tuples, so refused before one is enumerated
    def enumerating(a, profile):
        raise AssertionError(f"enumerated O_{profile}({a})")

    monkeypatch.setattr(operators, "enum_disjoint_tuples", enumerating)
    t0 = time.monotonic()
    code, err = run_main(monkeypatch, capsys, [
        "verify", "nilpotency", "--a", "30", "--m", "3", "--m", "3",
        "--l", "8", "--l", "8", "--mode", "random", "--samples", "1",
    ])
    assert time.monotonic() - t0 < 1
    assert code == 1 and err.startswith("infeasible: 11875500 tuples")


@pytest.mark.parametrize("family", [
    {"0": [[[0.5]]]},
    {"1": [[[True, 2]]]},
    {"1": [[["a", "b"]]]},
], ids=["float", "bool", "str"])
def test_family_of_non_int_elements_exits_2(monkeypatch, capsys, tmp_path,
                                            family):
    # both slots of two_slot_a28 run sparse, so the member check is
    # encode's call of core.check_disjoint_tuple, which takes ints only
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "encode", "--config", str(CONFIGS / "two_slot_a28.json"),
        "--family", str(path),
    ]))


@pytest.mark.parametrize("config", ["single_slot_a12.json", "two_slot_a28.json"],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("member", [{"0": [1]}, "0", 5],
                         ids=["object", "string", "number"])
def test_family_member_not_a_list_exits_2(monkeypatch, capsys, tmp_path,
                                          config, member):
    # the member reaches the member check as written, on either route
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"0": [member]}))
    code, err = run_main(monkeypatch, capsys, [
        "code", "encode", "--config", str(CONFIGS / config), "--family", str(path),
    ])
    assert_one_line_error(code, err)
    assert err == f"error: not a tuple of components: {member!r}\n"


@pytest.mark.parametrize("slot", [{"a": [[1]]}, "ab"], ids=["object", "string"])
def test_family_slot_not_a_list_exits_2(monkeypatch, capsys, tmp_path, slot):
    # the slot is refused as a whole; none of its keys or characters is
    # read as a member
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"0": slot}))
    code, err = run_main(monkeypatch, capsys, [
        "code", "encode", "--config", CONFIG, "--family", str(path),
    ])
    assert_one_line_error(code, err)
    assert err == f"error: bad family {path}: slot 0 is not a list of members\n"


@pytest.mark.parametrize("element", [1.0, True], ids=["float", "bool"])
def test_dense_slot_rejects_non_int_elements(monkeypatch, capsys, tmp_path,
                                             element):
    # single_slot_a12's slot runs dense, where the index lookup holds 1.0
    # and True only by equality with the int 1, so it sends them on to
    # core.check_disjoint_tuple, as the sparse route does
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"0": [[[element]]]}))
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "code", "demo", "--config", CONFIG, "--family", str(path),
    ]))


@pytest.mark.parametrize("family", [
    {"0": [[[2, 1]]]},
    {"0": [[[12]]]},
    {"0": [[[0], [1]]]},
], ids=["malformed", "out-of-range", "wrong-arity"])
def test_code_demo_rejects_family_before_printing(monkeypatch, capsys,
                                                  tmp_path, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    monkeypatch.setattr(sys, "argv", ["finpart", "code", "demo", "--config",
                                      CONFIG, "--family", str(path)])
    code = cli.main()
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line_error(code, err)


@pytest.mark.parametrize("change,message", [
    ({"a": 12.5}, "is not an int"),
    ({"n": True}, "is not an int"),
    ({"slots": [[0.5, [1]]]}, "is not an int"),
    ({"slots": [[True, [1]]]}, "is not an int"),
    ({"slots": [[0, [1.0]]]}, "is not an int"),
    ({"slots": []}, "at least one slot required"),
    ({"signature": "prime", "slots": []}, "at least one slot required"),
    ({"slots": [[0, [1]], [0, [1]]]}, "duplicate slots"),
    ({"slots": [[-1, [1]]]}, "negative slot index"),
    ({"slots": [[0, [1, 1]]]}, "invalid for arity"),
    ({"slots": [[0, [-1]]]}, "invalid for arity"),
    ({"signature": "foo"}, "unknown signature kind"),
], ids=["a", "n", "slot-float", "slot-bool", "profile-entry", "compact-no-slots",
        "prime-no-slots", "duplicate-slots", "negative-slot", "profile-arity",
        "profile-negative", "signature-kind"])
def test_config_of_non_ints_exits_2(monkeypatch, capsys, tmp_path, change,
                                    message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(Path(CONFIG).read_text()),
                                **change}))
    code, err = run_main(monkeypatch, capsys, [
        "code", "demo", "--config", str(path),
    ])
    assert_one_line_error(code, err)
    assert "bad config" in err and message in err


def test_decode_of_a_book_under_another_config_exits_2(monkeypatch, capsys,
                                                       tmp_path):
    book = tmp_path / "book.json"
    cfg = coding.CodingConfig.from_json(Path(CONFIG).read_text())
    book.write_text(coding.encode({0: {((1,),)}}, cfg).to_json())
    code, err = run_main(monkeypatch, capsys, [
        "code", "decode", "--config", str(CONFIGS / "two_slot_a28.json"),
        "--book", str(book),
    ])
    assert_one_line_error(code, err)
    assert "book does not match the given config" in err


def test_bijection_refuses_before_listing_subsets(monkeypatch, capsys):
    # 2^21 sequences: refused before the first round trip
    def round_trip(s):
        raise AssertionError("a round trip ran")

    monkeypatch.setattr(suites.maps, "fin_to_disjoint", round_trip)
    assert run_main(monkeypatch, capsys, [
        "verify", "bijection", "--a", "7", "--n", "3",
    ]) == (1, "infeasible: 2^21 sequences is over the exhaustive budget\n")


def test_exhaustive_coding_needs_one_slot(monkeypatch, capsys):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "verify", "coding", "--config", str(CONFIGS / "two_slot_a28.json"),
        "--mode", "exhaustive",
    ]))


def test_ramsey_negative_size_exits_2(monkeypatch, capsys):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "ramsey", "check", "--j", "1", "--c", "2", "--r", "2", "--sizes", "-3",
    ]))


def test_ramsey_negative_cap_exits_2(monkeypatch, capsys):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "ramsey", "search", "--j", "1", "--c", "2", "--r", "2", "--cap", "-1",
    ]))


@pytest.mark.parametrize("argv", [
    ["verify", "nilpotency", "--a", "-1"],
    ["verify", "bijection", "--a", "-1"],
    ["verify", "nilpotency", "--mode", "random", "--samples", "-3"],
    ["counts", "--a-max", "-1"],
    ["counts", "--space", "tuples", "--n-max", "-3"],
    ["verify", "fact00", "--a", "-1"],
    ["verify", "fact00", "--mode", "random", "--samples", "-3"],
    ["ramsey", "check", "--j", "2", "--c", "2", "--r", "3", "--sizes", "5",
     "--max-colorings", "-5"],
    ["symmetry", "orbits", "--n", "-1"],
])
def test_verify_negative_input_exits_2(monkeypatch, capsys, argv):
    assert_one_line_error(*run_main(monkeypatch, capsys, argv))


@pytest.mark.parametrize("argv", [
    ["symmetry", "support", "--a", "3", "--blocks", "0,5"],
    ["symmetry", "fiber", "--a", "4", "--blocks", "0,1|1,2"],
    ["symmetry", "support", "--a", "4", "--E", "9"],
    ["symmetry", "support", "--a", "-1"],
])
def test_symmetry_bad_input_exits_2(monkeypatch, capsys, argv):
    assert_one_line_error(*run_main(monkeypatch, capsys, argv))


@pytest.mark.parametrize("argv, named", [
    (["symmetry", "support", "--a", "4", "--blocks", "0,0"], "block (0, 0)"),
    (["symmetry", "support", "--a", "4", "--blocks", "1,2,2"], "block (1, 2, 2)"),
    (["symmetry", "orbits", "--B", "0,0,1,2", "--s", "0,1"], "base (0, 0, 1, 2)"),
    (["symmetry", "support", "--a", "4", "--blocks", "0,1", "--E", "2,2"],
     "element 2"),
    (["symmetry", "chain", "--a", "4", "--n", "1", "--E", "0,0"], "element 0"),
    (["symmetry", "fiber", "--a", "5", "--n", "1", "--E", "0,0", "--blocks", "1,2"],
     "element 0"),
])
def test_repeated_element_exits_2(monkeypatch, capsys, argv, named):
    # a repeated element is refused, not merged into a smaller block or base
    code, err = run_main(monkeypatch, capsys, argv)
    assert_one_line_error(code, err)
    assert named in err


def test_symmetry_fiber_over_budget_exits_1(monkeypatch, capsys):
    # |B_1(21)| = 2^21 - 22 is just over the sweep budget
    code, err = run_main(monkeypatch, capsys, ["symmetry", "fiber", "--a", "21",
                                               "--n", "1"])
    assert code == 1
    assert err == "infeasible: |B_1(21)| exceeds the sweep budget\n"


def test_symmetry_orbits_over_budget_exits_1(monkeypatch, capsys):
    # a base of 9 still answers; 10! permutations are refused unbuilt
    assert factorial(9) <= symmetry._ORBIT_BUDGET < factorial(10)
    code, err = run_main(monkeypatch, capsys, ["symmetry", "orbits", "--n", "8"])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("infeasible: ")


def test_code_roundtrip_negative_samples_exits_2(monkeypatch, capsys):
    assert_one_line_error(*run_main(monkeypatch, capsys, [
        "verify", "coding", "--config", CONFIG, "--mode", "random",
        "--samples", "-3",
    ]))


@pytest.mark.parametrize("argv", [
    ["symmetry", "orbits", "--a", "3", "--seed", "1"],
    ["--format", "csv", "counts"],
    ["code", "demo", "--config", CONFIG, "--materialize"],
    ["verify", "fact00", "--n", "2"],
    ["verify", "nilpotency", "--jobs", "2"],
    ["verify", "bijection", "--samples", "5"],
    ["verify", "ramsey", "--a", "99"],
    ["verify", "coding", "--config", CONFIG, "--jobs", "7"],
    ["verify", "symmetry", "--m", "9"],
    ["symmetry", "orbits", "--a", "3"],
    ["symmetry", "support", "--a", "4", "--n", "2"],
    ["symmetry", "fiber", "--a", "4", "--s", "9"],
    ["symmetry", "chain", "--a", "4", "--blocks", "0,1"],
    ["ramsey", "bound", "--j", "1", "--c", "2", "--r", "2", "--no-prune"],
    ["code", "roundtrip", "--config", CONFIG],
    ["code", "encode", "--config", CONFIG, "--family", CONFIG, "--materialize"],
    ["verify", "ramsey", "--no-prune"],
    ["ramsey", "check", "--j", "1", "--c", "2", "--r", "2", "--sizes", "3",
     "--no-prune"],
    ["ramsey", "search", "--j", "1", "--c", "2", "--r", "2", "--cap", "3",
     "--no-prune"],
    ["verify", "fact00", "--jobs", "2"],
])
def test_unread_options_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2


def _readme_cli_lines():
    block = (ROOT / "README.md").read_text().split("## CLI")[1].split("```")[1]
    return [shlex.split(ln, comments=True) for ln in block.splitlines()
            if ln.startswith("finpart ")]


def test_readme_cli_lines_parse():
    # the README's CLI examples stay in step with the per-command parsers
    lines = _readme_cli_lines()
    assert len(lines) > 10
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
    # and show every command of the table at least once
    for verb, (_, actions) in cli._COMMANDS.items():
        for action in actions:
            assert any(argv[1] == verb and (action is None or argv[2] == action)
                       for argv in lines), (verb, action)


# the canonical digest of each `finpart verify` line of the README
README_VERIFY_DIGESTS = {
    "verify fact00 --a 6 --m 1 --l 2 --mode exhaustive": "5238a09577d9340c",
    "verify nilpotency --a 2 --m 1 --l 3": "d94ac8ceb84c37c7",
    "verify nilpotency --a 24 --m 1 --l 10 --mode random --samples 3":
        "f5f15e43f889c780",
    "verify bijection --a 4 --n 2": "7ee24186ca11ba3f",
    "verify ramsey": "0a12878e5b49c4ae",
    "verify coding --config configs/single_slot_a12.json --mode exhaustive":
        "610a53508d42912c",
    "verify symmetry": "3bd1f6d3da269ddb",
}


def test_readme_verify_lines_keep_their_digests(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    got = {}
    for argv in _readme_cli_lines():
        if argv[1] == "verify":
            cli.run(argv[1:])
            got[" ".join(argv[1:])] = json.loads(capsys.readouterr().out)["digest"]
    assert got == README_VERIFY_DIGESTS


@pytest.mark.parametrize("E, verdict", [("0,1", True), ("0", False)])
def test_symmetry_support(capsys, E, verdict):
    code, out = run_cli(capsys, [
        "symmetry", "support", "--a", "4", "--blocks", "0,1", "--E", E,
    ])
    assert code == 0
    assert json.loads(out) == {"is_support": verdict}


def test_symmetry_orbits(capsys):
    code, out = run_cli(capsys, ["symmetry", "orbits", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["xi"]) == len(doc["theta"]) == 3


def test_symmetry_fiber(capsys):
    code, out = run_cli(capsys, [
        "symmetry", "fiber", "--a", "5", "--n", "1", "--E", "0",
        "--blocks", "1,2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["within_bound"] and doc["size"] == 2


def test_symmetry_fiber_does_not_sweep_all_set_partitions(monkeypatch, capsys):
    # B_1(13) has 8,178 partitions; there are Bell(13) = 27,644,437 in all
    def no_sweep(a):
        raise AssertionError(f"swept all set partitions of {a} elements")

    monkeypatch.setattr(core, "enum_set_partitions", no_sweep)
    code, out = run_cli(capsys, [
        "symmetry", "fiber", "--a", "13", "--n", "1", "--E", "0",
        "--blocks", "1,2",
    ])
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_symmetry_chain_refuses_before_enumerating(monkeypatch, capsys):
    assert core.count_B_n(13, 3) > symmetry._SWEEP_BUDGET

    def no_enumeration(a, n):
        raise AssertionError(f"enumerated B_{n}({a})")

    monkeypatch.setattr(core, "enum_B_n", no_enumeration)
    monkeypatch.setattr(symmetry, "enum_B_n", no_enumeration)
    code, err = run_main(monkeypatch, capsys,
                         ["symmetry", "chain", "--a", "13", "--n", "3"])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("infeasible: ")


def test_symmetry_chain_refuses_from_the_class_count(monkeypatch, capsys):
    # |B_2(12)| = 237,127 is within the sweep budget, but with E empty every
    # partition is its own projection class and 237,127^2 pairs are not
    assert core.count_B_n(12, 2) <= symmetry._SWEEP_BUDGET

    def no_enumeration(a, n):
        raise AssertionError(f"enumerated B_{n}({a})")

    monkeypatch.setattr(core, "enum_B_n", no_enumeration)
    monkeypatch.setattr(symmetry, "enum_B_n", no_enumeration)
    code, err = run_main(monkeypatch, capsys,
                         ["symmetry", "chain", "--a", "12", "--n", "2"])
    assert (code, err) == (1, "infeasible: chain digraph exceeds its budget\n")


def test_symmetry_chain_strict_pairs(capsys):
    code, out = run_cli(capsys, ["symmetry", "chain", "--a", "6", "--n", "2",
                                 "--E", "0,1"])
    assert code == 0
    assert json.loads(out)["longest_chain"] == 2


def test_verify_symmetry(capsys):
    code, out = run_cli(capsys, ["verify", "symmetry"])
    doc = json.loads(out)
    assert code == 0
    assert doc["outcome"] == "pass"
    # (n+2)! sequences per n <= 3; P(a, n) tuples times C(a, n+2) bases;
    # the 26 partitions of B_1(5) under each of the 16 sets E of size <= 2
    assert doc["counters"] == {
        "orbit_pairs": sum(factorial(n + 2) for n in range(4)),
        "transpositions": sum(perm(a, n) * comb(a, n + 2)
                              for n in (1, 2) for a in range(n + 2, 8)),
        "fiber_partitions": 26 * 16,
    }
    assert doc["counters"]["transpositions"] == 2466


def test_report_determinism(capsys):
    args = ["verify", "fact00", "--a", "5", "--m", "1", "--l", "2",
            "--mode", "random", "--samples", "50", "--seed", "11"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    assert strip_time(out1) == strip_time(out2)


def test_report_exit_codes():
    rep = RunReport(command="x", config={})
    assert (rep.outcome, rep.exit_code) == ("pass", 0)
    rep.witnesses.append({"kind": "planted", "X": {(2,), (0, 1)}})
    assert (rep.outcome, rep.exit_code) == ("violation", 1)
    assert rep.canonical()["outcome"] == "violation"
    # a set serializes as a list in sorted order
    assert rep.canonical()["witnesses"] == [{"X": [[0, 1], [2]], "kind": "planted"}]
    with pytest.raises(AttributeError):
        rep.outcome = "pass"
