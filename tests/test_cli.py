import json
import sys
from pathlib import Path

import pytest

from finpart import cli, coding
from finpart.report import RunReport

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


def test_counts_bn(capsys):
    code, out = run_cli(capsys, [
        "counts", "--space", "bn", "--a-max", "6", "--n-max", "2",
    ])
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] is True for r in rows)


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
    assert json.loads(out)["value"] == 6


def test_ramsey_bound(capsys):
    code, out = run_cli(capsys, [
        "ramsey", "bound", "--j", "1", "--c", "3", "--r", "4",
    ])
    assert code == 0
    assert json.loads(out)["upper_bound"] == 10


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


def test_code_roundtrip_random(capsys):
    code, out = run_cli(capsys, [
        "code", "roundtrip", "--config", CONFIG, "--samples", "5",
        "--seed", "3",
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


def test_symmetry_orbits(capsys):
    code, out = run_cli(capsys, ["symmetry", "orbits", "--a", "3", "--n", "1"])
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


def test_report_determinism(capsys):
    args = ["verify", "fact00", "--a", "5", "--m", "1", "--l", "2",
            "--mode", "random", "--samples", "50", "--seed", "11"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    assert strip_time(out1) == strip_time(out2)


def test_parallel_matches_serial(capsys):
    base = ["verify", "fact00", "--a", "6", "--m", "1", "--l", "3",
            "--mode", "exhaustive"]
    _, serial = run_cli(capsys, base + ["--jobs", "1"])
    _, parallel = run_cli(capsys, base + ["--jobs", "2"])
    assert strip_time(serial) == strip_time(parallel)


def test_report_exit_codes():
    rep = RunReport(command="x", config={})
    assert rep.exit_code == 0
    rep.outcome = "violation"
    assert rep.exit_code == 1
