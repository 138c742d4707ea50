import argparse
import json
import re
from pathlib import Path

import pytest

import patcoh.cli
from patcoh.catalog import build, names
from patcoh.cli import main
from patcoh.model import parse_projection_data, serialize_projection_data
from patcoh.report import canonical_digest, compute_report
from test_orbits import _ammann_beenker_with


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for nm in names():
        assert nm in out


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [e["name"] for e in doc] == names()
    assert all(e["description"] for e in doc)


def test_compute_table_danzer(capsys):
    code, out, _ = run(capsys, "compute", "danzer", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "danzer"
    assert lines[2].split() == [
        "Z", "Z^7", "Z^16", "Z^20", "1", "10", "15", "15", "6", "33", "5"]


def test_compute_json_fibonacci(capsys):
    code, out, _ = run(capsys, "compute", "fibonacci", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["H"] == [1, 2] and doc["K"] == [2, 1]
    assert doc["status"] == "finite"
    assert doc["validation"]["ok"]


def test_compute_file_matches_catalog(capsys, tmp_path):
    path = tmp_path / "danzer.json"
    path.write_text(serialize_projection_data(build("danzer").data))
    code1, out1, _ = run(capsys, "compute", str(path), "--json")
    code2, out2, _ = run(capsys, "compute", "danzer", "--json")
    assert code1 == code2 == 0
    assert canonical_digest(json.loads(out1)) == canonical_digest(json.loads(out2))


def test_compute_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, "compute", "danzer", "--json")
    _, out2, _ = run(capsys, "compute", "danzer", "--json")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing"), doc2.pop("timing")
    assert doc1 == doc2


def test_compute_unknown_source(capsys):
    code, _, err = run(capsys, "compute", "no_such_entry")
    assert code == 1
    assert "unknown catalog entry" in err


def test_compute_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "parse error" in err


def test_unreadable_input_is_a_parse_error(capsys, tmp_path):
    # a file that is not UTF-8 text, JSON nested past the recursion limit
    # and an integer literal past Python's digit limit are parse errors
    # (exit 1) for both commands, not tracebacks
    bad_bytes = tmp_path / "latin1.json"
    bad_bytes.write_bytes('{"schema": "patcoh/1", "name": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"schema": "patcoh/1", "dim": ' + "1" * 5000 + "}")
    for path in (bad_bytes, deep, long_int):
        for command in ("compute", "validate"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (1, ""), (command, path.name)
            assert err.startswith(f"patcoh: parse error in {path}"), (command, path.name)


def test_huge_discriminant_is_a_parse_error(capsys, tmp_path):
    # D above the field's bound is refused before its squarefree check,
    # which would trial-divide up to sqrt(D)
    doc = json.loads(serialize_projection_data(build("fibonacci").data))
    doc["field"]["D"] = 1000000000000000003
    path = tmp_path / "huge_d.json"
    path.write_text(json.dumps(doc))
    for command in ("compute", "validate"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err.startswith(f"patcoh: parse error in {path}"), command
        assert "at most 2**31" in err, command


@pytest.mark.parametrize("field", [{"kind": "Q"}, {"kind": "Q", "D": 5}], ids=["bare", "with_D"])
def test_rational_field_is_a_parse_error(capsys, tmp_path, field):
    # over Q no input can pass validation, so both commands refuse the
    # field at parse (exit 1) and say why, before any validation finding
    doc = {"schema": "patcoh/1", "name": "rational", "field": field, "dim": 1,
           "generators": [[["1"]], [["1/2"]]], "hyperplanes": [{"normal": [["1"]]}]}
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(doc))
    for command in ("compute", "validate"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err == (f"patcoh: parse error in {path}: the rational field is refused: Gamma "
                       "needs n > m generators independent over Q, and n > m vectors of Q^m "
                       "never are\n"), command


def test_unreadable_file_is_reported(capsys, tmp_path, monkeypatch):
    # a file that exists but cannot be read ends either command with a
    # message and exit 1, not an OSError traceback
    path = tmp_path / "locked.json"
    path.write_text(serialize_projection_data(build("danzer").data))

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    for command in ("compute", "validate"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err.startswith(f"patcoh: cannot read {path}: "), command
        assert "Permission denied" in err and "Traceback" not in err, command


def test_compute_infinite_exit_code(capsys):
    code, out, _ = run(capsys, "compute", "infinite_demo")
    assert code == 3
    assert "infinite" in out


def test_compute_validation_error_exit_code(capsys):
    code, out, _ = run(capsys, "compute", "square_fibonacci")
    assert code == 2
    assert "decomposable" in out


def test_compute_resource_cap(capsys, monkeypatch):
    monkeypatch.setenv("PATCOH_MAX_CLASSES", "3")
    code, out, _ = run(capsys, "compute", "danzer", "--json")
    assert code == 5
    assert json.loads(out)["status"] == "resource_cap_exceeded"


def test_resource_cap_table_names_the_pair(capsys, monkeypatch, tmp_path):
    # the table shows the cap diagnostic that the JSON report carries: the
    # plane normal (1, 10) meets one star line in 200 point classes
    path = tmp_path / "ab_extra.json"
    path.write_text(serialize_projection_data(_ammann_beenker_with([["1"], ["10"]])))
    monkeypatch.setenv("PATCOH_MAX_CLASSES", "10")
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 5
    assert out.splitlines()[0] == "ab_extra: status resource_cap_exceeded"
    assert "level 0, pair (parent" in out and "hyperplane class" in out
    assert "200 classes, more than the cap of 10" in out


def test_bad_max_classes_env(capsys, monkeypatch):
    for raw in ("many", "0", "-1"):
        monkeypatch.setenv("PATCOH_MAX_CLASSES", raw)
        try:
            main(["compute", "danzer"])
        except SystemExit as exc:
            assert exc.code == 1, raw
        else:
            raise AssertionError(f"expected SystemExit for {raw!r}")
        assert "bad PATCOH_MAX_CLASSES value" in capsys.readouterr().err


def test_validate_command(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(serialize_projection_data(build("fibonacci").data))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "ok" in out

    bad = tmp_path / "sq.json"
    bad.write_text(serialize_projection_data(build("square_fibonacci").data))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "decomposable" in out


def test_dump_arrangement(capsys):
    code, out, _ = run(capsys, "compute", "fibonacci", "--json",
                       "--dump-arrangement")
    assert code == 0
    doc = json.loads(out)
    levels = doc["arrangement"]
    assert set(levels) == {"0"}
    assert len(levels["0"]) == 1
    assert levels["0"][0]["stabilizer"] == []


@pytest.mark.parametrize("argv", [["compute"], ["bogus"],
                                  ["compute", "danzer", "--json", "--table"]],
                         ids=["no_source", "unknown_command", "json_and_table"])
def test_usage_error_exits_1(capsys, argv):
    # a usage error exits 1, not argparse's 2, which is the validation code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: patcoh" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [[], ["--table"]], ids=["default", "table"])
def test_dump_arrangement_needs_json(capsys, fmt):
    # the table has no place for the arrangement, so the flag alone is refused
    with pytest.raises(SystemExit) as exc:
        main(["compute", "fibonacci", "--dump-arrangement", *fmt])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert "--dump-arrangement needs --json" in out.err


def test_main_reuses_one_parser_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # the parser is built on the first call and reused: every path run
    # twice in one process gives the same stdout (timing stripped), stderr
    # and exit code, and no ArgumentParser is built after the first call
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    paths = [["list"], ["list", "--json"], ["compute", "fibonacci"],
             ["compute", "infinite_demo", "--json"],
             ["compute", "fibonacci", "--json", "--dump-arrangement"],
             ["validate", "square_fibonacci"], ["compute", "no_such_entry"],
             ["compute", str(bad)], ["validate", str(bad)], ["compute"], ["bogus"],
             ["compute", "danzer", "--json", "--table"],
             ["compute", "fibonacci", "--dump-arrangement"]]
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *args, **kwargs:
                        built.append(1) or real(self, *args, **kwargs))

    def once(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, re.sub(r'"(\w+_ms)": \d+', r'"\1": 0', out.out), out.err

    patcoh.cli._parser.cache_clear()
    runs = [(once(argv), once(argv)) for argv in paths]
    assert len(built) == 4  # the parser and its three subparsers, on the first call
    for argv, (first, second) in zip(paths, runs):
        assert first == second, argv
    assert [first[0] for first, _ in runs] == [0, 0, 0, 3, 0, 2, 1, 1, 1, 1, 1, 1, 1]
    assert all(first[2].startswith("usage: patcoh") for first, _ in runs[-4:])


def test_canonical_digest_ignores_timing():
    doc, _ = compute_report(build("fibonacci").data)
    other = dict(doc)
    other["timing"] = {"validate_ms": 999, "compute_ms": 999}
    assert canonical_digest(doc) == canonical_digest(other)


def tau_lattice_m4():
    """Q(sqrt 5) with Gamma = Z[tau]^4 (generators e_i and tau e_i), the four
    coordinate planes and the plane with normal (1, 1, 1, 1), all through
    0: a finite arrangement of codimension 4, beyond the rank formulas."""
    one, zero, tau = ["1"], ["0"], ["1/2", "1/2"]
    doc = {
        "schema": "patcoh/1",
        "name": "tau_lattice_m4",
        "field": {"kind": "Qsqrt", "D": 5},
        "dim": 4,
        "generators": [[x if j == i else zero for j in range(4)]
                       for i in range(4) for x in (one, tau)],
        "hyperplanes": [{"normal": [one if j == i else zero for j in range(4)]}
                        for i in range(4)] + [{"normal": [one] * 4}],
    }
    return parse_projection_data(json.dumps(doc))


HEADER = ["schema", "name", "field", "m", "n", "d", "nu", "status", "validation"]
RESULT = ["finite", "L", "tilde_L1", "e", "r", "R", "D", "H", "K", "diagnostics"]


def test_report_keys_on_every_exit_path():
    # the digest hashes keys in insertion order, so each exit path pins
    # its key order; the exit-4 and exit-5 documents also pin their digests
    cases = [
        (build("danzer").data, {"dump_arrangement": True}, 0,
         HEADER + RESULT + ["arrangement", "timing"]),
        (build("square_fibonacci").data, {}, 2, HEADER + ["timing"]),
        (build("infinite_demo").data, {}, 3, HEADER + RESULT + ["timing"]),
        (tau_lattice_m4(), {}, 4, HEADER + RESULT + ["timing"]),
        (build("danzer").data, {"max_classes": 5}, 5, HEADER + ["diagnostics", "timing"]),
    ]
    docs = {}
    for data, kwargs, code, keys in cases:
        doc, got = compute_report(data, **kwargs)
        assert (got, list(doc)) == (code, keys), data.name
        docs[code] = doc
    assert docs[4]["status"] == "unsupported_codimension"
    assert docs[4]["L"] == [1, 10, 10, 5] and docs[4]["e"] == 4  # regression values
    assert canonical_digest(docs[4]) == (
        "31fda8520bc41f8c507fd2c15f70ef5ffd745852520eab914b9ff7360451bf94")
    assert docs[5]["diagnostics"] == {"message": "level 2, pair (the whole space, input "
                                                 "plane 5): 6 classes at the level, more "
                                                 "than the cap of 5"}
    assert canonical_digest(docs[5]) == (
        "93c0ffaaa304c4757f742668fc16898c9c14a03797d470bcf5c34f07b7a2342f")
