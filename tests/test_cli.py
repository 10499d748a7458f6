import json

import pytest

from dehncalc.cli import main
from dehncalc.families import family_catalog
from dehncalc.parsing import parse_manifold_expr
from dehncalc.reports import (Report, SCHEMA_VERSION, STATUS_FAIL,
                              STATUS_INDETERMINATE, STATUS_OK, combine_status,
                              emit_report, exit_code)
from dehncalc.slopes import format_slope


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Report layer


def test_emit_json_stable_key_order():
    a = Report("cmd", STATUS_OK, ({"b": 1, "a": 2},))
    b = Report("cmd", STATUS_OK, ({"a": 2, "b": 1},))
    assert emit_report(a, "json") == emit_report(b, "json")
    payload = json.loads(emit_report(a, "json"))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["status"] == "ok"
    assert payload["results"] == [{"a": 2, "b": 1}]


def test_emit_tsv_layout():
    rep = Report("cmd", STATUS_OK,
                 ({"x": 1, "y": None, "z": True}, {"x": 2, "y": "s", "z": False}),
                 ("x", "y", "z"))
    lines = emit_report(rep, "tsv").splitlines()
    assert lines[0] == "# schema_version\t1"
    assert lines[1] == "# command\tcmd"
    assert lines[2] == "# status\tok"
    assert lines[3] == "x\ty\tz"
    assert lines[4] == "1\t\ttrue"
    assert lines[5] == "2\ts\tfalse"


def test_exit_code_partition():
    assert exit_code(STATUS_OK) == 0
    assert exit_code(STATUS_FAIL) == 1
    assert exit_code(STATUS_INDETERMINATE) == 3
    assert combine_status([STATUS_OK, STATUS_OK]) == STATUS_OK
    assert combine_status([STATUS_OK, STATUS_INDETERMINATE]) == \
        STATUS_INDETERMINATE
    assert combine_status([STATUS_INDETERMINATE, STATUS_FAIL]) == STATUS_FAIL
    assert combine_status([]) == STATUS_OK
    with pytest.raises(ValueError):
        Report("cmd", "bogus", ())


# ---------------------------------------------------------------------------
# Verbs


def test_distance_verb(capsys):
    code, out, _ = _run(capsys, ["distance", "0", "inf"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["distance"] == 1
    assert payload["status"] == "ok"
    code, out, _ = _run(capsys, ["distance", "-1/2", "inf"])
    assert code == 0
    assert json.loads(out)["results"][0]["distance"] == 2


def test_classify_verb(capsys):
    code, out, _ = _run(capsys, ["classify", "S2(2,2,13)"])
    assert code == 0
    assert json.loads(out)["results"][0]["finite_type"] == "dihedral"
    code, out, _ = _run(capsys, ["classify", "L(6,5)"])
    assert json.loads(out)["results"][0]["manifold"] == "L(6,1)"
    assert code == 0


def test_classify_indeterminate_exit_three(capsys):
    code, out, _ = _run(capsys, ["classify", "tag(lens-type)"])
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "indeterminate"
    assert payload["results"][0]["finite_type"] == "unknown"


def test_cover_verb_round_trips(capsys):
    code, out, _ = _run(capsys, ["cover", "b(50/29)"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["manifold"] == "L(50,19)"
    assert row["determinant"] == 50 == row["h1_order"]
    code, out, _ = _run(capsys, ["cover", "mont(-1; 1/2, 1/3, 1/5)"])
    row = json.loads(out)["results"][0]
    from dehncalc.cover import double_branched_cover
    from dehncalc.parsing import parse_link_expr
    expected = double_branched_cover(parse_link_expr(row["link"]))
    assert parse_manifold_expr(row["manifold"]) == expected
    assert row["h1_order"] == 1


def test_cable_verb(capsys):
    code, out, _ = _run(capsys, ["cable", "--s", "1", "--t", "2",
                                 "--gamma", "0", "0"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["manifold"] == "L(2,1) # ST"
    assert row["distance_from_cabling"] == 0
    code, out, _ = _run(capsys, ["cable", "--s", "1", "--t", "2",
                                 "--gamma", "0", "3"])
    row = json.loads(out)["results"][0]
    assert row["extension"] is True
    assert row["pushforward_distance"] == 6


def test_family_list_verb(capsys):
    code, out, _ = _run(capsys, ["family-list"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 10
    assert rows[0]["name"] == "cyclic"


def test_family_fill_verb(capsys):
    code, out, _ = _run(capsys, ["family-fill", "cyclic", "inf",
                                 "--p", "2", "--q", "4"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["manifold"] == "L(50,19)"
    assert row["params"] == "p=2,q=4"


def test_family_fill_outputs_all_reparse(capsys):
    smallest = {"cyclic": ["--p", "2", "--q", "4"],
                "ew_prior": ["--p", "2"],
                "bz_w6": [],
                "dihedral": ["--p", "3", "--q", "3"],
                "dihedral_aux_Np": ["--p", "3"],
                "tetrahedral": [],
                "octahedral": ["--p", "3"],
                "octahedral_aux_Np": ["--p", "3"],
                "icosahedral_lee": ["--p", "3", "--q", "-1"],
                "icosahedral_second": []}
    from dehncalc.families import evaluate_filling
    params_of = {"cyclic": {"p": 2, "q": 4}, "ew_prior": {"p": 2},
                 "bz_w6": {}, "dihedral": {"p": 3, "q": 3},
                 "dihedral_aux_Np": {"p": 3}, "tetrahedral": {},
                 "octahedral": {"p": 3}, "octahedral_aux_Np": {"p": 3},
                 "icosahedral_lee": {"p": 3, "q": -1}, "icosahedral_second": {}}
    for spec in family_catalog():
        for claim in spec.claims:
            argv = ["family-fill", spec.name, format_slope(claim.slope)]
            argv += smallest[spec.name]
            code, out, _ = _run(capsys, argv)
            assert code == 0, (spec.name, out)
            text = json.loads(out)["results"][0]["manifold"]
            expected = evaluate_filling(spec.name, params_of[spec.name],
                                        claim.slope)
            assert parse_manifold_expr(text) == expected


def test_family_verify_verb(capsys):
    code, out, _ = _run(capsys, ["family-verify", "cyclic",
                                 "--p", "2", "--q", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert all(row["status"] == "pass" for row in payload["results"])


def test_family_verify_range(capsys):
    code, out, _ = _run(capsys, ["family-verify", "icosahedral_lee",
                                 "--p", "-4..-2", "--q", "-1"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert {row["params"] for row in rows} == {"p=-4,q=-1", "p=-3,q=-1"}


def test_family_sweep_tsv_rows(capsys):
    code, out, _ = _run(capsys, ["family-sweep", "cyclic",
                                 "--p", "2..4", "--q", "4..6",
                                 "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version\t1"
    assert lines[3].split("\t") == ["family", "params", "status", "passed",
                                    "failed", "indeterminate"]
    assert len(lines) == 4 + 9  # one row per parameter point


def test_oracle_verb(capsys):
    code, out, _ = _run(capsys, ["oracle", "b(7/3)", "--sample", "5",
                                 "--seed", "11"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 6
    assert all(row["match"] for row in rows)


def test_oracle_batch_file(tmp_path, capsys):
    batch = tmp_path / "links.txt"
    batch.write_text("b(9/2)\n# comment\n\nmont(-1; 1/2, 1/3, 1/5)\n")
    code, out, _ = _run(capsys, ["oracle", "--batch", str(batch)])
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["link"] for row in rows] == ["b(9/2)", "mont(-1; 1/2, 1/3, 1/5)"]


# ---------------------------------------------------------------------------
# Determinism and exit codes


def test_byte_determinism_same_invocation(capsys):
    _, out1, _ = _run(capsys, ["family-sweep", "cyclic", "--p", "2..6",
                               "--q", "4..8", "--format", "tsv"])
    _, out2, _ = _run(capsys, ["family-sweep", "cyclic", "--p", "2..6",
                               "--q", "4..8", "--format", "tsv"])
    assert out1 == out2
    _, j1, _ = _run(capsys, ["oracle", "--sample", "8", "--seed", "3"])
    _, j2, _ = _run(capsys, ["oracle", "--sample", "8", "--seed", "3"])
    assert j1 == j2


def test_usage_errors_exit_two(capsys):
    for argv in (["nonesuch"],
                 ["distance", "0"],
                 ["distance", "a", "b"],
                 ["classify", "L(4,2)"],
                 ["classify", "L(3,"],
                 ["family-fill", "nonesuch", "0", "--p", "2"],
                 ["family-verify", "cyclic", "--p", "2"],
                 ["family-verify", "cyclic", "--p", "2", "--q", "3"],
                 ["family-verify", "bz_w6", "--p", "2"],
                 ["family-fill", "cyclic", "7", "--p", "2", "--q", "4"],
                 ["cable", "--s", "2", "--t", "4", "--gamma", "0", "0"],
                 ["oracle"],
                 ["oracle", "unknot"],
                 ["oracle", "--batch", "/nonexistent/file"],
                 ["family-sweep", "cyclic", "--p", "5..2", "--q", "4"]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
