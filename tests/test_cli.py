import json
import re
import sys

import pytest

from dehncalc import diagrams
from dehncalc.cli import _build_parser, main
from dehncalc.families import family_catalog
from dehncalc.manifolds import Lens, connected_sum
from dehncalc.parsing import parse_manifold_expr
from dehncalc.reports import (Report, SCHEMA_VERSION, Status, combine_status,
                              emit_report, exit_code)
from dehncalc.slopes import format_slope


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Report layer


def test_emit_json_stable_key_order():
    a = Report("cmd", Status.PASS, ({"b": 1, "a": 2},))
    b = Report("cmd", Status.PASS, ({"a": 2, "b": 1},))
    assert emit_report(a, "json") == emit_report(b, "json")
    payload = json.loads(emit_report(a, "json"))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["status"] == "ok"
    assert payload["results"] == [{"a": 2, "b": 1}]


def test_emit_tsv_layout():
    rep = Report("cmd", Status.PASS,
                 ({"x": 1, "y": None, "z": True}, {"x": 2, "y": "s", "z": False},
                  {"w": 3, "x": 4}))
    lines = emit_report(rep, "tsv").splitlines()
    assert lines[0] == "# schema_version\t1"
    assert lines[1] == "# command\tcmd"
    assert lines[2] == "# status\tok"
    assert lines[3] == "x\ty\tz\tw"
    assert lines[4] == "1\t\ttrue\t"
    assert lines[5] == "2\ts\tfalse\t"
    assert lines[6] == "4\t\t\t3"


def test_exit_code_partition():
    assert exit_code(Status.PASS) == 0
    assert exit_code(Status.FAIL) == 1
    assert exit_code(Status.INDETERMINATE) == 3
    assert combine_status([Status.PASS, Status.PASS]) is Status.PASS
    assert combine_status([Status.PASS, Status.INDETERMINATE]) is \
        Status.INDETERMINATE
    assert combine_status([Status.INDETERMINATE, Status.FAIL]) is Status.FAIL
    assert combine_status([]) is Status.PASS
    with pytest.raises(ValueError):
        combine_status([Status.PASS, "ok"])
    with pytest.raises(TypeError):
        Report("cmd", "ok", ())
    for status, word in ((Status.PASS, "ok"), (Status.FAIL, "fail"),
                         (Status.INDETERMINATE, "indeterminate")):
        rep = Report("cmd", status, ({"x": 1},))
        assert json.loads(emit_report(rep, "json"))["status"] == word
        assert emit_report(rep, "tsv").splitlines()[2] == f"# status\t{word}"


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
    # s is echoed in its normal form, up to sign mod t.
    code, out, _ = _run(capsys, ["cable", "--s", "3", "--t", "2",
                                 "--gamma", "0", "0"])
    row = json.loads(out)["results"][0]
    assert (row["s"], row["t"]) == (1, 2)
    # Only a distance of 2 or more from the cabling slope is an extension.
    for r, d in (("1", 0), ("0", 1), ("3", 2), ("4", 3)):
        code, out, _ = _run(capsys, ["cable", "--s", "2", "--t", "3",
                                     "--gamma", "1", r])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["distance_from_cabling"] == d
        assert row["extension"] is (d >= 2)
    assert row["manifold"] == "D2(3,3)"


def test_family_list_verb(capsys):
    code, out, _ = _run(capsys, ["family-list"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 10
    assert rows[0]["name"] == "cyclic"
    edges = {"ew_prior": "bz_w6", "dihedral_aux_Np": "dihedral@1/q",
             "octahedral_aux_Np": "octahedral@4"}
    assert {row["name"]: row["edges"] for row in rows} == {
        row["name"]: edges.get(row["name"], "") for row in rows}


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


_TSV_HEADERS = [
    (["distance", "0", "inf"], "r1\tr2\tdistance"),
    (["classify", "L(6,5)"], "manifold\tfinite_type\th1_order"),
    (["cover", "b(7/3)"],
     "link\tmanifold\tdeterminant\th1_order\th1_free_rank"),
    (["cable", "--s", "1", "--t", "2", "--gamma", "0", "3"],
     "s\tt\tcabling_slope\tr\tdistance_from_cabling\tpushforward_distance"
     "\tmanifold\textension"),
    (["family-list"],
     "name\tparams\tdomain\tclaims\tdesignated_pair\tedges\tdescription"),
    (["family-fill", "ew_prior", "0", "--p", "2..3"],
     "family\tparams\tslope\tformula\tmanifold"),
    (["family-verify", "bz_w6"],
     "family\tparams\tcheck\tdetail\tstatus\tobserved"),
    (["family-sweep", "octahedral", "--p", "3..4"],
     "family\tparams\tstatus\tpassed\tfailed\tindeterminate"),
    (["oracle", "b(7/3)", "mont(-1; 1/2, 1/3, 1/5)"],
     "link\tcrossings\tgoeritz\tformula\th1_order\tmatch"),
]


@pytest.mark.parametrize("argv, header", _TSV_HEADERS,
                         ids=[argv[0] for argv, _ in _TSV_HEADERS])
def test_tsv_header_per_verb(capsys, argv, header):
    code, out, _ = _run(capsys, argv + ["--format", "tsv"])
    assert code == 0
    assert out.splitlines()[3] == header


def test_oracle_verb(capsys):
    code, out, _ = _run(capsys, ["oracle", "b(7/3)", "--sample", "5",
                                 "--seed", "11"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 6
    assert all(row["match"] for row in rows)
    # --seed defaults to 0.
    _, default, _ = _run(capsys, ["oracle", "--sample", "3"])
    _, seeded, _ = _run(capsys, ["oracle", "--sample", "3", "--seed", "0"])
    _, other, _ = _run(capsys, ["oracle", "--sample", "3", "--seed", "1"])
    results = [json.loads(out)["results"] for out in (default, seeded, other)]
    assert len(results[0]) == 3
    assert results[0] == results[1] != results[2]


def test_oracle_negative_sample_is_a_usage_error(capsys):
    for argv, text in ((["oracle", "b(7/3)", "--sample", "-5"], "-5"),
                       (["oracle", "--sample", "-1", "--format", "tsv"], "-1")):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == ("usage error: argument --sample: expected a count "
                       f">= 0, got {text!r}\n")
    code, out, _ = _run(capsys, ["oracle", "b(7/3)", "--sample", "0"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 1


def test_oracle_without_a_standard_diagram_exits_two(capsys):
    for expr, part in (("unknot", "unknot"), ("unlink(3)", "unlink(3)"),
                       ("b(3/1) + unlink(2)", "unlink(2)")):
        code, out, err = _run(capsys, ["oracle", expr])
        assert (code, out) == (2, "")
        assert err == (f"error: no standard diagram for {part}; the oracle "
                       "draws 2-bridge and Montesinos parts only\n")


def test_result_integer_past_the_digit_limit_exits_two(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7+
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    # |H1| of the cover of mont(1; 1/2, ..., 1/2) exceeds 2^branches,
    # which has more than `limit` digits.
    link = "mont(1; " + ", ".join(["1/2"] * (limit * 10 // 3)) + ")"
    for verb in ("cover", "oracle"):
        for fmt in ("tsv", "json"):
            code, out, err = _run(capsys, [verb, link, "--format", fmt])
            assert (code, out) == (2, ""), (verb, fmt)
            assert err == (
                f"error: an integer in the result has more than {limit} "
                "digits, the interpreter's limit for integer text; set the "
                "environment variable PYTHONINTMAXSTRDIGITS=0 to lift it\n")


# A fault planted on either side of the oracle: the cover with an extra
# L(2,1) summand (twice the order), or the Goeritz determinant off by one.
PLANTED_ORACLE_FAULTS = [
    ("double_branched_cover",
     lambda cover: lambda l: connected_sum(cover(l), Lens(2, 1))),
    ("goeritz_determinant", lambda det: lambda m: det(m) + 1),
]


@pytest.mark.parametrize("name, fault", PLANTED_ORACLE_FAULTS,
                         ids=["cover", "goeritz"])
def test_oracle_mismatch_exits_one(monkeypatch, capsys, name, fault):
    monkeypatch.setattr(diagrams, name, fault(getattr(diagrams, name)))
    code, out, _ = _run(capsys, ["oracle", "b(7/3)"])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["results"][0]["match"] is False


def test_oracle_batch_file(tmp_path, capsys):
    batch = tmp_path / "links.txt"
    batch.write_text("b(9/2)\n# comment\n\nmont(-1; 1/2, 1/3, 1/5)\n")
    code, out, _ = _run(capsys, ["oracle", "--batch", str(batch)])
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["link"] for row in rows] == ["b(9/2)", "mont(-1; 1/2, 1/3, 1/5)"]


def test_oracle_batch_file_with_byte_order_mark(tmp_path, capsys):
    batch = tmp_path / "links.txt"
    batch.write_bytes(b"\xef\xbb\xbfb(9/2)\r\n# comment\r\nb(3/1) + b(4/1)\r\n")
    code, out, err = _run(capsys, ["oracle", "--batch", str(batch),
                                   "--format", "tsv"])
    assert (code, err) == (0, "")
    assert [row.split("\t")[0] for row in out.splitlines()[4:]] == \
        ["b(9/2)", "b(3/1) + b(4/1)"]


def test_oracle_batch_parse_error_names_its_line(tmp_path, capsys):
    batch = tmp_path / "links.txt"
    # Line 3 is faulty and line 5 too: the first faulty line is reported,
    # and its position counts the line's leading blanks.
    batch.write_text("# comment\n\n  b(7/3) + $\nb(9/2)\nb(\n")
    code, out, err = _run(capsys, ["oracle", "b(5/2)", "--batch", str(batch)])
    assert (code, out) == (2, "")
    assert err == f"error: {batch} line 3: unexpected character '$' " \
                  "(at position 11)\n"
    batch.write_text("b(7/3)\n\tmont(1 1/2)")
    code, out, err = _run(capsys, ["oracle", "--batch", str(batch)])
    assert (code, out) == (2, "")
    assert err == f"error: {batch} line 2: expected ';', got '1' " \
                  "(at position 8)\n"
    # A grammatical but ill-formed link names its line too.
    batch.write_text("b(7/3)\nmont(0; 1/2, 1/3)\n")
    code, out, err = _run(capsys, ["oracle", "--batch", str(batch)])
    assert (code, out) == (2, "")
    assert err == f"error: {batch} line 2: montesinos needs >= 3 branches; " \
                  "with fewer the link is 2-bridge\n"


def test_oracle_batch_bad_byte_names_its_line(tmp_path, capsys):
    # The bad byte is at file offset 21,006, far into the file: its error
    # names its line, and its position counts in that line.
    batch = tmp_path / "links.txt"
    batch.write_bytes(b"b(7/3)\n" * 3000 + b"b(9/2)\xff\n")
    code, out, err = _run(capsys, ["oracle", "--batch", str(batch)])
    assert (code, out) == (2, "")
    assert err == f"error: {batch} line 3001: 'utf-8' codec can't decode " \
                  "byte 0xff in position 6: invalid start byte\n"


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
                 ["family-sweep", "cyclic", "--p", "5..2", "--q", "4"],
                 ["family-sweep", "cyclic", "--p", "2", "--q", "3"],
                 ["family-verify", "cyclic", "--p", "3\n", "--q", "4"],
                 ["family-verify", "cyclic", "--p", "3\n", "--q", "4",
                  "--format", "tsv"],
                 ["cable", "--s", "9" * 4301, "--t", "2", "--gamma", "1", "0"],
                 ["family-verify", "cyclic", "--p", "9" * 4301, "--q", "4"]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err


def test_overlong_integer_option_names_its_length(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7+
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    long = "9" * (limit + 1)
    # int() accepts "_" between digits and does not count it as a digit.
    grouped = "_".join("1" * (limit + 1))
    for argv, prefix, echo in (
            (["cable", "--s", long, "--t", "2", "--gamma", "1", "0"],
             "usage error: argument --s: ", "9" * 8),
            (["oracle", "--sample", "1", "--seed", f"-{long}"],
             "usage error: argument --seed: ", "-" + "9" * 8),
            (["family-verify", "cyclic", "--p", long, "--q", "4"],
             "usage error: ", "9" * 8),
            (["family-sweep", "cyclic", "--p", "2", "--q", f"4..{long}"],
             "usage error: ", "9" * 8),
            (["cable", "--s", grouped, "--t", "2", "--gamma", "1", "0"],
             "usage error: argument --s: ", "1" * 8),
            (["distance", grouped, "0"], "error: bad slope: ", "1" * 8)):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (f"{prefix}integer {echo}... has {limit + 1} digits, "
                       f"more than the limit of {limit}\n")
        # Only 8 digits of the token are echoed.
        assert echo + echo[-1] not in err and "1_1" not in err


def test_integer_options_keep_int_rules(capsys):
    for text, value in (("+2", 2), (" 2", 2), ("2_0", 20)):
        code, out, _ = _run(capsys, ["cable", "--s", "1", "--t", text,
                                     "--gamma", "0", "1/2"])
        assert code == 0
        assert json.loads(out)["results"][0]["t"] == value
    code, out, err = _run(capsys, ["cable", "--s", "two", "--t", "2",
                                   "--gamma", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "usage error: argument --s: invalid int value: 'two'\n"


def test_first_of_several_faults_is_reported(capsys):
    known = ", ".join(spec.name for spec in family_catalog())
    for argv, message in (
            (["family-sweep", "nonesuch", "--p", "5..2", "--q", "4"],
             f"error: unknown family 'nonesuch' (known: {known})"),
            (["family-fill", "cyclic", "x", "--p", "1", "--q", "4"],
             "error: bad slope 'x': invalid literal for int() with base 10: "
             "'x'"),
            (["family-fill", "cyclic", "7", "--p", "1", "--q", "4"],
             "error: family cyclic has no claim at slope 7 (claimed slopes: "
             "0, inf, -1)"),
            (["family-fill", "cyclic", "x", "--p", "5..2", "--q", "4"],
             "usage error: empty range '5..2'"),
            (["family-sweep", "cyclic", "--p", "5..2"],
             "usage error: empty range '5..2'"),
            (["family-sweep", "cyclic", "--p", "x", "--q", "4..2"],
             "usage error: expected N or A..B, got 'x'")):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", message + "\n"), argv


def test_deep_nesting_exits_two(capsys):
    depth = 300
    text = "U[" * depth + "ST" + ", ST]" * depth
    code, out, err = _run(capsys, ["classify", text])
    assert (code, out, err) == (2, "", "error: expression nested too deeply\n")


def test_cached_parser_keeps_no_state(capsys):
    sequence = (["oracle", "--sample", "2", "--seed", "5"],
                ["oracle", "--sample", "two"],
                ["oracle", "--sample", "2"],
                ["family-list", "--format", "tsv"],
                ["family-list"])
    in_one_process = [_run(capsys, argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert in_one_process == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]
    assert fresh[0][1] != fresh[2][1]
    assert fresh[3][1] != fresh[4][1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_help_gives_every_verb_a_summary(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    verbs = re.search(r"\{([\w,-]+)\}", out).group(1).split(",")
    summaries = dict(re.findall(r"^    ([\w-]+) +(\S.*)$", out, re.M))
    assert list(summaries) == verbs


def test_grid_rows_start_at_the_first_in_domain_point(capsys):
    # The empty-grid check reads the first in-domain point (p=2, q=4);
    # the rows still start there, with no point lost or repeated.
    points = ["p=2,q=4", "p=3,q=4"]
    for argv, params in ((["family-sweep", "cyclic"], points),
                         (["family-fill", "cyclic", "0"], points),
                         (["family-verify", "cyclic"],
                          [p for p in points for _ in range(5)])):
        code, out, _ = _run(capsys, argv + ["--p", "0..3", "--q", "3..4"])
        assert code == 0
        assert [row["params"] for row in json.loads(out)["results"]] == params


@pytest.mark.parametrize("char, escaped", [("\t", "\\t"), ("\n", "\\n")])
def test_unrepresentable_tsv_echo_exits_two(capsys, char, escaped):
    argv = ["classify", f"L(3,1){char}"]
    code, out, err = _run(capsys, argv + ["--format", "tsv"])
    assert (code, out) == (2, "")
    assert err == ("error: value not representable in TSV: "
                   f"{f'dehncalc classify L(3,1){char} --format tsv'!r}\n")
    # JSON escapes both characters, so the same echo is fine there.
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert out == (
        '{\n'
        f'  "command": "dehncalc classify L(3,1){escaped} --format json",\n'
        '  "results": [\n'
        '    {\n'
        '      "finite_type": "cyclic",\n'
        '      "h1_order": 3,\n'
        '      "manifold": "L(3,1)"\n'
        '    }\n'
        '  ],\n'
        '  "schema_version": "1",\n'
        '  "status": "ok"\n'
        '}\n')
