"""Differential test of the report emitter against reference renderings.

The references are the straightforward ones: ``json.dumps`` with
``indent=2`` for JSON, and a per-cell join for TSV."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehncalc.reports import SCHEMA_VERSION, Report, Status, emit_report


def _reference_json(report: Report) -> str:
    status = "ok" if report.status is Status.PASS else report.status.value
    payload = {"schema_version": SCHEMA_VERSION, "command": report.command,
               "status": status, "results": list(report.results)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "\t" in text or "\n" in text:
        raise ValueError(f"value not representable in TSV: {value!r}")
    return text


def _reference_tsv(report: Report) -> str:
    status = "ok" if report.status is Status.PASS else report.status.value
    columns = list(dict.fromkeys(key for row in report.results for key in row))
    lines = [f"# schema_version\t{SCHEMA_VERSION}",
             f"# command\t{_cell(report.command)}",
             f"# status\t{status}",
             "\t".join(columns)]
    for row in report.results:
        lines.append("\t".join(_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


# Text that stresses escaping and the row layout: quotes, backslashes,
# control characters, braces and the separators themselves, non-ASCII.
_text = st.lists(st.one_of(
    st.sampled_from(['"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "{", "}",
                     "[", "]", ",", ":", " ", "},\n      {", "é", "→", "𝔽"]),
    st.characters(blacklist_categories=("Cs",)),
), max_size=8).map("".join)
_values = st.one_of(st.none(), st.booleans(), _text,
                    st.integers(), st.integers(-10**80, 10**80))
_rows = st.lists(st.dictionaries(_text, _values, max_size=5), max_size=6)


def _outcome(render, report):
    try:
        return render(report)
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None, database=None)
@given(_text, st.sampled_from(list(Status)), _rows)
def test_emitter_matches_references(command, status, rows):
    report = Report(command, status, tuple(rows))
    assert emit_report(report, "json") == _reference_json(report)
    assert _outcome(lambda r: emit_report(r, "tsv"), report) == \
        _outcome(_reference_tsv, report)


@pytest.mark.parametrize("nested", [[1, 2], (1,), {"a": 1}, [], {}, 1.5])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emitter_rejects_nested_values(nested, fmt):
    report = Report("cmd", Status.PASS, ({"a": 1}, {"a": 2, "b": nested}))
    with pytest.raises(ValueError, match="not representable"):
        emit_report(report, fmt)


def test_emitter_edge_layouts():
    for rows in ((), ({},), ({}, {}), ({}, {"a": 1}, {})):
        report = Report("cmd", Status.FAIL, rows)
        assert emit_report(report, "json") == _reference_json(report)
        assert emit_report(report, "tsv") == _reference_tsv(report)


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "\t", "\n"])
@pytest.mark.parametrize("first", [
    {"x": "1", "y": "2"}, {"x": 1, "y": None}, {"x": "1"}, {"y": "2"},
], ids=["str", "non-str", "short", "one-column"])
def test_tsv_names_a_tab_or_newline_in_the_last_row(first, bad):
    rows = (first, first, {**dict.fromkeys(first, "1"), "y": bad})
    with pytest.raises(ValueError) as err:
        emit_report(Report("cmd", Status.PASS, rows), "tsv")
    assert str(err.value) == f"value not representable in TSV: {bad!r}"


@pytest.mark.parametrize("rows", [(), ({"a": "1", "b": "2"},)])
def test_tsv_names_a_tab_in_the_command(rows):
    with pytest.raises(ValueError) as err:
        emit_report(Report("dehncalc\tdistance", Status.PASS, rows), "tsv")
    assert str(err.value) == \
        "value not representable in TSV: 'dehncalc\\tdistance'"


def test_report_checks_its_status_and_is_immutable():
    rows = ({"a": 1},)
    report = Report("cmd", Status.FAIL, rows)
    assert (report.command, report.status, report.results) == \
        ("cmd", Status.FAIL, rows)
    for status in ("fail", None, 1):
        with pytest.raises(TypeError, match="report status must be a Status"):
            Report("cmd", status, rows)
    for change in (lambda: setattr(report, "status", Status.PASS),
                   lambda: setattr(report, "extra", 1),
                   lambda: delattr(report, "results")):
        with pytest.raises(AttributeError):
            change()
    assert (report.command, report.status, report.results) == \
        ("cmd", Status.FAIL, rows)
