"""Differential tests of the report emitter and the row writer against
reference renderings.

The references are the straightforward ones: ``json.dumps`` with
``indent=2`` for JSON, and a per-cell join for TSV."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehncalc.reports import (FORMATS, SCHEMA_VERSION, Report, RowWriter,
                              Status, combine_status, emit_report)


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
             "\t".join(map(_cell, columns))]
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


@pytest.mark.parametrize("bad", ["a\tb", "a\nb"])
def test_tsv_names_a_tab_or_newline_in_a_column_name(bad):
    with pytest.raises(ValueError) as err:
        emit_report(Report("cmd", Status.PASS, ({bad: 1},)), "tsv")
    assert str(err.value) == f"value not representable in TSV: {bad!r}"
    with pytest.raises(ValueError) as err:
        RowWriter("cmd", "tsv", ("x", bad))
    assert str(err.value) == f"value not representable in TSV: {bad!r}"
    # JSON escapes both, as in a cell.
    assert emit_report(Report("cmd", Status.PASS, ({bad: 1},)), "json") == \
        _reference_json(Report("cmd", Status.PASS, ({bad: 1},)))


@pytest.mark.parametrize("bad", [1, None, ("a",)])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_column_name_that_is_not_a_str_is_named(bad, fmt):
    with pytest.raises(ValueError) as err:
        emit_report(Report("c", Status.PASS, ({"a": 1, bad: "x"},)), fmt)
    assert str(err.value) == f"column name not representable: {bad!r}"
    with pytest.raises(ValueError) as err:
        RowWriter("c", fmt, ("a", bad))
    assert str(err.value) == f"column name not representable: {bad!r}"
    # A str subclass is a str, as json.dumps takes it.
    name = _Text("b")
    assert emit_report(Report("c", Status.PASS, ({name: 1},)), fmt) == \
        emit_report(Report("c", Status.PASS, ({"b": 1},)), fmt)


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


def _written(command, fmt, columns, rows, statuses):
    """The writer's output and its status, or the ValueError it raises."""
    try:
        writer = RowWriter(command, fmt, columns)
        for cells, status in zip(rows, statuses):
            writer.add(cells, status)
        return emit_report(writer, fmt), writer.status
    except ValueError as exc:
        return exc.args, None


def _reference_rows_tsv(command, columns, rows, word):
    """TSV as documented: the first tab or newline in a column name, then
    in a cell row by row, then in the command, is named in the error."""
    for cells in (columns, *rows, ("", command)):
        bad = [c for c in cells if type(c) is str and ("\t" in c or "\n" in c)]
        if bad:
            return (f"value not representable in TSV: {bad[0]!r}",)
    lines = [f"# schema_version\t{SCHEMA_VERSION}", f"# command\t{command}",
             f"# status\t{word}", "\t".join(columns)]
    lines += ["\t".join(map(_cell, cells)) for cells in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, database=None)
@given(_text, st.data())
def test_writer_matches_the_standard_library(command, data):
    columns = tuple(data.draw(st.lists(_text, unique=True, max_size=5)))
    rows = data.draw(st.lists(st.tuples(*[_values] * len(columns)), max_size=6))
    statuses = data.draw(st.lists(st.sampled_from(list(Status)),
                                  min_size=len(rows), max_size=len(rows)))
    status = combine_status(statuses)
    word = "ok" if status is Status.PASS else status.value
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "status": word,
               "results": [dict(zip(columns, cells)) for cells in rows]}
    assert _written(command, "json", columns, rows, statuses) == \
        (json.dumps(payload, sort_keys=True, indent=2) + "\n", status)
    text, seen = _written(command, "tsv", columns, rows, statuses)
    assert text == _reference_rows_tsv(command, columns, rows, word)
    if type(text) is str:
        assert seen is status


class _Text(str):
    """A str subclass, as a library caller may hold one."""


@pytest.mark.parametrize("nested", [[1, 2], (1,), {"a": 1}, 1.5, b"a"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_writer_rejects_nested_values_and_wrong_widths(nested, fmt):
    writer = RowWriter("cmd", fmt, ("a", "b"))
    writer.add(("x", 1))
    with pytest.raises(ValueError, match="not representable"):
        writer.add(("y", nested))
    # A str subclass is refused in JSON, and named by its tab in TSV.
    with pytest.raises(ValueError, match=r"not representable.*'a\\tb'"):
        writer.add(("y", _Text("a\tb")))
    if fmt == "tsv":
        with pytest.raises(ValueError, match=r"not representable in TSV: 'c\\nd'"):
            emit_report(Report(_Text("c\nd"), Status.PASS, ()), fmt)
    for cells in ((), ("x",), ("x", 1, 2)):
        with pytest.raises(ValueError, match=f"{len(cells)} cells for 2 columns"):
            writer.add(cells)
    assert len(writer.rows) == 1
    with pytest.raises(ValueError, match="unknown format"):
        RowWriter("cmd", "xml", ("a",))
    with pytest.raises(ValueError, match="emitted as"):
        emit_report(writer, "tsv" if fmt == "json" else "json")
