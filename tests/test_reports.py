"""Differential tests of the row writer and the report emitter against
reference renderings.

The references are the straightforward ones: ``json.dumps`` with
``indent=2`` for JSON, and a per-cell join for TSV."""

import json
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehncalc.reports import (FORMATS, SCHEMA_VERSION, RowWriter, Status,
                              combine_status, emit_report)


def _reference_json(command, word, columns, rows) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "status": word,
               "results": [dict(zip(columns, cells)) for cells in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _reference_tsv(command, word, columns, rows):
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


def _writer(command, fmt, columns, rows, statuses=repeat(Status.PASS)):
    writer = RowWriter(command, fmt, columns)
    for cells, status in zip(rows, statuses):
        writer.add(cells, status)
    return writer


class _Text(str):
    """A str subclass, as a library caller may hold one."""


# Text that stresses escaping and the row layout: quotes, backslashes,
# control characters, braces and the separators themselves, non-ASCII.
_text = st.lists(st.one_of(
    st.sampled_from(['"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "{", "}",
                     "[", "]", ",", ":", " ", "},\n      {", "é", "→", "𝔽"]),
    st.characters(blacklist_categories=("Cs",)),
), max_size=8).map("".join)
_values = st.one_of(st.none(), st.booleans(), _text,
                    st.integers(), st.integers(-10**80, 10**80))


@pytest.mark.parametrize("nested", [[1, 2], (1,), {"a": 1}, [], {}, 1.5])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emitter_rejects_nested_values(nested, fmt):
    with pytest.raises(ValueError, match="not representable"):
        _writer("cmd", fmt, ("a", "b"), ((1, None), (2, nested)))


def test_emitter_edge_layouts():
    for columns, rows in (((), ()), ((), ((),)), ((), ((), ())),
                          (("a",), ((None,), (1,), (None,)))):
        for fmt, reference in (("json", _reference_json),
                               ("tsv", _reference_tsv)):
            writer = _writer("cmd", fmt, columns, rows)
            writer.status = Status.FAIL
            assert emit_report(writer) == \
                reference("cmd", "fail", columns, rows)


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "\t", "\n"])
@pytest.mark.parametrize("first", [
    {"x": "1", "y": "2"}, {"x": 1, "y": None}, {"x": "1"}, {"y": "2"},
], ids=["str", "non-str", "short", "one-column"])
def test_tsv_names_a_tab_or_newline_in_the_last_row(first, bad):
    last = {**dict.fromkeys(first, "1"), "y": bad}
    columns = tuple(last)
    rows = [tuple(map(row.get, columns)) for row in (first, first, last)]
    with pytest.raises(ValueError) as err:
        _writer("cmd", "tsv", columns, rows)
    assert str(err.value) == f"value not representable in TSV: {bad!r}"


@pytest.mark.parametrize("rows", [(), ({"a": "1", "b": "2"},)])
def test_tsv_names_a_tab_in_the_command(rows):
    columns = tuple(rows[0]) if rows else ()
    writer = _writer("dehncalc\tdistance", "tsv", columns,
                     [tuple(row.values()) for row in rows])
    with pytest.raises(ValueError) as err:
        emit_report(writer)
    assert str(err.value) == \
        "value not representable in TSV: 'dehncalc\\tdistance'"


@pytest.mark.parametrize("bad", ["a\tb", "a\nb"])
def test_tsv_names_a_tab_or_newline_in_a_column_name(bad):
    for columns in ((bad,), ("x", bad)):
        with pytest.raises(ValueError) as err:
            RowWriter("cmd", "tsv", columns)
        assert str(err.value) == f"value not representable in TSV: {bad!r}"
    # JSON escapes both, as in a cell.
    assert emit_report(_writer("cmd", "json", (bad,), ((1,),))) == \
        _reference_json("cmd", "ok", (bad,), ((1,),))


@pytest.mark.parametrize("bad", [1, None, ("a",)])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_column_name_that_is_not_a_str_is_named(bad, fmt):
    for columns in ((bad,), ("a", bad)):
        with pytest.raises(ValueError) as err:
            RowWriter("c", fmt, columns)
        assert str(err.value) == f"column name not representable: {bad!r}"
    # A str subclass is a str, as json.dumps takes it.
    assert emit_report(_writer("c", fmt, (_Text("b"),), ((1,),))) == \
        emit_report(_writer("c", fmt, ("b",), ((1,),)))


def _written(command, fmt, columns, rows, statuses):
    """The writer's output and its status, or the ValueError it raises."""
    try:
        writer = _writer(command, fmt, columns, rows, statuses)
        return emit_report(writer), writer.status
    except ValueError as exc:
        return exc.args, None


@settings(max_examples=300, deadline=None, database=None)
@given(_text, st.data())
def test_writer_matches_the_standard_library(command, data):
    columns = tuple(data.draw(st.lists(_text, unique=True, max_size=5)))
    rows = data.draw(st.lists(st.tuples(*[_values] * len(columns)), max_size=6))
    statuses = data.draw(st.lists(st.sampled_from(list(Status)),
                                  min_size=len(rows), max_size=len(rows)))
    status = combine_status(statuses)
    word = "ok" if status is Status.PASS else status.value
    assert _written(command, "json", columns, rows, statuses) == \
        (_reference_json(command, word, columns, rows), status)
    text, seen = _written(command, "tsv", columns, rows, statuses)
    assert text == _reference_tsv(command, word, columns, rows)
    if type(text) is str:
        assert seen is status


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
            emit_report(RowWriter(_Text("c\nd"), fmt, ()))
    for cells in ((), ("x",), ("x", 1, 2)):
        with pytest.raises(ValueError, match=f"{len(cells)} cells for 2 columns"):
            writer.add(cells)
    with pytest.raises(ValueError, match="unknown status 'fail'"):
        writer.add(("y", 2), "fail")
    assert len(writer.rows) == 1 and writer.status is Status.PASS
    with pytest.raises(ValueError, match="unknown format"):
        RowWriter("cmd", "xml", ("a",))
