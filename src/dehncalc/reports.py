"""Machine-readable report emission (JSON and TSV).

Every command produces one Report: an echo of the command line, an
overall status, and a list of flat result records.  Emission is
deterministic byte for byte: JSON uses sorted keys and fixed
indentation, TSV orders columns as the keys of the rows first appear,
and both carry the mandatory schema_version.

TSV layout: three leading comment lines ("# schema_version", "# command"
and "# status", each with a tab-separated value), then a header row
naming the columns, then one row per result record.  Empty cells stand
for missing/null values; booleans are "true"/"false".
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

SCHEMA_VERSION = "1"

FORMATS = ("json", "tsv")


class Status(Enum):
    """Outcome of a check, of a verification and of a whole command."""

    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


_EXIT_CODES = {Status.PASS: 0, Status.FAIL: 1, Status.INDETERMINATE: 3}

# The word of each status, read per row from a plain dict rather than
# through the enum's Python-level value property.
STATUS_WORDS = {status: status.value for status in Status}


class Report:
    """One command's outcome: echo, overall status, and result rows.

    Immutable; a plain class rather than a dataclass, so that the CLI
    core loads no dataclasses module at start-up."""

    def __init__(self, command: str, status: Status,
                 results: tuple[dict, ...]) -> None:
        if not isinstance(status, Status):
            raise TypeError(f"report status must be a Status, got {status!r}")
        self.__dict__.update(command=command, status=status, results=results)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Report is immutable; cannot change {name!r}")

    __delattr__ = __setattr__


def combine_status(statuses) -> Status:
    """The worst status: any fail wins, else any indeterminate, else pass."""
    passed, failed, unsure = Status.PASS, Status.FAIL, Status.INDETERMINATE
    worst = passed
    for status in statuses:
        if status is failed or (status is unsure and worst is passed):
            worst = status
        elif status is not passed and status is not unsure:
            raise ValueError(f"unknown status {status!r}")
    return worst


def exit_code(status: Status) -> int:
    """0 for pass, 1 for any failure, 3 for indeterminate-only outcomes."""
    return _EXIT_CODES[status]


# The rows of a JSON report, encoded in one call of the C encoder with
# the item separator of a row's keys under json.dumps(indent=2).  JSON
# escapes every control character, so the only newlines in its output are
# separators, and a flat row cannot hold the row break "},\n      {".
_encode_rows = json.JSONEncoder(sort_keys=True,
                                separators=(",\n      ", ": ")).encode
_ROW_BREAK = "},\n      {"
_FLAT = frozenset((str, int, bool, type(None)))


def _json_rows(rows: tuple[dict, ...]) -> str:
    """The "results" list as json.dumps(indent=2) lays it out in a report."""
    if not _FLAT.issuperset(map(type, chain.from_iterable(map(dict.values, rows)))):
        bad = next(v for row in rows for v in row.values() if type(v) not in _FLAT)
        raise ValueError(f"value not representable in a flat row: {bad!r}")
    if not rows:
        return "[]"
    rows_text = _encode_rows(rows)[2:-2].split(_ROW_BREAK)
    return "[\n    " + ",\n    ".join(
        "{\n      " + text + "\n    }" if text else "{}" for text in rows_text
    ) + "\n  ]"


def _tsv_text(value) -> str:
    """A cell that is not a str."""
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return str(value)
    raise ValueError(f"value not representable in TSV: {value!r}")


def _tsv_line(cells: list) -> str:
    line = "\t".join([c if type(c) is str else _tsv_text(c) for c in cells])
    # A tab inside a cell shows as a tab beyond the separators.
    if "\n" in line or line.count("\t") > max(len(cells) - 1, 0):
        bad = next(c for c in cells
                   if type(c) is str and ("\t" in c or "\n" in c))
        raise ValueError(f"value not representable in TSV: {bad!r}")
    return line


def _tsv_rows(rows: tuple[dict, ...], columns: list) -> str:
    """The row lines.  When every row holds every column as a str, each
    row is one join and the whole text is checked once, since a tab or
    newline in a cell shows beyond the separators; else, and to name
    such a cell, row by row."""
    if len(columns) > 1:  # itemgetter then gives a tuple of cells
        try:
            text = "\n".join(map("\t".join, map(itemgetter(*columns), rows)))
        except (KeyError, TypeError):  # a missing or a non-str cell
            pass
        else:
            if (text.count("\n") == len(rows) - 1
                    and text.count("\t") == len(rows) * (len(columns) - 1)):
                return text
    return "\n".join([_tsv_line(list(map(row.get, columns))) for row in rows])


def emit_report(report: Report, fmt: str) -> str:
    """Render a report as JSON or TSV text (newline-terminated).

    JSON is byte for byte json.dumps(payload, sort_keys=True, indent=2).
    Rows are flat records of str, int, bool and None; any other value,
    and a tab or newline in a TSV cell, raises ValueError."""
    status = "ok" if report.status is Status.PASS else STATUS_WORDS[report.status]
    if fmt == "json":
        return (f'{{\n  "command": {encode_basestring_ascii(report.command)},'
                f'\n  "results": {_json_rows(report.results)},'
                f'\n  "schema_version": "{SCHEMA_VERSION}",'
                f'\n  "status": "{status}"\n}}\n')
    if fmt == "tsv":
        columns = list(dict.fromkeys(chain.from_iterable(report.results)))
        lines = [
            f"# schema_version\t{SCHEMA_VERSION}",
            _tsv_line(["# command", report.command]),
            f"# status\t{status}",
            "\t".join(columns),
        ]
        if report.results:
            lines.append(_tsv_rows(report.results, columns))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
