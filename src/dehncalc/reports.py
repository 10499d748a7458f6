"""Machine-readable report emission (JSON and TSV).

Every command produces one report: an echo of the command line, an
overall status, and flat result rows, made by a RowWriter, which encodes
each row as it is added and keeps only its text (a library Report of
dict rows goes through the same encoder).  JSON is byte for byte
json.dumps(payload, sort_keys=True, indent=2).  TSV has three comment
lines ("# schema_version", "# command" and "# status", each with a
tab-separated value), a header row naming the columns (a Report's in the
order its rows' keys first appear), and one line per row; empty cells
stand for missing/null values, booleans are "true"/"false".
"""

from __future__ import annotations

import operator
import sys
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii

from .value import Value

SCHEMA_VERSION = "1"

FORMATS = ("json", "tsv")


class Status(Enum):
    """Outcome of a check, of a verification and of a whole command."""

    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"

    # Hashed by identity, in C: Enum's __hash__ is a Python-level call.
    __hash__ = object.__hash__


_EXIT_CODES = {Status.PASS: 0, Status.FAIL: 1, Status.INDETERMINATE: 3}

# Each status's word, from a plain dict: Enum's value is a Python property.
STATUS_WORDS = {status: status.value for status in Status}

# Read once: Status.PASS is a lookup through the enum's metaclass.
_PASS, _FAIL, _UNSURE = Status.PASS, Status.FAIL, Status.INDETERMINATE


class Report(Value):
    """One command's outcome: echo, overall status, and result rows."""

    def __init__(self, command: str, status: Status,
                 results: tuple[dict, ...]) -> None:
        if not isinstance(status, Status):
            raise TypeError(f"report status must be a Status, got {status!r}")
        self.__dict__.update(command=command, status=status, results=results)


def combine_status(statuses) -> Status:
    """The worst status: any fail wins, else any indeterminate, else pass."""
    worst = _PASS
    for status in statuses:
        if status is _FAIL or (status is _UNSURE and worst is _PASS):
            worst = status
        elif status is not _PASS and status is not _UNSURE:
            raise ValueError(f"unknown status {status!r}")
    return worst


def exit_code(status: Status) -> int:
    """0 for pass, 1 for any failure, 3 for indeterminate-only outcomes."""
    return _EXIT_CODES[status]


# The text of a cell of each flat type: a row is encoded by one map of
# C-level calls, with no Python call per cell (on Python 3.11 and later).
_call = getattr(operator, "call", lambda function, value: function(value))
_FLAT = (str, int, bool, type(None))
_BOOL = {True: "true", False: "false"}.__getitem__
_JSON_OF = {str: encode_basestring_ascii, int: int.__repr__, bool: _BOOL,
            type(None): {None: "null"}.__getitem__}.__getitem__
_TSV_OF = {str: str, int: int.__repr__, bool: _BOOL,
           type(None): {None: ""}.__getitem__}.__getitem__


class RowWriter:
    """A report made row by row: ``add`` encodes one row's cells, given in
    the order of ``columns``, keeps only its text, folds its status into
    ``status`` (the worst so far) and returns the writer.  A JSON row is
    one str.format of a template laid out once with sorted keys (JSON
    escapes every control character, so no cell breaks the layout); a TSV
    row is one join, and the TSV header is checked as a row is."""

    def __init__(self, command: str, fmt: str, columns: tuple[str, ...]) -> None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        for name in columns:
            if not isinstance(name, str):
                raise ValueError(f"column name not representable: {name!r}")
        self.command, self.fmt, self.columns = command, fmt, columns
        self.status, self.rows, self._fill = _PASS, [], None
        self._width, self._tabs = len(columns), max(len(columns) - 1, 0)
        if fmt == "json":
            pairs = ",\n      ".join(
                encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}")
                + f": {{{i}}}" for key, i in sorted(zip(columns, range(self._width))))
            self._fill = ("{{\n      %s\n    }}" % pairs if columns else "{{}}").format
        else:
            self.header = "\t".join(columns)
            if "\n" in self.header or self.header.count("\t") != self._tabs:
                self.add(columns)  # raises, naming the column as it would a cell

    def add(self, cells, status: Status = _PASS) -> None:
        if len(cells) != self._width:
            raise ValueError(f"{len(cells)} cells for {self._width} columns")
        fill = self._fill
        try:
            if fill is not None:
                text = fill(*map(_call, map(_JSON_OF, map(type, cells)), cells))
            else:
                try:
                    text = "\t".join(cells)  # every cell a str
                except TypeError:
                    text = "\t".join(map(_call, map(_TSV_OF, map(type, cells)), cells))
        except KeyError:  # a cell of no flat type
            bad = next(c for c in cells if type(c) not in _FLAT)
            raise ValueError(f"value not representable: {bad!r}") from None
        except ValueError:  # int.__repr__, past the int-string digit limit
            raise ValueError(
                f"an integer in the result has more than "
                f"{sys.get_int_max_str_digits()} digits, the interpreter's "
                f"limit for integer text; set the environment variable "
                f"PYTHONINTMAXSTRDIGITS=0 to lift it") from None
        if fill is None and ("\n" in text or text.count("\t") != self._tabs):
            bad = next(c for c in cells if isinstance(c, str)
                       and ("\t" in c or "\n" in c))
            raise ValueError(f"value not representable in TSV: {bad!r}")
        self.rows.append(text)
        if status is not _PASS:
            self.status = combine_status((self.status, status))
        return self


def _written(report: Report, fmt: str) -> RowWriter:
    """A Report through row writers sharing one row list: in TSV one for
    the union of the rows' keys, in JSON one per key tuple."""
    columns = tuple(dict.fromkeys(chain.from_iterable(report.results)))
    writer = RowWriter(report.command, fmt, columns if fmt == "tsv" else ())
    writer.status, writers = report.status, {writer.columns: writer}
    for row in report.results:
        keys = writer.columns if fmt == "tsv" else tuple(row)
        if keys not in writers:
            writers[keys] = RowWriter(report.command, fmt, keys)
            writers[keys].rows = writer.rows
        writers[keys].add(tuple(map(row.get, keys)))
    return writer


def emit_report(report: RowWriter | Report, fmt: str) -> str:
    """Render a report as JSON or TSV text (newline-terminated).

    JSON is byte for byte json.dumps(payload, sort_keys=True, indent=2).
    Rows are flat records of str, int, bool and None under str keys; any
    other key or value, and a tab or newline in a TSV cell, raises
    ValueError.  The rows' text is copied once, by one join."""
    if isinstance(report, Report):
        report = _written(report, fmt)
    elif report.fmt != fmt:
        raise ValueError(f"a {report.fmt} report emitted as {fmt}")
    status = "ok" if report.status is _PASS else STATUS_WORDS[report.status]
    if fmt == "tsv":
        command = RowWriter("", fmt, ("", "")).add(("# command", report.command))
        return "\n".join([f"# schema_version\t{SCHEMA_VERSION}", *command.rows,
                          f"# status\t{status}", report.header,
                          *report.rows, ""])
    head = (f'{{\n  "command": {encode_basestring_ascii(report.command)},'
            f'\n  "results": [')
    tail = (f'],\n  "schema_version": "{SCHEMA_VERSION}",'
            f'\n  "status": "{status}"\n}}\n')
    if not report.rows:
        return head + tail
    rows = list(report.rows)
    rows[0] = f"{head}\n    {rows[0]}"
    rows[-1] += "\n  " + tail
    return ",\n    ".join(rows)
