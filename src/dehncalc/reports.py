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
from dataclasses import dataclass
from enum import Enum

SCHEMA_VERSION = "1"

FORMATS = ("json", "tsv")


class Status(Enum):
    """Outcome of a check, of a verification and of a whole command."""

    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


_EXIT_CODES = {Status.PASS: 0, Status.FAIL: 1, Status.INDETERMINATE: 3}


@dataclass(frozen=True)
class Report:
    """One command's outcome: echo, overall status, and result rows."""

    command: str
    status: Status
    results: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.status, Status):
            raise TypeError(f"report status must be a Status, got {self.status!r}")


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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "\t" in text or "\n" in text:
        raise ValueError(f"value not representable in TSV: {value!r}")
    return text


def emit_report(report: Report, fmt: str) -> str:
    """Render a report as JSON or TSV text (newline-terminated)."""
    status = "ok" if report.status is Status.PASS else report.status.value
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": report.command,
            "status": status,
            "results": list(report.results),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "tsv":
        columns = list(dict.fromkeys(key for row in report.results for key in row))
        lines = [
            f"# schema_version\t{SCHEMA_VERSION}",
            f"# command\t{_cell(report.command)}",
            f"# status\t{status}",
            "\t".join(columns),
        ]
        for row in report.results:
            lines.append("\t".join(_cell(row.get(c)) for c in columns))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
