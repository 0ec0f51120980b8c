"""Rendering of result-store rows: table, csv, and json output.

The renderers are shared by ``smash-repro query`` and ``smash-repro
tables``. Determinism is part of the contract: given the same rows, every
format produces byte-identical output (CI byte-diffs
``tables`` output across runs), so floats in the human-readable formats go
through one fixed formatter and json uses canonical encoding.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.index import METRIC_COLUMNS, StoreError

#: Output formats accepted by the CLI/HTTP surfaces.
FORMATS = ("table", "csv", "json")

#: Scalar columns shown in table/csv mode for plain (non-aggregated) rows;
#: the JSON blobs (workload, params, report) stay json-format-only.
DISPLAY_COLUMNS: Tuple[str, ...] = (
    "key",
    "kind",
    "scheme",
    "workload_kind",
    "workload_key",
    "dim",
    "instructions",
    "issue_cycles",
    "memory_stall_cycles",
    "cycles",
    "dram_accesses",
    "l1_miss_rate",
    "l2_miss_rate",
    "l3_miss_rate",
)

#: The JSON-string columns inflated back to objects for json output.
_JSON_COLUMNS = ("workload", "params", "report")


def _cell(value: object, column: str) -> str:
    """One deterministic cell rendering for table/csv output."""
    if value is None:
        return ""
    if column == "key":
        return str(value)[:12]
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def row_columns(rows: Sequence[Dict[str, object]], mean_by: Optional[str]) -> Tuple[str, ...]:
    """The display-column set for ``rows`` (aggregated or plain)."""
    if mean_by is not None:
        return (mean_by, "count") + METRIC_COLUMNS
    return DISPLAY_COLUMNS


def inflate_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows with their serialized JSON columns parsed back to objects.

    The ``report`` value of an inflated row is exactly the payload the
    cache stored — bit-consistent with ``CostReport.to_dict()``.
    """
    inflated = []
    for row in rows:
        copy = dict(row)
        for column in _JSON_COLUMNS:
            value = copy.get(column)
            if isinstance(value, str):
                copy[column] = json.loads(value)
        inflated.append(copy)
    return inflated


def render_table(columns: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    """A fixed-width text table (trailing newline, no trailing spaces)."""
    cells = [[_cell(row.get(column), column) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in cells)) if cells else len(column)
        for i, column in enumerate(columns)
    ]
    lines = [
        "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(columns))).rstrip(),
    ]
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(columns: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    """RFC-4180-ish csv with a header row and ``\\n`` line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(column), column) for column in columns])
    return buffer.getvalue()


def render_json(rows: Sequence[Dict[str, object]]) -> str:
    """Canonically ordered, indented json (the machine-readable format)."""
    return json.dumps(inflate_rows(rows), sort_keys=True, indent=2) + "\n"


def render_rows(
    rows: Sequence[Dict[str, object]],
    fmt: str,
    mean_by: Optional[str] = None,
) -> str:
    """Render ``rows`` in ``fmt`` (one of :data:`FORMATS`)."""
    if fmt not in FORMATS:
        raise StoreError(f"unknown format {fmt!r}; known formats: {list(FORMATS)}")
    if fmt == "json":
        return render_json(rows)
    resolved = row_columns(rows, mean_by)
    if fmt == "csv":
        return render_csv(resolved, rows)
    return render_table(resolved, rows)
