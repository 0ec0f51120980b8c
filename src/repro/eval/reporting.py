"""Plain-text rendering of experiment results."""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as a fixed-width text table."""
    columns = [list(map(_fmt, col)) for col in zip(headers, *rows)] if rows else [[_fmt(h)] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = " | ".join(h.ljust(w) for h, w in zip(map(_fmt, headers), widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.3f}"
    return str(value)


def render_result(result: Mapping) -> str:
    """Render an experiment-driver result dictionary as readable text.

    The drivers return a small set of shapes (``rows`` lists, ``per_matrix``
    / ``per_graph`` mappings, flat summaries); this function handles each of
    them generically so the CLI and the benchmark harness can print any
    experiment uniformly.
    """
    lines: List[str] = []
    title = result.get("description", "")
    identifier = result.get("figure") or result.get("table") or result.get("section") or ""
    if identifier:
        lines.append(f"=== {'Figure' if 'figure' in result else 'Table' if 'table' in result else 'Section'} "
                     f"{identifier}: {title} ===")
    elif title:
        lines.append(f"=== {title} ===")

    rows = result.get("rows")
    if isinstance(rows, Mapping):
        lines.append(format_table(["parameter", "value"], [[k, v] for k, v in rows.items()]))
    elif isinstance(rows, list) and rows and isinstance(rows[0], Mapping):
        headers = list(rows[0].keys())
        lines.append(format_table(headers, [[row.get(h, "") for h in headers] for row in rows]))

    for key in ("results", "average", "geometric_mean", "breakdown"):
        section = result.get(key)
        if isinstance(section, Mapping) and section:
            lines.append("")
            lines.append(f"[{key}]")
            lines.append(_render_nested(section))

    for key in ("per_matrix", "per_graph", "per_point"):
        section = result.get(key)
        if isinstance(section, Mapping) and section:
            lines.append("")
            lines.append(f"[{key}]")
            lines.append(_render_nested(section))

    for key in ("sram_bytes", "register_bytes", "total_area_mm2", "core_area_mm2", "overhead_percent",
                "trace_chunk_accesses", "chunked_peak_trace_mb", "memory_budget_mb"):
        if key in result:
            lines.append(f"{key}: {_fmt(result[key])}")

    reference = result.get("paper_reference")
    if reference:
        lines.append("")
        lines.append(f"[paper reference] {reference}")
    return "\n".join(lines)


def _render_nested(section: Mapping, indent: int = 0) -> str:
    """Render nested dictionaries as aligned key/value lines."""
    lines: List[str] = []
    pad = "  " * indent
    for key, value in section.items():
        if isinstance(value, Mapping):
            flat = _flatten_if_numeric(value)
            if flat is not None:
                lines.append(f"{pad}{key}: {flat}")
            else:
                lines.append(f"{pad}{key}:")
                lines.append(_render_nested(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")
    return "\n".join(lines)


def _flatten_if_numeric(value: Mapping) -> str | None:
    """Render a mapping of scalars on one line, or None if it nests further."""
    if all(not isinstance(v, Mapping) for v in value.values()):
        return ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return None
