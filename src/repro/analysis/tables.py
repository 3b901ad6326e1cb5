"""Plain-text table formatting for benchmark output.

Every benchmark in ``benchmarks/`` prints the rows/series the corresponding
paper table or figure reports; these helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered_rows = [
        {column: _render(row.get(column, "")) for column in columns} for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rendered_rows:
        lines.append(" | ".join(row[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


__all__ = ["format_table"]
