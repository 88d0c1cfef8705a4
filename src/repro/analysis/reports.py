"""Plain-text table/series formatting for the benchmark harness.

Every experiment prints its figure/table as aligned text rows so the
bench output can be compared with the paper directly; no plotting
dependencies are required.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ReproError


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    title: str = "",
    float_format: str = "{:.4g}",
) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        raise ReproError("no rows to format")
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise ReproError(f"rows are missing columns: {missing}")

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = list(columns)
    body = [[render(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body))
        for i in range(len(columns))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(header, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
