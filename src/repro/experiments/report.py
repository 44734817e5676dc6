"""Plain-text tables for bench output and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    """A fixed-width table; every figure/bench prints through this."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:
            return "n/a"
        return f"{value:,.1f}"
    return str(value)
