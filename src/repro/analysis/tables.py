"""Plain-text table rendering for the CLI, the record and examples."""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000.0 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    """A fixed-width text table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    if not headers:
        raise ConfigurationError("table needs headers")
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
