"""ASCII rendering for experiment results (aligned tables)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    Attributes:
        exp_id: the paper's identifier ("Table 2", "Figure 14", ...).
        title: short description.
        headers: column names.
        rows: table cells (numbers are formatted by :func:`render`).
        notes: free-form caveats shown under the table.
    """

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list:
        """Values of the named column across all rows."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_for(self, key) -> list:
        """The row whose first cell equals *key*."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(key)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned ASCII table."""
    table = [result.headers] + [
        [_format_cell(cell) for cell in row] for row in result.rows
    ]
    widths = [max(len(row[col]) for row in table) for col in range(len(result.headers))]
    lines = [f"== {result.exp_id}: {result.title} =="]
    header = "  ".join(h.ljust(w) for h, w in zip(table[0], widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in table[1:]:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
