"""ASCII table rendering for experiment reports.

Every experiment driver returns a :class:`Table`; benches print them so
`pytest benchmarks/ --benchmark-only` regenerates the paper's tables and
figure series as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Table"]


@dataclass
class Table:
    """A titled grid of stringifiable cells."""

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row (must match the column count)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Attach a footnote rendered under the grid."""
        self.notes.append(note)

    @staticmethod
    def _fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell != cell:  # NaN
                return "-"
            if cell == 0:
                return "0"
            if abs(cell) >= 1000 or abs(cell) < 0.01:
                return f"{cell:.3g}"
            return f"{cell:.2f}"
        return str(cell)

    def render(self) -> str:
        """Render the table as aligned monospace text."""
        grid = [self.columns] + [
            [self._fmt(c) for c in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in grid)
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        for r, row in enumerate(grid):
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
            if r == 0:
                lines.append(sep)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> list[object]:
        """Extract one column's cells by header name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
