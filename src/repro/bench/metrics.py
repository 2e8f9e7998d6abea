"""Experiment cost accounting and table rendering.

Costs in this reproduction are protocol-level: virtual-time seconds, message
and byte counts from the simulated network, MAC/digest operation counts, and
state-transfer traffic.  ``ExperimentTable`` collects rows and renders the
ASCII tables that EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ExperimentTable:
    """Ordered rows with uniform columns, pretty-printable."""

    def __init__(self, title: str, columns: Optional[List[str]] = None) -> None:
        self.title = title
        self.columns = columns
        self.rows: List[Dict[str, object]] = []

    def add_row(self, **values: object) -> None:
        if self.columns is None:
            self.columns = list(values)
        self.rows.append(values)

    def render(self) -> str:
        if not self.rows:
            return f"== {self.title} ==\n(no rows)"
        columns = self.columns or list(self.rows[0])
        cells = [[str(row.get(col, "")) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(line[i]) for line in cells))
            for i, col in enumerate(columns)
        ]
        header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        rule = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
            for line in cells
        )
        return f"== {self.title} ==\n{header}\n{rule}\n{body}"

    def show(self) -> None:
        print("\n" + self.render())


def ratio(a: float, b: float) -> float:
    """a/b, guarding the empty-baseline case."""
    return a / b if b else float("inf")
