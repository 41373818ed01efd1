"""Experiment records and table rendering for the benchmark suite.

Each figure-level benchmark produces an :class:`ExperimentRecord` — the
rows the paper's figure plots — which is printed, saved under
``benchmarks/results/`` and shape-checked by assertions in the benchmark
itself.  :mod:`repro.bench.figures` documents the rescaling methodology.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The repository root (three levels above this package) — the single
#: place benchmark snapshots (``BENCH_*.json``), the results directory
#: and the benchdiff regression checker derive their paths from.
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


@dataclass
class ExperimentRecord:
    """Rows of one reproduced figure."""

    experiment: str  # e.g. "fig4"
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def select(self, **filters: object) -> List[Dict[str, object]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(row)
        return out


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4f}"
    return str(value)


def format_table(record: ExperimentRecord) -> str:
    """Render a record as a fixed-width text table."""
    headers = list(record.columns)
    cells = [[_fmt(row.get(col, "")) for col in headers] for row in record.rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [f"== {record.experiment}: {record.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if record.notes:
        lines.append(f"note: {record.notes}")
    return "\n".join(lines)


def save_record(record: ExperimentRecord, directory: Optional[str] = None) -> str:
    """Write the table (.txt) and raw rows (.json); returns the txt path."""
    if directory is None:
        directory = os.path.join(REPO_ROOT, "benchmarks", "results")
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    txt_path = os.path.join(directory, f"{record.experiment}.txt")
    with open(txt_path, "w") as fh:
        fh.write(format_table(record) + "\n")
    with open(os.path.join(directory, f"{record.experiment}.json"), "w") as fh:
        json.dump(
            {
                "experiment": record.experiment,
                "title": record.title,
                "notes": record.notes,
                "rows": record.rows,
            },
            fh,
            indent=2,
            default=str,
        )
    return txt_path
