"""Plain-text reporting in the layout of the paper's figures and tables.

The benchmark harness prints these to stdout so ``pytest benchmarks/``
output can be compared side-by-side with the paper (docs/reproduction.md
maps each figure and table to its bench).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.evaluation.experiments import ExperimentRecord


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str = "",
) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    for idx, row in enumerate(cells):
        lines.append(" | ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if idx == 0:
            lines.append(separator)
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_series(
    x_name: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    *,
    title: str = "",
) -> str:
    """A figure rendered as a table: one x column, one column per line."""
    headers = [x_name, *series.keys()]
    rows = []
    for idx, x in enumerate(x_values):
        rows.append([x, *(values[idx] for values in series.values())])
    return format_table(headers, rows, title=title)


def format_records(
    records: Sequence[ExperimentRecord],
    *,
    value: str = "total_regret",
    title: str = "",
) -> str:
    """Pivot experiment records: parameters as rows, algorithms as columns."""
    algorithms = sorted({r.algorithm for r in records})
    param_keys: list[tuple] = []
    for record in records:
        key = tuple(sorted(record.parameters.items()))
        if key not in param_keys:
            param_keys.append(key)
    by_cell = {
        (tuple(sorted(r.parameters.items())), r.algorithm): getattr(r, value)
        for r in records
    }
    x_label = ", ".join(k for k, _ in param_keys[0]) if param_keys else "params"
    headers = [x_label, *algorithms]
    rows = []
    for key in param_keys:
        label = ", ".join(str(v) for _, v in key)
        rows.append([label, *(by_cell.get((key, algo), "-") for algo in algorithms)])
    return format_table(headers, rows, title=title)
