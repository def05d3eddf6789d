"""Paper-style text rendering of experiment results."""

from __future__ import annotations

from typing import List

from .harness import ExperimentResult


def render(result: ExperimentResult) -> str:
    """One experiment as an aligned text table (x down, series across)."""
    lines: List[str] = []
    lines.append(f"== {result.experiment}: {result.title} ==")
    if result.meta:
        meta = ", ".join(
            f"{key}={value}" for key, value in result.meta.items()
            if key != "rows"
        )
        if meta:
            lines.append(f"   [{meta}]")
    if "rows" in result.meta:  # Table 1 style
        rows = result.meta["rows"]
        headers = list(rows[0].keys())
        widths = [
            max(len(str(h)), max(len(str(r[h])) for r in rows))
            for h in headers
        ]
        lines.append(
            "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        )
        for row in rows:
            lines.append(
                "  "
                + "  ".join(
                    str(row[h]).ljust(w) for h, w in zip(headers, widths)
                )
            )
        return "\n".join(lines)

    labels = list(result.series.keys())
    xs: List[float] = sorted(
        {x for points in result.series.values() for x, __ in points}
    )
    by_label = {
        label: dict(points) for label, points in result.series.items()
    }
    header = [result.x_label.rjust(16)] + [label.rjust(12) for label in labels]
    lines.append(" ".join(header))
    for x in xs:
        cells = [f"{_fmt_x(x):>16}"]
        for label in labels:
            value = by_label[label].get(x)
            cells.append(f"{value:12.4f}" if value is not None else " " * 12)
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _fmt_x(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.3g}"
