"""Plain-text reporting helpers for the benchmark harness.

Benchmarks print the same rows/series the paper's tables and figures show;
these helpers render lists of row dictionaries as aligned ASCII tables and
grouped "series" blocks (the textual analogue of a log-log scaling plot).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_series", "format_kv"]

#: significant digits of a float printed in ``%g`` form
PRECISION = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.{PRECISION}g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows (dicts) as an aligned ASCII table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(c) for c in columns]
    body = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for r in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(rows: Sequence[Mapping[str, object]],
                  group_by: str, x: str, y: str,
                  title: Optional[str] = None) -> str:
    """Render rows as one line per group: ``group: (x, y) (x, y) ...``.

    This is the textual form of the paper's line plots (e.g. epoch time vs
    number of GPUs, one line per scheme).
    """
    groups: Dict[str, List[tuple]] = {}
    for row in rows:
        key = str(row.get(group_by))
        groups.setdefault(key, []).append((row.get(x), row.get(y)))
    lines = []
    if title:
        lines.append(title)
    for key in sorted(groups):
        pts = "  ".join(f"({_fmt(a)}, {_fmt(b)})"
                        for a, b in groups[key])
        lines.append(f"  {key:>16}: {pts}")
    return "\n".join(lines)


def format_kv(mapping: Mapping[str, object], title: Optional[str] = None
              ) -> str:
    """Render a flat mapping as ``key = value`` lines."""
    lines = []
    if title:
        lines.append(title)
    for k, v in mapping.items():
        lines.append(f"  {k} = {_fmt(v)}")
    return "\n".join(lines)
