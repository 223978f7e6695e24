"""Plain-text table rendering for experiment reports.

No third-party dependency; the experiments print aligned monospace tables
comparing the paper's claims to measured outcomes.  Also holds the
argparse type the experiment CLIs share for ``--jobs``.
"""

from __future__ import annotations

import argparse
from typing import Sequence


def worker_count(text: str) -> int:
    """Argparse type of ``--jobs``: a worker process count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))

    def line(values: Sequence[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(separator)
    parts.extend(line(row) for row in cells)
    return "\n".join(parts)


def bullet_list(items: Sequence[str], indent: str = "  ") -> str:
    """Render items as an indented bullet list."""
    return "\n".join(f"{indent}- {item}" for item in items)


def check_mark(ok: bool) -> str:
    """ASCII verdict marker."""
    return "OK " if ok else "FAIL"
