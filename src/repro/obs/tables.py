"""One fixed-width text table renderer for every CLI in the repo.

``repro-bench``'s figure tables, ``repro-metrics diff`` and
``repro-top`` all print columns; they share this
renderer so the column discipline — widths computed from the content,
a dashed rule under the header — stays identical everywhere instead
of being re-implemented with hand-counted format widths per tool.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 align: Optional[str] = None) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width text table.

    ``align`` gives one character per column: ``l`` (left) or ``r``
    (right).  The default left-aligns the first column (names) and
    right-aligns the rest (numbers).  Cells are ``str()``-ed; column
    widths are the max over header and cells, so nothing truncates.
    """
    cells: List[List[str]] = [[str(c) for c in row] for row in rows]
    ncols = len(headers)
    for row in cells:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} cells, expected {ncols}")
    if align is None:
        align = "l" + "r" * (ncols - 1)
    if len(align) != ncols or set(align) - {"l", "r"}:
        raise ValueError(f"bad align spec {align!r} for {ncols} columns")
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]

    def fmt(row: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(row):
            out.append(cell.ljust(widths[i]) if align[i] == "l"
                       else cell.rjust(widths[i]))
        return "  ".join(out).rstrip()

    head = fmt(list(headers))
    lines = [head, "-" * len(head)]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)
