"""Table representation for the document model.

The paper (§4) emphasises high-quality table extraction: the partitioner
identifies tables, recovers per-cell bounding boxes, and users can then
convert them "to formats like HTML, CSV, and Pandas Dataframes". This
module provides the :class:`Table` structure those features rest on,
including row/column spans, header detection, and cross-page merging
(a table split across pages with the heading only on the first page is
one of the paper's motivating failure cases for naive text extraction).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from .bbox import BoundingBox


@dataclass
class TableCell:
    """One logical cell of a table.

    A cell occupies ``rowspan`` x ``colspan`` grid slots anchored at
    (``row``, ``col``). ``is_header`` marks column-header cells.
    """

    row: int
    col: int
    text: str
    rowspan: int = 1
    colspan: int = 1
    is_header: bool = False
    bbox: Optional[BoundingBox] = None

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError(f"negative cell anchor: ({self.row}, {self.col})")
        if self.rowspan < 1 or self.colspan < 1:
            raise ValueError(f"spans must be >= 1: ({self.rowspan}, {self.colspan})")

    def covered_slots(self) -> List[tuple]:
        """All (row, col) grid slots this cell occupies."""
        return [
            (r, c)
            for r in range(self.row, self.row + self.rowspan)
            for c in range(self.col, self.col + self.colspan)
        ]

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        data = {
            "row": self.row,
            "col": self.col,
            "text": self.text,
            "rowspan": self.rowspan,
            "colspan": self.colspan,
            "is_header": self.is_header,
        }
        if self.bbox is not None:
            data["bbox"] = self.bbox.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TableCell":
        """Rebuild from a dictionary produced by ``to_dict``."""
        bbox = BoundingBox.from_dict(data["bbox"]) if "bbox" in data else None
        return cls(
            row=data["row"],
            col=data["col"],
            text=data["text"],
            rowspan=data.get("rowspan", 1),
            colspan=data.get("colspan", 1),
            is_header=data.get("is_header", False),
            bbox=bbox,
        )


@dataclass
class Table:
    """A logical table: a set of cells on an implicit rectangular grid.

    The grid is defined by the cells themselves; :meth:`num_rows` and
    :meth:`num_cols` derive its extent. Overlapping cells are rejected at
    validation time so every grid slot maps to at most one cell.
    """

    cells: List[TableCell] = field(default_factory=list)
    caption: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ValueError`` if any two cells overlap on the grid."""
        seen: Dict[tuple, TableCell] = {}
        for cell in self.cells:
            for slot in cell.covered_slots():
                if slot in seen:
                    raise ValueError(
                        f"cells overlap at grid slot {slot}: "
                        f"{seen[slot]!r} vs {cell!r}"
                    )
                seen[slot] = cell

    @property
    def num_rows(self) -> int:
        """Number of grid rows."""
        if not self.cells:
            return 0
        return max(c.row + c.rowspan for c in self.cells)

    @property
    def num_cols(self) -> int:
        """Number of grid columns."""
        if not self.cells:
            return 0
        return max(c.col + c.colspan for c in self.cells)

    def cell_at(self, row: int, col: int) -> Optional[TableCell]:
        """The cell covering grid slot (row, col), or ``None`` if empty."""
        for cell in self.cells:
            if (
                cell.row <= row < cell.row + cell.rowspan
                and cell.col <= col < cell.col + cell.colspan
            ):
                return cell
        return None

    def header_rows(self) -> List[int]:
        """Row indices that consist entirely of header cells."""
        rows = []
        for r in range(self.num_rows):
            row_cells = [c for c in self.cells if c.row <= r < c.row + c.rowspan]
            if row_cells and all(c.is_header for c in row_cells):
                rows.append(r)
        return rows

    def column_names(self) -> List[str]:
        """Names of the columns, taken from header cells when present.

        Falls back to ``col_<i>`` for columns without a header cell.
        """
        names = []
        header_rows = self.header_rows()
        header_row = header_rows[0] if header_rows else None
        for c in range(self.num_cols):
            name = f"col_{c}"
            if header_row is not None:
                cell = self.cell_at(header_row, c)
                if cell is not None and cell.text:
                    name = cell.text
            names.append(name)
        return names

    def to_grid(self) -> List[List[str]]:
        """Dense 2-D list of cell texts; spanned slots repeat the cell text."""
        num_rows, num_cols = self.num_rows, self.num_cols
        grid = [[""] * num_cols for _ in range(num_rows)]
        for cell in self.cells:
            if cell.rowspan == 1 and cell.colspan == 1:
                grid[cell.row][cell.col] = cell.text
            else:
                for r, c in cell.covered_slots():
                    grid[r][c] = cell.text
        return grid

    def body_rows(self) -> List[List[str]]:
        """Grid rows excluding header rows."""
        headers = set(self.header_rows())
        return [row for r, row in enumerate(self.to_grid()) if r not in headers]

    def to_records(self) -> List[Dict[str, str]]:
        """Rows as dictionaries keyed by column name (a pandas-free DataFrame)."""
        names = self.column_names()
        return [dict(zip(names, row)) for row in self.body_rows()]

    def to_csv(self) -> str:
        """CSV rendering including header rows."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.to_grid():
            writer.writerow(row)
        return buf.getvalue()

    def to_html(self) -> str:
        """Minimal HTML rendering preserving row/column spans."""
        parts = ["<table>"]
        if self.caption:
            parts.append(f"<caption>{_escape(self.caption)}</caption>")
        anchored: Dict[tuple, TableCell] = {(c.row, c.col): c for c in self.cells}
        covered = {
            slot
            for cell in self.cells
            for slot in cell.covered_slots()
            if slot != (cell.row, cell.col)
        }
        for r in range(self.num_rows):
            parts.append("<tr>")
            for c in range(self.num_cols):
                if (r, c) in covered:
                    continue
                cell = anchored.get((r, c))
                if cell is None:
                    parts.append("<td></td>")
                    continue
                tag = "th" if cell.is_header else "td"
                attrs = ""
                if cell.rowspan > 1:
                    attrs += f' rowspan="{cell.rowspan}"'
                if cell.colspan > 1:
                    attrs += f' colspan="{cell.colspan}"'
                parts.append(f"<{tag}{attrs}>{_escape(cell.text)}</{tag}>")
            parts.append("</tr>")
        parts.append("</table>")
        return "".join(parts)

    def to_text(self) -> str:
        """Plain-text rendering, one row per line, cells joined by ' | '."""
        return "\n".join(" | ".join(row) for row in self.to_grid())

    def lookup(self, column: str, value: str, target_column: str) -> List[str]:
        """Values of ``target_column`` in rows where ``column`` equals ``value``.

        Column matching is case-insensitive on names; value matching is exact
        after stripping whitespace.
        """
        results = []
        for record in self.to_records():
            matched_col = _find_key(record, column)
            matched_target = _find_key(record, target_column)
            if matched_col is None or matched_target is None:
                continue
            if record[matched_col].strip() == value.strip():
                results.append(record[matched_target])
        return results

    def copy(self) -> "Table":
        """A table with cells of its own (boxes, being immutable, are shared)."""
        return Table(cells=[replace(cell) for cell in self.cells], caption=self.caption)

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        data: dict = {"cells": [c.to_dict() for c in self.cells]}
        if self.caption is not None:
            data["caption"] = self.caption
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        """Rebuild from a dictionary produced by ``to_dict``."""
        return cls(
            cells=[TableCell.from_dict(c) for c in data.get("cells", [])],
            caption=data.get("caption"),
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[str]],
        header: bool = True,
        caption: Optional[str] = None,
    ) -> "Table":
        """Build a simple span-free table from a list of text rows."""
        cells = []
        for r, row in enumerate(rows):
            for c, text in enumerate(row):
                cells.append(
                    TableCell(row=r, col=c, text=str(text), is_header=header and r == 0)
                )
        table = cls(cells=cells, caption=caption)
        table.validate()
        return table


def merge_tables(first: Table, second: Table) -> Table:
    """Merge a table continuation into its start (cross-page table repair).

    The paper calls out tables split across PDF pages, where the heading is
    only present on the first fragment, as a case that "befuddles" text
    extraction. This helper appends the second fragment's rows below the
    first fragment's grid. If the second fragment repeats the first's header
    row verbatim, the repeated header is dropped.
    """
    offset = first.num_rows
    second_cells = list(second.cells)
    if first.num_cols == second.num_cols and first.num_cols > 0:
        first_header = first.to_grid()[0] if first.num_rows else None
        second_first = second.to_grid()[0] if second.num_rows else None
        if first_header is not None and first_header == second_first:
            second_cells = [c for c in second_cells if c.row != 0]
            # Shift remaining rows up to close the gap left by the header.
            second_cells = [
                TableCell(
                    row=c.row - 1,
                    col=c.col,
                    text=c.text,
                    rowspan=c.rowspan,
                    colspan=c.colspan,
                    is_header=c.is_header,
                    bbox=c.bbox,
                )
                for c in second_cells
            ]
    merged_cells = list(first.cells) + [
        TableCell(
            row=c.row + offset,
            col=c.col,
            text=c.text,
            rowspan=c.rowspan,
            colspan=c.colspan,
            is_header=False,
            bbox=c.bbox,
        )
        for c in second_cells
    ]
    merged = Table(cells=merged_cells, caption=first.caption or second.caption)
    merged.validate()
    return merged


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _find_key(record: Dict[str, str], name: str) -> Optional[str]:
    lowered = name.strip().lower()
    for key in record:
        if key.strip().lower() == lowered:
            return key
    return None
