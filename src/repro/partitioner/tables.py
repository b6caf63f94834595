"""Table structure recovery and cross-page table repair.

Reproduces the partitioner's table pipeline (§4): "when the model
identifies and labels a component as table, we use the Table Transformer
model to identify the bounding box of each cell in the table, and then
intersect those bounding boxes with the text extracted from the PDF".

The cell-structure *model* is simulated (it reads the underlying grid
geometry with a configurable miss rate), but the text/cell intersection
is real geometry over positioned runs, and the cross-page merge logic is
a genuine structural repair of split tables — the failure case the paper
uses to motivate structure-aware partitioning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..docmodel.bbox import BoundingBox
from ..docmodel.raw import RawBox
from ..docmodel.table import Table, TableCell, merge_tables
from .runs import RunIndex


@dataclass(frozen=True)
class TableModelConfig:
    """Noise parameters of the simulated Table Transformer.

    ``cell_miss_prob``: chance a cell's bounding box is not recovered
    (its text is then lost from the structured view).
    ``row_merge_prob``: chance two adjacent body rows are merged into one
    (their texts concatenate), a common real-world failure.
    """

    name: str = "table-transformer"
    cell_miss_prob: float = 0.01
    row_merge_prob: float = 0.01


HIGH_FIDELITY_TABLE_MODEL = TableModelConfig(
    name="table-transformer", cell_miss_prob=0.01, row_merge_prob=0.01
)
LOW_FIDELITY_TABLE_MODEL = TableModelConfig(
    name="naive-grid-heuristic", cell_miss_prob=0.15, row_merge_prob=0.12
)


class TableStructureModel:
    """Recovers a :class:`Table` from a detected table region."""

    def __init__(self, config: TableModelConfig = HIGH_FIDELITY_TABLE_MODEL, seed: int = 0):
        self.config = config
        self.seed = seed

    def recover(
        self,
        region: RawBox,
        runs: RunIndex,
        region_key: str = "",
    ) -> Optional[Table]:
        """Recover cell structure for a table region.

        The simulated model reads the region's latent cell grid (standing
        in for visual cell detection), drops/merges cells per its noise
        config, then fills each surviving cell's text by intersecting its
        bounding box with the page's text runs (``runs``, the page's
        :class:`RunIndex`) — the real PDFMiner-style step.
        """
        if region.table is None:
            return None
        rng = random.Random(f"{self.seed}:{self.config.name}:{region_key}")
        source = region.table
        cells: List[TableCell] = []
        merged_rows = self._rows_to_merge(source, rng)
        for cell in source.cells:
            if cell.bbox is None:
                continue
            if rng.random() < self.config.cell_miss_prob:
                continue
            row = cell.row
            # Row merge: rows collapse onto their predecessor.
            offset = sum(1 for m in merged_rows if m <= row)
            cell_bbox = cell.bbox
            text = extract_cell_text(cell_bbox, runs)
            cells.append(
                TableCell(
                    row=row - offset,
                    col=cell.col,
                    text=text,
                    rowspan=cell.rowspan,
                    colspan=cell.colspan,
                    is_header=cell.is_header,
                    bbox=cell_bbox,
                )
            )
        cells = _resolve_collisions(cells)
        if not cells:
            return None
        table = Table(cells=cells, caption=source.caption)
        table.validate()
        return table

    def _rows_to_merge(self, source: Table, rng: random.Random) -> List[int]:
        merged = []
        for row in range(1, source.num_rows):
            if rng.random() < self.config.row_merge_prob:
                merged.append(row)
        return merged


def extract_cell_text(cell_bbox: BoundingBox, runs: RunIndex) -> str:
    """Text of all runs whose area lies mostly within the cell box."""
    return " ".join(runs.texts_in(cell_bbox))


def _resolve_collisions(cells: List[TableCell]) -> List[TableCell]:
    """Merge cells that row-merging mapped onto the same grid slot."""
    by_slot = {}
    order = []
    for cell in cells:
        slot = (cell.row, cell.col)
        if slot in by_slot:
            existing = by_slot[slot]
            combined = " ".join(t for t in (existing.text, cell.text) if t)
            by_slot[slot] = TableCell(
                row=existing.row,
                col=existing.col,
                text=combined,
                rowspan=existing.rowspan,
                colspan=existing.colspan,
                is_header=existing.is_header,
                bbox=existing.bbox,
            )
        else:
            by_slot[slot] = cell
            order.append(slot)
    return [by_slot[slot] for slot in order]


def merge_continuation_tables(tables: List[Table], continuation_flags: List[bool]) -> List[Table]:
    """Merge table fragments marked as continuations into their parents.

    ``tables[i]`` with ``continuation_flags[i]`` True is appended to the
    previous surviving table when the column counts are compatible;
    otherwise it is kept as its own table (a conservative repair —
    merging incompatible fragments would corrupt data).
    """
    if len(tables) != len(continuation_flags):
        raise ValueError("tables and continuation_flags must align")
    merged: List[Table] = []
    for table, continues in zip(tables, continuation_flags):
        if (
            continues
            and merged
            and merged[-1].num_cols == table.num_cols
            and table.num_cols > 0
        ):
            merged[-1] = merge_tables(merged[-1], table)
        else:
            merged.append(table)
    return merged
