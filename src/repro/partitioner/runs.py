"""Which text runs lie inside a box: one page's runs, indexed once.

The partitioner attaches text to a detected region, and to each cell of
a recovered table, by one rule (§4: "intersect those bounding boxes with
the text extracted from the PDF"): a run belongs to a box when at least
half of the run's area lies inside it. A page has hundreds of runs and a
table has a box per cell, so testing every run against every box is
quadratic in the page. :class:`RunIndex` sorts the page's runs by their
top edge once; a box then bisects to the band of runs that can reach it
vertically and tests only those.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, Sequence

from ..docmodel.bbox import BoundingBox
from ..docmodel.raw import RawTextRun


class RunIndex:
    """The machine-readable runs of one page, queryable by box.

    Built from ``page.text_runs()`` once per page per ``partition()``
    call. Runs without area never belong to a box and are left out.
    """

    def __init__(self, runs: Sequence[RawTextRun]):
        rows = []
        for position, run in enumerate(runs):
            box = run.bbox
            area = (box.x2 - box.x1) * (box.y2 - box.y1)
            if area > 0.0:
                rows.append((box.y1, position, box.x1, box.x2, box.y2, area, run.text))
        rows.sort()
        self._rows = rows
        self._tops = [row[0] for row in rows]
        # Largest y2 among the runs up to and including each one:
        # non-decreasing, so it bisects. Every run before the first
        # position where it reaches a box's y1 ends above the box.
        self._reach = list(accumulate((row[4] for row in rows), max))

    def texts_in(self, box: BoundingBox) -> List[str]:
        """Texts of the runs at least half inside ``box``, in the order
        the runs were given (``text_runs()`` order)."""
        bx1, by1, bx2, by2 = box.x1, box.y1, box.x2, box.y2
        # The band: from the first run some predecessor-or-self of which
        # reaches down to the box, to the last run that starts inside or
        # above it. Comparisons only, so no run is lost to rounding.
        first = bisect_left(self._reach, by1)
        last = bisect_right(self._tops, by2)
        found = []
        for y1, position, x1, x2, y2, area, text in self._rows[first:last]:
            if x1 < bx1:
                x1 = bx1
            if x2 > bx2:
                x2 = bx2
            if y1 < by1:
                y1 = by1
            if y2 > by2:
                y2 = by2
            if x2 < x1 or y2 < y1:
                continue
            if (x2 - x1) * (y2 - y1) / area >= 0.5:
                found.append((position, text))
        found.sort()
        return [text for _, text in found]
