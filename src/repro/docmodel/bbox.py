"""Axis-aligned bounding boxes used throughout the document model.

Pages use a normalized coordinate system where ``(0, 0)`` is the top-left
corner. Boxes are stored as ``(x1, y1, x2, y2)`` with ``x1 <= x2`` and
``y1 <= y2``. All geometry needed by the partitioner (IoU for detection
evaluation, intersection for table-cell/text matching, union for merging
detections) lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle in page coordinates.

    Coordinates are floats; the box is closed on all sides. A degenerate box
    (zero width or height) is permitted and has zero area.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"invalid box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """Build a box from top-left corner plus width and height."""
        if w < 0 or h < 0:
            raise ValueError(f"negative extent: w={w}, h={h}")
        return cls(x, y, x + w, y + h)

    @classmethod
    def from_tuple(cls, coords: Sequence[float]) -> "BoundingBox":
        """Build a box from an ``(x1, y1, x2, y2)`` sequence."""
        if len(coords) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(coords)}")
        return cls(*coords)

    @property
    def width(self) -> float:
        """Horizontal extent of the box."""
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        """Vertical extent of the box."""
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        """Area of the box (zero for degenerate boxes)."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """The box's center point as ``(x, y)``."""
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def to_tuple(self) -> Tuple[float, float, float, float]:
        """Return the coordinates as an ``(x1, y1, x2, y2)`` tuple."""
        return (self.x1, self.y1, self.x2, self.y2)

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        return {"x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2}

    @classmethod
    def from_dict(cls, data: dict) -> "BoundingBox":
        """Rebuild from a dictionary produced by ``to_dict``."""
        return cls(data["x1"], data["y1"], data["x2"], data["y2"])

    def intersection(self, other: "BoundingBox") -> Optional["BoundingBox"]:
        """Return the overlapping region, or ``None`` if the boxes are disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 < x1 or y2 < y1:
            return None
        return BoundingBox(x1, y1, x2, y2)

    def intersection_area(self, other: "BoundingBox") -> Optional[float]:
        """Area of the overlapping region, or ``None`` if the boxes are disjoint.

        Boxes that only touch share an edge or a corner: area ``0.0``, not
        ``None``. Same arithmetic as ``intersection(other).area``, without
        building the box — the partitioner asks this per run and region.
        """
        x1 = self.x1 if self.x1 > other.x1 else other.x1
        y1 = self.y1 if self.y1 > other.y1 else other.y1
        x2 = self.x2 if self.x2 < other.x2 else other.x2
        y2 = self.y2 if self.y2 < other.y2 else other.y2
        if x2 < x1 or y2 < y1:
            return None
        return (x2 - x1) * (y2 - y1)

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the two boxes share any point."""
        return self.intersection_area(other) is not None

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Return the smallest box containing both boxes."""
        return BoundingBox(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def iou(self, other: "BoundingBox") -> float:
        """Intersection over union, the detection-evaluation overlap metric."""
        inter_area = self.intersection_area(other)
        if inter_area is None:
            return 0.0
        union_area = self.area + other.area - inter_area
        if union_area <= 0.0:
            # Two coincident degenerate boxes overlap perfectly by convention.
            return 1.0 if self == other else 0.0
        return inter_area / union_area

    def contains_point(self, x: float, y: float) -> bool:
        """True when the point lies inside or on the boundary."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies entirely within this box."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def overlap_fraction(self, other: "BoundingBox") -> float:
        """Fraction of *this* box's area covered by ``other`` (0 for degenerate)."""
        inter_area = self.intersection_area(other)
        area = self.area
        if inter_area is None or area <= 0.0:
            return 0.0
        return inter_area / area

    def expand(self, margin: float) -> "BoundingBox":
        """Grow (or shrink, for negative margin) the box on every side.

        Shrinking collapses to the center point rather than inverting.
        """
        cx, cy = self.center
        x1 = min(self.x1 - margin, cx)
        y1 = min(self.y1 - margin, cy)
        x2 = max(self.x2 + margin, cx)
        y2 = max(self.y2 + margin, cy)
        return BoundingBox(x1, y1, x2, y2)

    def translate(self, dx: float, dy: float) -> "BoundingBox":
        """Return the box shifted by ``(dx, dy)``."""
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scale(self, sx: float, sy: float) -> "BoundingBox":
        """Scale about the origin (useful for page-size normalization)."""
        if sx < 0 or sy < 0:
            raise ValueError("scale factors must be non-negative")
        return BoundingBox(self.x1 * sx, self.y1 * sy, self.x2 * sx, self.y2 * sy)

    def distance_to(self, other: "BoundingBox") -> float:
        """Euclidean gap between the two boxes (0 when they touch or overlap)."""
        dx = max(other.x1 - self.x2, self.x1 - other.x2, 0.0)
        dy = max(other.y1 - self.y2, self.y1 - other.y2, 0.0)
        return math.hypot(dx, dy)


def union_all(boxes: Iterable[BoundingBox]) -> BoundingBox:
    """Smallest box containing every box in ``boxes``.

    Raises ``ValueError`` on an empty iterable — there is no identity box in
    an unbounded coordinate system.
    """
    it: Iterator[BoundingBox] = iter(boxes)
    try:
        result = next(it)
    except StopIteration:
        raise ValueError("union_all of empty iterable") from None
    for box in it:
        result = result.union(box)
    return result


def reading_order(boxes: Sequence[BoundingBox], row_tolerance: float = 0.01) -> list:
    """Indices of ``boxes`` sorted in natural reading order (rows, then columns).

    Boxes whose top edges are within ``row_tolerance`` of each other are
    treated as the same visual row and ordered left-to-right.
    """
    indexed = sorted(range(len(boxes)), key=lambda i: (boxes[i].y1, boxes[i].x1))
    result: list = []
    row: list = []
    row_top: Optional[float] = None
    for idx in indexed:
        top = boxes[idx].y1
        if row_top is None or abs(top - row_top) <= row_tolerance:
            row.append(idx)
            row_top = top if row_top is None else row_top
        else:
            row.sort(key=lambda i: boxes[i].x1)
            result.extend(row)
            row = [idx]
            row_top = top
    row.sort(key=lambda i: boxes[i].x1)
    result.extend(row)
    return result
