"""Unit tests for bounding-box geometry."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.docmodel import BoundingBox, reading_order, union_all


class TestConstruction:
    def test_valid_box(self):
        box = BoundingBox(1, 2, 3, 4)
        assert box.width == 2
        assert box.height == 2
        assert box.area == 4
        assert box.center == (2.0, 3.0)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(3, 2, 1, 4)
        with pytest.raises(ValueError):
            BoundingBox(1, 4, 3, 2)

    def test_degenerate_box_allowed(self):
        box = BoundingBox(1, 1, 1, 5)
        assert box.area == 0.0

    def test_from_xywh(self):
        box = BoundingBox.from_xywh(10, 20, 5, 8)
        assert box.to_tuple() == (10, 20, 15, 28)

    def test_from_xywh_negative_extent(self):
        with pytest.raises(ValueError):
            BoundingBox.from_xywh(0, 0, -1, 5)

    def test_from_tuple_wrong_length(self):
        with pytest.raises(ValueError):
            BoundingBox.from_tuple([1, 2, 3])

    def test_dict_roundtrip(self):
        box = BoundingBox(1.5, 2.5, 3.5, 4.5)
        assert BoundingBox.from_dict(box.to_dict()) == box


class TestIntersection:
    def test_overlapping(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 15, 15)
        inter = a.intersection(b)
        assert inter == BoundingBox(5, 5, 10, 10)

    def test_disjoint_returns_none(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        assert a.intersection(b) is None
        assert not a.intersects(b)

    def test_touching_edges_intersect(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(1, 0, 2, 1)
        assert a.intersects(b)
        assert a.intersection(b).area == 0.0

    def test_contained(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 4, 4)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.intersection(inner) == inner


class TestIoU:
    def test_identical_boxes(self):
        box = BoundingBox(0, 0, 4, 4)
        assert box.iou(box) == 1.0

    def test_disjoint_iou_zero(self):
        assert BoundingBox(0, 0, 1, 1).iou(BoundingBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        a = BoundingBox(0, 0, 2, 1)
        b = BoundingBox(1, 0, 3, 1)
        # intersection 1, union 3
        assert a.iou(b) == pytest.approx(1 / 3)

    def test_iou_symmetric(self):
        a = BoundingBox(0, 0, 3, 3)
        b = BoundingBox(1, 1, 5, 4)
        assert a.iou(b) == pytest.approx(b.iou(a))

    def test_degenerate_identical(self):
        a = BoundingBox(1, 1, 1, 1)
        assert a.iou(a) == 1.0


class TestTransforms:
    def test_union(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(5, 5, 6, 6)
        assert a.union(b) == BoundingBox(0, 0, 6, 6)

    def test_union_all(self):
        boxes = [BoundingBox(i, i, i + 1, i + 1) for i in range(4)]
        assert union_all(boxes) == BoundingBox(0, 0, 4, 4)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            union_all([])

    def test_expand(self):
        box = BoundingBox(2, 2, 4, 4).expand(1)
        assert box == BoundingBox(1, 1, 5, 5)

    def test_shrink_collapses_to_center(self):
        box = BoundingBox(0, 0, 2, 2).expand(-5)
        assert box == BoundingBox(1, 1, 1, 1)

    def test_translate(self):
        assert BoundingBox(0, 0, 1, 1).translate(2, 3) == BoundingBox(2, 3, 3, 4)

    def test_scale(self):
        assert BoundingBox(1, 1, 2, 2).scale(2, 3) == BoundingBox(2, 3, 4, 6)

    def test_scale_negative_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1).scale(-1, 1)


class TestQueries:
    def test_contains_point(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains_point(1, 1)
        assert box.contains_point(0, 0)  # boundary inclusive
        assert not box.contains_point(3, 1)

    def test_overlap_fraction(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        assert a.overlap_fraction(b) == pytest.approx(0.5)

    def test_overlap_fraction_degenerate(self):
        degenerate = BoundingBox(0, 0, 0, 2)
        assert degenerate.overlap_fraction(BoundingBox(0, 0, 5, 5)) == 0.0

    def test_distance_overlapping_is_zero(self):
        a = BoundingBox(0, 0, 2, 2)
        assert a.distance_to(BoundingBox(1, 1, 3, 3)) == 0.0

    def test_distance_diagonal(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(4, 5, 6, 7)
        assert a.distance_to(b) == pytest.approx(math.hypot(3, 4))


def reference_iou(a, b):
    """``iou`` as first written: through the box ``intersection()`` builds."""
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    union_area = a.area + b.area - inter_area
    if union_area <= 0.0:
        return 1.0 if a == b else 0.0
    return inter_area / union_area


def reference_overlap_fraction(a, b):
    """``overlap_fraction`` as first written, likewise."""
    inter = a.intersection(b)
    if inter is None or a.area <= 0.0:
        return 0.0
    return inter.area / a.area


#: A small grid of coordinates, so that generated boxes touch, coincide
#: and split each other exactly far more often than floats drawn at
#: large would, plus arbitrary floats for the rounding.
grid_coords = st.integers(0, 6).map(float) | st.floats(0, 6, allow_nan=False)


@st.composite
def grid_boxes(draw):
    x1, x2 = sorted((draw(grid_coords), draw(grid_coords)))
    y1, y2 = sorted((draw(grid_coords), draw(grid_coords)))
    return BoundingBox(x1, y1, x2, y2)


class TestArithmeticOverlap:
    """``iou``/``overlap_fraction`` compute the intersection's area
    without building it; the results are the same floats as before."""

    @given(grid_boxes(), grid_boxes())
    @example(BoundingBox(1, 1, 1, 1), BoundingBox(1, 1, 1, 1))  # coincident points
    @example(BoundingBox(1, 0, 1, 4), BoundingBox(1, 0, 1, 4))  # coincident segments
    @example(BoundingBox(1, 0, 1, 4), BoundingBox(1, 2, 1, 6))  # overlapping segments
    @example(BoundingBox(0, 0, 2, 2), BoundingBox(2, 2, 4, 4))  # touch at a corner
    @example(BoundingBox(0, 0, 2, 2), BoundingBox(1, 0, 3, 2))  # split 50/50
    def test_same_as_intersection_based(self, a, b):
        assert a.iou(b) == reference_iou(a, b)
        assert a.overlap_fraction(b) == reference_overlap_fraction(a, b)
        inter = a.intersection(b)
        assert a.intersection_area(b) == (None if inter is None else inter.area)
        assert a.intersects(b) == (inter is not None)

    def test_touching_is_zero_not_disjoint(self):
        a = BoundingBox(0, 0, 1, 1)
        assert a.intersection_area(BoundingBox(1, 0, 2, 1)) == 0.0
        assert a.intersection_area(BoundingBox(1.5, 0, 2, 1)) is None


class TestReadingOrder:
    def test_rows_then_columns(self):
        boxes = [
            BoundingBox(100, 0, 150, 10),  # row 1 right
            BoundingBox(0, 0, 50, 10),  # row 1 left
            BoundingBox(0, 50, 50, 60),  # row 2
        ]
        assert reading_order(boxes) == [1, 0, 2]

    def test_row_tolerance_groups_jittered_rows(self):
        boxes = [
            BoundingBox(100, 0.004, 150, 10),
            BoundingBox(0, 0.0, 50, 10),
        ]
        assert reading_order(boxes, row_tolerance=0.01) == [1, 0]

    def test_empty(self):
        assert reading_order([]) == []
