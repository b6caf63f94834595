"""The partitioner's run index against the all-pairs loops it replaced.

The loops stay here as the reference: every run of the page tested
against the box with the ``intersection()``-based ``overlap_fraction``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_earnings_corpus, generate_ntsb_corpus
from repro.docmodel import BoundingBox
from repro.docmodel.raw import RawBox, RawPage, RawTextRun
from repro.partitioner import (
    LOW_FIDELITY_TABLE_MODEL,
    ArynPartitioner,
    RunIndex,
    SegmentationModel,
)
from repro.partitioner import partitioner as partitioner_module
from tests.conftest import without_generated_ids
from tests.test_bbox import grid_boxes, reference_overlap_fraction


def reference_texts_in(box, runs):
    """The loop ``_text_in_box`` and ``extract_cell_text`` each had."""
    parts = []
    for run in runs:
        if reference_overlap_fraction(run.bbox, box) >= 0.5:
            parts.append(run.text)
    return parts


class ReferenceRunIndex:
    """Stands in for :class:`RunIndex` and answers by the loop."""

    def __init__(self, runs):
        self.runs = list(runs)

    def texts_in(self, box):
        return reference_texts_in(box, self.runs)


def run(text, x1, y1, x2, y2):
    return RawTextRun(text, BoundingBox(x1, y1, x2, y2))


class TestAssignmentRule:
    def test_half_inside_belongs(self):
        # Split exactly 50/50 by the box's right edge: 0.5 >= 0.5.
        index = RunIndex([run("half", 0, 0, 4, 2)])
        assert index.texts_in(BoundingBox(0, 0, 2, 2)) == ["half"]
        assert index.texts_in(BoundingBox(0, 0, 1.99, 2)) == []

    def test_touching_does_not_belong(self):
        index = RunIndex([run("beside", 2, 0, 4, 2), run("below", 0, 2, 2, 4)])
        assert index.texts_in(BoundingBox(0, 0, 2, 2)) == []

    def test_runs_without_area_never_belong(self):
        index = RunIndex([run("line", 1, 1, 3, 1), run("point", 1, 1, 1, 1)])
        assert index.texts_in(BoundingBox(0, 0, 5, 5)) == []

    def test_given_order_kept_whatever_the_vertical_order(self):
        runs = [run("low", 0, 8, 2, 9), run("high", 0, 1, 2, 2), run("mid", 0, 4, 2, 5)]
        assert RunIndex(runs).texts_in(BoundingBox(0, 0, 3, 10)) == ["low", "high", "mid"]

    def test_equal_tops_keep_given_order(self):
        runs = [run("right", 5, 1, 7, 2), run("left", 0, 1, 2, 2)]
        assert RunIndex(runs).texts_in(BoundingBox(0, 0, 8, 3)) == ["right", "left"]

    def test_tall_run_above_short_ones_is_still_found(self):
        # The tall run starts first and reaches past runs that end above
        # the box; the band must open at it, not at the first short run
        # that reaches the box.
        runs = [run("tall", 0, 0, 1, 20), run("a", 2, 1, 4, 2), run("b", 2, 3, 4, 4), run("c", 2, 12, 4, 13)]
        assert RunIndex(runs).texts_in(BoundingBox(0, 8, 5, 20)) == ["tall", "c"]

    def test_empty_page(self):
        assert RunIndex(RawPage().text_runs()).texts_in(BoundingBox(0, 0, 612, 792)) == []

    def test_scanned_regions_have_no_runs_to_index(self):
        page = RawPage(
            boxes=[
                RawBox("Text", BoundingBox(0, 0, 10, 2), runs=[run("printed", 0, 0, 10, 2)]),
                RawBox("Text", BoundingBox(0, 4, 10, 6), runs=[run("scanned", 0, 4, 10, 6)], scanned=True),
            ]
        )
        assert RunIndex(page.text_runs()).texts_in(BoundingBox(0, 0, 10, 10)) == ["printed"]


@st.composite
def pages(draw):
    """Pages of a few regions whose runs sit on a coarse grid: runs
    without area, runs that touch or halve a box exactly and runs with
    equal tops all turn up often."""
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        run_boxes = draw(st.lists(grid_boxes(), max_size=6))
        runs = [RawTextRun(f"r{len(boxes)}.{i}", box) for i, box in enumerate(run_boxes)]
        boxes.append(RawBox("Text", draw(grid_boxes()), runs=runs, scanned=draw(st.booleans())))
    return RawPage(boxes=boxes)


class TestIndexEqualsAllPairs:
    @given(pages(), st.lists(grid_boxes(), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_generated_pages(self, page, queries):
        runs = page.text_runs()
        index = RunIndex(runs)
        for box in queries:
            assert index.texts_in(box) == reference_texts_in(box, runs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_page_of_generated_corpora(self, seed):
        raws = generate_ntsb_corpus(10, seed=seed)[1] + generate_earnings_corpus(6, seed=seed + 50)[1]
        detector = SegmentationModel(seed=seed)
        asked = found = 0
        for raw in raws:
            for page_number, page in enumerate(raw.pages):
                runs = page.text_runs()
                index = RunIndex(runs)
                # What the partitioner asks about: padded detections and
                # the cells of every table on the page.
                boxes = [d.bbox.expand(4.0) for d in detector.detect(page, f"{raw.doc_id}:{page_number}")]
                for region in page.boxes:
                    if region.table is not None:
                        boxes.extend(c.bbox for c in region.table.cells if c.bbox is not None)
                for box in boxes:
                    expected = reference_texts_in(box, runs)
                    assert index.texts_in(box) == expected
                    asked += 1
                    found += len(expected)
        assert asked > 500 and found > 500


class TestPartitionOutputUnchanged:
    """``partition()`` with the index writes what it wrote with the loops."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"table_model": LOW_FIDELITY_TABLE_MODEL},
            {"merge_tables": False},
        ],
        ids=["high-fidelity", "low-fidelity", "no-merge"],
    )
    def test_same_output_modulo_generated_ids(self, kwargs, monkeypatch):
        raws = generate_ntsb_corpus(8, seed=11)[1] + generate_earnings_corpus(5, seed=12)[1]
        with_index = [ArynPartitioner(seed=1, **kwargs).partition(raw) for raw in raws]
        monkeypatch.setattr(partitioner_module, "RunIndex", ReferenceRunIndex)
        with_loops = [ArynPartitioner(seed=1, **kwargs).partition(raw) for raw in raws]
        for new, old in zip(with_index, with_loops):
            assert without_generated_ids(new) == without_generated_ids(old)
        assert sum(len(doc.tables) for doc in with_index) > 0
