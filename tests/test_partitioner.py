"""Tests for the Aryn Partitioner stack: segmentation, tables, OCR, trees."""

import random

import pytest

from repro.datagen import generate_ntsb_corpus
from repro.datagen.render import PageLayouter
from repro.docmodel import BoundingBox, Document, RawDocument, TableElement
from repro.partitioner import (
    TableModelConfig,
    ACCURATE_OCR,
    ARYN_DETECTOR,
    ArynPartitioner,
    CLOUD_BASELINE_DETECTOR,
    DetectorConfig,
    HIGH_FIDELITY_TABLE_MODEL,
    LOW_FIDELITY_TABLE_MODEL,
    NaiveTextPartitioner,
    POOR_OCR,
    RunIndex,
    SegmentationModel,
    SimulatedOCR,
    TableStructureModel,
    build_section_tree,
    extract_cell_text,
    merge_continuation_tables,
)
from repro.docmodel.elements import Element
from repro.docmodel.raw import RawTextRun
from repro.docmodel.table import Table


@pytest.fixture(scope="module")
def report_doc():
    _, docs = generate_ntsb_corpus(1, seed=55)
    return docs[0]


class TestSegmentationModel:
    def test_deterministic(self, report_doc):
        model = SegmentationModel(ARYN_DETECTOR, seed=1)
        a = model.detect(report_doc.pages[0], page_key="k")
        b = model.detect(report_doc.pages[0], page_key="k")
        assert a == b

    def test_page_key_varies_noise(self, report_doc):
        model = SegmentationModel(ARYN_DETECTOR, seed=1)
        a = model.detect(report_doc.pages[0], page_key="k1")
        b = model.detect(report_doc.pages[0], page_key="k2")
        assert a != b

    def test_sorted_by_confidence(self, report_doc):
        model = SegmentationModel(ARYN_DETECTOR, seed=0)
        dets = model.detect(report_doc.pages[0], page_key="x")
        confidences = [d.confidence for d in dets]
        assert confidences == sorted(confidences, reverse=True)

    def test_perfect_detector_recovers_all_regions(self, report_doc):
        perfect = DetectorConfig(
            name="perfect",
            detect_prob=1.0,
            jitter_frac=0.0,
            label_confusion=0.0,
            false_positives_per_page=0.0,
            confidence_noise=0.0,
        )
        model = SegmentationModel(perfect, seed=0)
        page = report_doc.pages[0]
        dets = model.detect(page, page_key="x")
        assert len(dets) == len(page.boxes)
        truth = sorted((b.label, b.bbox.to_tuple()) for b in page.boxes)
        got = sorted((d.label, d.bbox.to_tuple()) for d in dets)
        assert truth == got

    def test_weak_detector_finds_fewer(self, report_doc):
        strong = SegmentationModel(ARYN_DETECTOR, seed=0)
        weak = SegmentationModel(CLOUD_BASELINE_DETECTOR, seed=0)
        page = report_doc.pages[0]
        n_true = len(page.boxes)
        # Count detections that match a true region's label closely enough.
        def matched(model):
            count = 0
            for det in model.detect(page, page_key="x"):
                for box in page.boxes:
                    if det.label == box.label and det.bbox.iou(box.bbox) > 0.5:
                        count += 1
                        break
            return count

        assert matched(strong) > matched(weak)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DetectorConfig(name="bad", detect_prob=0.5, jitter_frac=0.0,
                           label_confusion=0.0, false_positives_per_page=0.0,
                           confidence_correct=2.0)
        with pytest.raises(ValueError):
            DetectorConfig(name="bad", detect_prob=1.5)
        with pytest.raises(ValueError):
            DetectorConfig(name="bad", jitter_frac=-0.1)


class TestTableRecovery:
    def _table_page(self):
        layout = PageLayouter()
        layout.add_table([["Name", "Qty"], ["bolt", "4"], ["nut", "8"]])
        return layout.build("t").pages[0]

    def test_high_fidelity_recovers_grid(self):
        page = self._table_page()
        region = next(b for b in page.boxes if b.label == "Table")
        model = TableStructureModel(HIGH_FIDELITY_TABLE_MODEL, seed=0)
        table = model.recover(region, RunIndex(page.text_runs()), region_key="k")
        assert table.to_records() == [
            {"Name": "bolt", "Qty": "4"},
            {"Name": "nut", "Qty": "8"},
        ]

    def test_low_fidelity_loses_cells(self):
        page = self._table_page()
        region = next(b for b in page.boxes if b.label == "Table")
        high = TableStructureModel(HIGH_FIDELITY_TABLE_MODEL, seed=3)
        low = TableStructureModel(LOW_FIDELITY_TABLE_MODEL, seed=3)
        # Measure over many seeds: low fidelity must lose strictly more text.
        high_cells = low_cells = 0
        runs = RunIndex(page.text_runs())
        for seed in range(30):
            high_cells += len(
                TableStructureModel(HIGH_FIDELITY_TABLE_MODEL, seed=seed)
                .recover(region, runs, "k").cells
            )
            recovered = TableStructureModel(LOW_FIDELITY_TABLE_MODEL, seed=seed).recover(
                region, runs, "k"
            )
            low_cells += len(recovered.cells) if recovered else 0
        assert low_cells < high_cells

    def test_non_table_region_returns_none(self):
        page = self._table_page()
        region = next(b for b in page.boxes if b.label == "Page-footer")
        assert region.table is None
        model = TableStructureModel()
        assert model.recover(region, RunIndex(page.text_runs())) is None

    def test_extract_cell_text_geometry(self):
        runs = [
            RawTextRun("inside", BoundingBox(1, 1, 5, 3)),
            RawTextRun("outside", BoundingBox(50, 50, 60, 55)),
        ]
        assert extract_cell_text(BoundingBox(0, 0, 10, 10), RunIndex(runs)) == "inside"


class TestMergeContinuation:
    def test_merges_compatible_fragments(self):
        first = Table.from_rows([["H1", "H2"], ["a", "1"]])
        second = Table.from_rows([["b", "2"]], header=False)
        merged = merge_continuation_tables([first, second], [False, True])
        assert len(merged) == 1
        assert merged[0].num_rows == 3

    def test_incompatible_fragment_kept_separate(self):
        first = Table.from_rows([["H1", "H2"], ["a", "1"]])
        odd = Table.from_rows([["x", "y", "z"]], header=False)
        merged = merge_continuation_tables([first, odd], [False, True])
        assert len(merged) == 2

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            merge_continuation_tables([Table()], [True, False])


class TestOCR:
    def test_clean_region_reads_verbatim(self, report_doc):
        box = report_doc.pages[0].boxes[0]
        ocr = SimulatedOCR(ACCURATE_OCR, seed=0)
        assert ocr.read_region(box) == box.text()

    def test_scanned_region_gets_noise(self):
        rng = random.Random(0)
        ocr = SimulatedOCR(POOR_OCR, seed=0)
        original = "the quick brown fox jumps over the lazy dog" * 5
        corrupted = ocr.corrupt(original, rng)
        assert corrupted != original
        # but it is recognisably the same text
        import difflib

        ratio = difflib.SequenceMatcher(
            None, original, corrupted, autojunk=False
        ).ratio()
        assert ratio > 0.4  # degraded but recognisable
        accurate = SimulatedOCR(ACCURATE_OCR, seed=0).corrupt(
            original, random.Random(0)
        )
        accurate_ratio = difflib.SequenceMatcher(
            None, original, accurate, autojunk=False
        ).ratio()
        assert accurate_ratio > ratio

    def test_accurate_ocr_better_than_poor(self):
        original = "hello world this is a scanned page of text" * 10
        def errors(config):
            corrupted = SimulatedOCR(config, seed=1).corrupt(
                original, random.Random(1)
            )
            return sum(1 for a, b in zip(original, corrupted) if a != b) + abs(
                len(original) - len(corrupted)
            )
        assert errors(ACCURATE_OCR) < errors(POOR_OCR)


class TestSectionTree:
    def test_sections_group_under_headers(self):
        elements = [
            Element(type="Title", text="T"),
            Element(type="Section-header", text="Intro"),
            Element(type="Text", text="p1"),
            Element(type="Section-header", text="Methods"),
            Element(type="Text", text="p2"),
            Element(type="Page-footer", text="1"),
        ]
        root = build_section_tree(elements)
        sections = [c for c in root.children if getattr(c, "label", None) == "section"]
        assert [s.title for s in sections] == ["Intro", "Methods"]
        assert sections[0].children[1].text == "p1"

    def test_orphan_elements_stay_at_root(self):
        elements = [Element(type="Text", text="stray")]
        root = build_section_tree(elements)
        assert root.children[0].text == "stray"


class TestArynPartitionerEndToEnd:
    def test_partition_produces_tree(self, report_doc):
        doc = ArynPartitioner(seed=0).partition(report_doc)
        assert doc.doc_id == report_doc.doc_id
        assert doc.root is not None
        assert len(doc.elements) > 5
        assert doc.properties["num_pages"] == report_doc.num_pages()

    def test_partition_document_with_binary(self, report_doc):
        wrapped = Document(doc_id=report_doc.doc_id, binary=report_doc.to_bytes())
        doc = ArynPartitioner(seed=0).partition(wrapped)
        assert doc.binary is None
        assert doc.elements

    def test_partition_without_binary_rejected(self):
        with pytest.raises(ValueError):
            ArynPartitioner().partition(Document.from_text("no binary"))

    def test_partition_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            ArynPartitioner().partition("a string")

    def test_tables_recovered_with_structure(self, report_doc):
        doc = ArynPartitioner(
            detector=DetectorConfig(
                name="perfect", detect_prob=1.0, jitter_frac=0.0,
                label_confusion=0.0, false_positives_per_page=0.0,
                confidence_noise=0.0,
            ),
            seed=0,
        ).partition(report_doc)
        tables = [e for e in doc.elements if isinstance(e, TableElement)]
        assert tables
        injuries = next(
            (t for t in tables if "Fatal" in t.table.to_text()), None
        )
        assert injuries is not None
        assert injuries.table.num_cols == 2

    def test_cross_page_table_merged(self):
        layout = PageLayouter()
        layout.add_paragraphs(["filler " * 320])
        rows = [["Part", "Qty"]] + [[f"part-{i}", str(i)] for i in range(60)]
        layout.add_table(rows)
        raw = layout.build("split-doc")
        fragments = [
            b for p in raw.pages for b in p.boxes if b.label == "Table"
        ]
        assert len(fragments) >= 2  # the corpus really split the table
        partitioner = ArynPartitioner(
            detector=DetectorConfig(
                name="perfect", detect_prob=1.0, jitter_frac=0.0,
                label_confusion=0.0, false_positives_per_page=0.0,
                confidence_noise=0.0,
            ),
            table_model=TableModelConfig(
                name="perfect-tables", cell_miss_prob=0.0, row_merge_prob=0.0
            ),
            seed=0,
        )
        doc = partitioner.partition(raw)
        tables = [e for e in doc.elements if isinstance(e, TableElement)]
        assert len(tables) == 1
        assert tables[0].table.num_rows == 61
        # the merged table answers a lookup that spans the page break
        assert tables[0].table.lookup("Part", "part-55", "Qty") == ["55"]

    def test_merge_disabled_keeps_fragments(self):
        layout = PageLayouter()
        layout.add_paragraphs(["filler " * 320])
        rows = [["Part", "Qty"]] + [[f"p{i}", str(i)] for i in range(60)]
        layout.add_table(rows)
        raw = layout.build("split-doc-2")
        partitioner = ArynPartitioner(
            detector=DetectorConfig(
                name="perfect", detect_prob=1.0, jitter_frac=0.0,
                label_confusion=0.0, false_positives_per_page=0.0,
                confidence_noise=0.0,
            ),
            seed=0,
            merge_tables=False,
        )
        doc = partitioner.partition(raw)
        tables = [e for e in doc.elements if isinstance(e, TableElement)]
        assert len(tables) >= 2

    def test_image_summary_attached(self, report_doc):
        doc = ArynPartitioner(seed=0, summarize_images=True).partition(report_doc)
        images = doc.images
        if images:  # detection of the picture is probabilistic
            assert any("accident site" in (i.summary or "") for i in images)

    def test_deterministic_partitioning(self, report_doc):
        a = ArynPartitioner(seed=4).partition(report_doc)
        b = ArynPartitioner(seed=4).partition(report_doc)
        assert [e.text for e in a.elements] == [e.text for e in b.elements]


class TestNaiveBaseline:
    def test_flat_chunks_no_tables(self, report_doc):
        doc = NaiveTextPartitioner(chunk_chars=500).partition(report_doc)
        assert doc.tables == []
        assert all(e.type == "Text" for e in doc.elements)
        assert len(doc.elements) >= 2

    def test_loses_scanned_text(self):
        layout = PageLayouter()
        layout.add_image("scan", contains_text="only visible to ocr")
        raw = layout.build("scan-doc")
        naive = NaiveTextPartitioner().partition(raw)
        assert "only visible" not in naive.text_representation()
