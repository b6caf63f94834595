"""The Aryn Partitioner: raw documents -> semantic document trees.

Pipeline per §4: a vision segmentation model proposes labelled regions;
text is attached to regions by geometric intersection with the page's
extracted runs; table regions go through cell-structure recovery and
cross-page merging; scanned regions go through OCR; picture regions get
image metadata and a textual summary hook. The result is the
tree-structured :class:`~repro.docmodel.document.Document` Sycamore
operates on, with sections grouped under their headers.

A :class:`NaiveTextPartitioner` is included as the text-extraction
baseline the paper argues against (§2): a flat stream of text chunks
with no structure, no table semantics, and no OCR.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..docmodel.bbox import BoundingBox, reading_order
from ..observability.metrics import get_registry
from ..docmodel.document import Document, Node
from ..docmodel.elements import Element, ImageElement, TableElement, make_element
from ..docmodel.raw import RawBox, RawDocument, RawPage
from ..docmodel.table import Table
from .ocr import ACCURATE_OCR, OcrConfig, SimulatedOCR
from .runs import RunIndex
from .segmentation import ARYN_DETECTOR, Detection, DetectorConfig, SegmentationModel
from .tables import (
    HIGH_FIDELITY_TABLE_MODEL,
    TableModelConfig,
    TableStructureModel,
    merge_continuation_tables,
)

#: Region labels excluded from a document's main text representation.
FURNITURE_LABELS = frozenset({"Page-header", "Page-footer"})


class ArynPartitioner:
    """Vision-based structure-aware partitioner.

    Parameters select the component models; defaults are the calibrated
    high-fidelity configuration. ``merge_tables`` toggles cross-page table
    repair (ablated in bench C6).
    """

    def __init__(
        self,
        detector: DetectorConfig = ARYN_DETECTOR,
        table_model: TableModelConfig = HIGH_FIDELITY_TABLE_MODEL,
        ocr: OcrConfig = ACCURATE_OCR,
        seed: int = 0,
        merge_tables: bool = True,
        summarize_images: bool = True,
    ):
        self._segmentation = SegmentationModel(config=detector, seed=seed)
        self._tables = TableStructureModel(config=table_model, seed=seed)
        self._ocr = SimulatedOCR(config=ocr, seed=seed)
        self.merge_tables = merge_tables
        self.summarize_images = summarize_images

    # ------------------------------------------------------------------

    def partition(self, source: "RawDocument | Document") -> Document:
        """Partition a raw document (or a Document holding raw content).

        The result is a new Document; ``source`` is left as it was.
        """
        start = time.perf_counter()
        raw, document = _raw_and_shell(source)
        elements: List[Element] = []
        for page_number, page in enumerate(raw.pages):
            page_key = f"{raw.doc_id}:{page_number}"
            detections = self._segmentation.detect(page, page_key=page_key)
            page_elements = self._detections_to_elements(
                detections, page, RunIndex(page.text_runs()), page_number, page_key
            )
            elements.extend(page_elements)
        if self.merge_tables:
            elements = self._merge_cross_page_tables(elements)
        root = build_section_tree(elements)
        registry = get_registry()
        registry.counter("partitioner.documents").inc()
        registry.counter("partitioner.pages").inc(raw.num_pages())
        registry.counter("partitioner.elements").inc(len(elements))
        registry.histogram("partitioner.partition_s").observe(
            time.perf_counter() - start
        )
        document.root = root
        document.properties.setdefault("path", raw.source_path)
        document.properties["num_pages"] = raw.num_pages()
        return document

    # ------------------------------------------------------------------

    def _detections_to_elements(
        self,
        detections: List[Detection],
        page: RawPage,
        runs: RunIndex,
        page_number: int,
        page_key: str,
    ) -> List[Element]:
        elements: List[Element] = []
        boxes: List[BoundingBox] = []
        for det_index, detection in enumerate(detections):
            region = _best_region(detection.bbox, page)
            element = self._build_element(
                detection, region, runs, page_number, f"{page_key}:{det_index}"
            )
            if element is None:
                continue
            element.properties["confidence"] = round(detection.confidence, 3)
            elements.append(element)
            boxes.append(element.bbox)
        order = reading_order(boxes, row_tolerance=6.0)
        return [elements[i] for i in order]

    def _build_element(
        self,
        detection: Detection,
        region: Optional[RawBox],
        runs: RunIndex,
        page_number: int,
        key: str,
    ) -> Optional[Element]:
        label = detection.label
        if label == "Table":
            table = None
            continues = False
            if region is not None and region.table is not None:
                table = self._tables.recover(region, runs, region_key=key)
                continues = region.continues_previous
            if table is None:
                # Detected a table where cell structure could not be
                # recovered: degrade to a text element over the region.
                label = "Text"
            else:
                element = make_element(
                    "Table",
                    text=table.to_text(),
                    bbox=detection.bbox,
                    page=page_number,
                    table=table,
                )
                element.properties["continues_previous"] = continues
                return element
        if label == "Picture":
            if region is not None and region.image_format is not None:
                summary = region.image_description if self.summarize_images else None
                element = make_element(
                    "Picture",
                    bbox=detection.bbox,
                    page=page_number,
                    format=region.image_format,
                    width_px=region.image_width_px,
                    height_px=region.image_height_px,
                    summary=summary,
                )
                if region.scanned and region.runs:
                    # Image containing printed text: OCR it into the text slot.
                    element.text = self._ocr.read_region(region, region_key=key)
                return element
            label = "Text"  # picture false positive over a text area
        # Text-like labels: attach the runs geometrically inside the box.
        if region is not None and region.scanned:
            text = self._ocr.read_region(region, region_key=key)
        else:
            text = _text_in_box(detection.bbox, runs)
        if not text.strip():
            return None
        return make_element(label, text=text, bbox=detection.bbox, page=page_number)

    def _merge_cross_page_tables(self, elements: List[Element]) -> List[Element]:
        table_elements = [e for e in elements if isinstance(e, TableElement)]
        if not table_elements:
            return elements
        tables = [e.table for e in table_elements]
        flags = [bool(e.properties.get("continues_previous")) for e in table_elements]
        merged = merge_continuation_tables(tables, flags)
        if len(merged) == len(tables):
            for element, table in zip(table_elements, merged):
                element.table = table
            return elements
        # Some fragments were absorbed: rebuild the element list, keeping
        # the first fragment of each merged table and dropping the rest.
        result: List[Element] = []
        merged_iter = iter(merged)
        current: Optional[TableElement] = None
        for element in elements:
            if not isinstance(element, TableElement):
                result.append(element)
                continue
            if bool(element.properties.get("continues_previous")) and current is not None:
                continue  # absorbed into the previous fragment
            current = element
            current.table = next(merged_iter)
            current.text = current.table.to_text()
            result.append(current)
        return result


def _raw_and_shell(source: "RawDocument | Document") -> Tuple[RawDocument, Document]:
    """What to parse, and a new Document to put the tree in.

    The shell takes the raw document's id and, from a source Document,
    its text, properties and lineage; it holds no raw content.
    """
    if isinstance(source, RawDocument):
        return source, Document(doc_id=source.doc_id)
    if isinstance(source, Document):
        raw = source.raw_document()
        if raw is None:
            raise ValueError("partition() on a Document requires raw binary content")
        return raw, Document(
            doc_id=raw.doc_id,
            text=source.text,
            properties=copy.deepcopy(source.properties),
            parent_id=source.parent_id,
        )
    raise TypeError(f"cannot partition {type(source).__name__}")


def _best_region(bbox: BoundingBox, page: RawPage) -> Optional[RawBox]:
    """The ground region best overlapping a detection, if any."""
    best: Optional[RawBox] = None
    best_iou = 0.0
    for region in page.boxes:
        iou = bbox.iou(region.bbox)
        if iou > best_iou:
            best_iou = iou
            best = region
    if best_iou < 0.2:
        return None
    return best


def _text_in_box(bbox: BoundingBox, runs: RunIndex, margin: float = 4.0) -> str:
    """All machine-readable text geometrically inside a detection box.

    The box is padded by a small margin first: detector jitter routinely
    clips the first/last line of a region, and production partitioners
    pad for exactly this reason.
    """
    return "\n".join(runs.texts_in(bbox.expand(margin)))


def build_section_tree(elements: List[Element]) -> Node:
    """Group a flat element stream into sections under their headers.

    Title and page furniture stay at the root; each Section-header opens
    a new section node that collects subsequent elements until the next
    header.
    """
    root = Node(label="document")
    current: Optional[Node] = None
    for element in elements:
        if element.type in FURNITURE_LABELS or element.type == "Title":
            root.children.append(element)
            continue
        if element.type == "Section-header":
            current = Node(label="section", title=element.text)
            current.children.append(element)
            root.children.append(current)
            continue
        if current is not None:
            current.children.append(element)
        else:
            root.children.append(element)
    return root


@dataclass
class NaiveTextPartitioner:
    """Structure-blind text extraction baseline.

    Emits fixed-size text chunks in raw run order; tables lose their grid
    (cells interleave as bare strings), scanned text is lost entirely, and
    cross-page table headers are not repaired. Used by bench C6 to show
    why structure-aware partitioning matters.
    """

    chunk_chars: int = 1200

    def partition(self, source: "RawDocument | Document") -> Document:
        """Parse a raw document into a new, flat Document of text chunks."""
        raw, document = _raw_and_shell(source)
        text = raw.all_text()
        elements = []
        for start in range(0, max(len(text), 1), self.chunk_chars):
            chunk = text[start : start + self.chunk_chars]
            if chunk.strip():
                elements.append(make_element("Text", text=chunk, page=None))
        document.root = Node(label="document", children=elements)
        document.properties["num_pages"] = raw.num_pages()
        return document
