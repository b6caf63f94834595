"""The Aryn Partitioner (paper §4): vision-based document segmentation,
table structure recovery, OCR, and the naive-extraction baseline.
"""

from .ocr import ACCURATE_OCR, POOR_OCR, OcrConfig, SimulatedOCR
from .partitioner import ArynPartitioner, NaiveTextPartitioner, build_section_tree
from .runs import RunIndex
from .segmentation import (
    ARYN_DETECTOR,
    CLOUD_BASELINE_DETECTOR,
    Detection,
    DetectorConfig,
    SegmentationModel,
)
from .tables import (
    HIGH_FIDELITY_TABLE_MODEL,
    LOW_FIDELITY_TABLE_MODEL,
    TableModelConfig,
    TableStructureModel,
    extract_cell_text,
    merge_continuation_tables,
)

__all__ = [
    "ACCURATE_OCR",
    "ARYN_DETECTOR",
    "ArynPartitioner",
    "CLOUD_BASELINE_DETECTOR",
    "Detection",
    "DetectorConfig",
    "HIGH_FIDELITY_TABLE_MODEL",
    "LOW_FIDELITY_TABLE_MODEL",
    "NaiveTextPartitioner",
    "OcrConfig",
    "POOR_OCR",
    "RunIndex",
    "SegmentationModel",
    "SimulatedOCR",
    "TableModelConfig",
    "TableStructureModel",
    "build_section_tree",
    "extract_cell_text",
    "merge_continuation_tables",
]
