"""Element types of the Sycamore document tree.

Per the paper (§5.1), a document is a tree whose nodes carry content (text
or binary), an ordered list of children, and JSON-like properties. Leaf
nodes are *elements* corresponding to concrete chunks — paragraphs, titles,
tables, images — and some element types have reserved, type-specific
properties: a ``TableElement`` carries the recovered :class:`~repro.docmodel.table.Table`
structure, an ``ImageElement`` carries format and resolution.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from .bbox import BoundingBox
from .table import Table

#: The layout label vocabulary, modelled on DocLayNet's 11 categories
#: (the dataset the paper's Deformable-DETR partitioner model is trained on).
ELEMENT_TYPES = (
    "Text",
    "Title",
    "Section-header",
    "Table",
    "Picture",
    "Caption",
    "List-item",
    "Page-header",
    "Page-footer",
    "Footnote",
    "Formula",
)


def new_id() -> str:
    """Fresh unique identifier for documents and elements."""
    return uuid.uuid4().hex


@dataclass
class Element:
    """A leaf chunk of a document: some content plus metadata.

    ``type`` is one of :data:`ELEMENT_TYPES` (unknown types are allowed but
    treated as plain text by downstream transforms). ``bbox`` locates the
    element on its page; ``page`` is the 0-based page number.
    """

    type: str = "Text"
    text: str = ""
    binary: Optional[bytes] = None
    bbox: Optional[BoundingBox] = None
    page: Optional[int] = None
    properties: Dict[str, Any] = field(default_factory=dict)
    element_id: str = field(default_factory=new_id)

    def text_representation(self) -> str:
        """The element rendered as plain text (what an LLM prompt would see)."""
        return self.text

    def copy(self) -> "Element":
        """Deep-enough copy: properties dict is copied, content is shared."""
        return type(self)(**self._copy_kwargs())

    def _copy_kwargs(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "text": self.text,
            "binary": self.binary,
            "bbox": self.bbox,
            "page": self.page,
            "properties": dict(self.properties),
            "element_id": self.element_id,
        }

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        data: Dict[str, Any] = {
            "kind": type(self).__name__,
            "type": self.type,
            "text": self.text,
            "element_id": self.element_id,
            "properties": self.properties,
        }
        if self.binary is not None:
            data["binary"] = self.binary.hex()
        if self.bbox is not None:
            data["bbox"] = self.bbox.to_dict()
        if self.page is not None:
            data["page"] = self.page
        data.update(self._extra_dict())
        return data

    def _extra_dict(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_dict(cls, data: dict) -> "Element":
        """Rebuild from a dictionary produced by ``to_dict``."""
        kind = data.get("kind", "Element")
        klass = _ELEMENT_KINDS.get(kind, Element)
        return klass._build(data)

    @classmethod
    def _build(cls, data: dict) -> "Element":
        return cls(**cls._base_kwargs(data))

    @staticmethod
    def _base_kwargs(data: dict) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {
            "type": data.get("type", "Text"),
            "text": data.get("text", ""),
            "properties": dict(data.get("properties", {})),
            "element_id": data.get("element_id", new_id()),
        }
        if "binary" in data:
            kwargs["binary"] = bytes.fromhex(data["binary"])
        if "bbox" in data:
            kwargs["bbox"] = BoundingBox.from_dict(data["bbox"])
        if "page" in data:
            kwargs["page"] = data["page"]
        return kwargs


@dataclass
class TableElement(Element):
    """A table chunk carrying the recovered cell structure.

    Reserved properties per the paper: rows and columns are exposed through
    the embedded :class:`Table`; :meth:`text_representation` renders the grid
    so LLM transforms can consume tables as text.
    """

    table: Table = field(default_factory=Table)

    def __post_init__(self) -> None:
        self.type = "Table"

    @property
    def num_rows(self) -> int:
        """Number of grid rows."""
        return self.table.num_rows

    @property
    def num_cols(self) -> int:
        """Number of grid columns."""
        return self.table.num_cols

    def text_representation(self) -> str:
        """The content rendered as plain text."""
        rendered = self.table.to_text()
        if self.table.caption:
            return f"{self.table.caption}\n{rendered}"
        return rendered

    def _copy_kwargs(self) -> Dict[str, Any]:
        kwargs = super()._copy_kwargs()
        kwargs["table"] = self.table.copy()
        return kwargs

    def _extra_dict(self) -> Dict[str, Any]:
        return {"table": self.table.to_dict()}

    @classmethod
    def _build(cls, data: dict) -> "TableElement":
        kwargs = cls._base_kwargs(data)
        kwargs["table"] = Table.from_dict(data.get("table", {"cells": []}))
        return cls(**kwargs)


@dataclass
class ImageElement(Element):
    """An image chunk with format/resolution metadata and an optional summary.

    The partitioner can attach a textual ``summary`` (the paper uses
    multi-modal LLMs for this) which then participates in text processing.
    """

    format: str = "png"
    width_px: int = 0
    height_px: int = 0
    summary: Optional[str] = None

    def __post_init__(self) -> None:
        self.type = "Picture"

    @property
    def resolution(self) -> tuple:
        """Pixel dimensions as ``(width, height)``."""
        return (self.width_px, self.height_px)

    def text_representation(self) -> str:
        """The content rendered as plain text."""
        if self.summary:
            return f"[image: {self.summary}]"
        return "[image]"

    def _copy_kwargs(self) -> Dict[str, Any]:
        kwargs = super()._copy_kwargs()
        kwargs.update(
            format=self.format,
            width_px=self.width_px,
            height_px=self.height_px,
            summary=self.summary,
        )
        return kwargs

    def _extra_dict(self) -> Dict[str, Any]:
        extra: Dict[str, Any] = {
            "format": self.format,
            "width_px": self.width_px,
            "height_px": self.height_px,
        }
        if self.summary is not None:
            extra["summary"] = self.summary
        return extra

    @classmethod
    def _build(cls, data: dict) -> "ImageElement":
        kwargs = cls._base_kwargs(data)
        kwargs.update(
            format=data.get("format", "png"),
            width_px=data.get("width_px", 0),
            height_px=data.get("height_px", 0),
            summary=data.get("summary"),
        )
        return cls(**kwargs)


_ELEMENT_KINDS: Dict[str, Type[Element]] = {
    "Element": Element,
    "TableElement": TableElement,
    "ImageElement": ImageElement,
}


def make_element(
    type: str,
    text: str = "",
    bbox: Optional[BoundingBox] = None,
    page: Optional[int] = None,
    properties: Optional[Dict[str, Any]] = None,
    table: Optional[Table] = None,
    **image_kwargs: Any,
) -> Element:
    """Factory that picks the right Element subclass for a layout label."""
    props = dict(properties or {})
    if type == "Table":
        return TableElement(
            text=text,
            bbox=bbox,
            page=page,
            properties=props,
            table=table if table is not None else Table(),
        )
    if type == "Picture":
        return ImageElement(text=text, bbox=bbox, page=page, properties=props, **image_kwargs)
    return Element(type=type, text=text, bbox=bbox, page=page, properties=props)
