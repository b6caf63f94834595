"""The hierarchical Document — the unit that DocSets are collections of.

Per the paper (§5.1): "a document in Sycamore is a tree, where each node
contains some content, which may be text or binary, an ordered list of
child nodes, and a set of JSON-like key-value properties." Leaf-level
nodes are :class:`~repro.docmodel.elements.Element` instances.

A freshly-read document may be a single node holding raw binary content;
after partitioning it becomes a tree of sections whose leaves are typed
elements. Documents are flexible enough to represent every processing
stage, which is what lets Sycamore blur the ETL/analytics line.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .elements import Element, new_id
from .raw import RawDocument


@dataclass
class Node:
    """An internal node of the document tree (e.g. a section or chapter).

    ``label`` names the structural role ("section", "page", ...); ``title``
    is human-readable. Children may be further nodes or leaf elements.
    """

    label: str = "section"
    title: str = ""
    children: List[Any] = field(default_factory=list)  # Node | Element
    properties: Dict[str, Any] = field(default_factory=dict)
    node_id: str = field(default_factory=new_id)

    def copy(self) -> "Node":
        """The subtree cloned: same ids, nodes and elements of its own."""
        return Node(
            label=self.label,
            title=self.title,
            children=[child.copy() for child in self.children],
            properties=dict(self.properties),
            node_id=self.node_id,
        )

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "kind": "Node",
            "label": self.label,
            "title": self.title,
            "node_id": self.node_id,
            "properties": self.properties,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Node":
        """Rebuild from a dictionary produced by ``to_dict``."""
        return cls(
            label=data.get("label", "section"),
            title=data.get("title", ""),
            node_id=data.get("node_id", new_id()),
            properties=dict(data.get("properties", {})),
            children=[_child_from_dict(c) for c in data.get("children", [])],
        )


def _child_from_dict(data: dict) -> Any:
    if data.get("kind") == "Node":
        return Node.from_dict(data)
    return Element.from_dict(data)


class SealedText:
    """A stored document's text views, rendered once per stored version.

    ``text`` is ``text_representation()`` as of the moment the document
    was stored. ``prompt_text`` is the form LLM transforms interpolate
    (prompt markers neutralised); whoever needs it first fills it, and
    since it is a pure function of ``text`` a race fills it with equal
    strings.
    """

    __slots__ = ("text", "prompt_text")

    def __init__(self, text: str):
        self.text = text
        self.prompt_text: Optional[str] = None


@dataclass
class Document:
    """A hierarchical, multi-modal document.

    ``doc_id`` is stable across transforms (lineage keys on it unless a
    transform explicitly creates derived documents). ``binary`` holds raw
    unparsed content (the just-read-a-PDF state); ``root`` holds the parsed
    semantic tree. ``properties`` carries extracted metadata — the target
    of ``extract_properties`` and the input to analytic transforms.

    A document just read from an in-memory :class:`RawDocument`
    (:meth:`from_raw`) holds that object, not its encoding: ``binary``
    encodes it each time something asks for the bytes (``to_dict``,
    pickling), and :meth:`raw_document` hands it to the partitioner as it
    is. A document read as bytes is parsed there, once.

    A document handed to a store is immutable from then on (every
    mutating transform works on a :meth:`copy`), so the store calls
    :meth:`seal` on it: the full text is rendered once and
    :meth:`text_representation` returns that string for as long as the
    object lives. The sealed view is not a field: equality, ``repr``,
    ``to_dict``, pickling, ``deepcopy``, :meth:`copy` and :meth:`derive`
    neither carry nor notice it.
    """

    doc_id: str = field(default_factory=new_id)
    binary: Optional[bytes] = None
    text: str = ""
    root: Optional[Node] = None
    properties: Dict[str, Any] = field(default_factory=dict)
    parent_id: Optional[str] = None

    #: The view :meth:`seal` left; ``None`` on an unstored document.
    #: Unannotated, so not a dataclass field.
    sealed = None

    # ------------------------------------------------------------------
    # Tree access
    # ------------------------------------------------------------------

    @property
    def elements(self) -> List[Element]:
        """All leaf elements in document order (empty before partitioning)."""
        if self.root is None:
            return []
        return list(_iter_elements(self.root))

    def walk(self) -> Iterator[Any]:
        """Depth-first, pre-order traversal yielding every node and element."""
        if self.root is None:
            return
        yield from _walk(self.root)

    def elements_of_type(self, element_type: str) -> List[Element]:
        """Leaf elements with the given layout type."""
        return [e for e in self.elements if e.type == element_type]

    @property
    def tables(self) -> List[Element]:
        """All table elements, in document order."""
        return self.elements_of_type("Table")

    @property
    def images(self) -> List[Element]:
        """All picture elements, in document order."""
        return self.elements_of_type("Picture")

    def find_elements(self, predicate: Callable[[Element], bool]) -> List[Element]:
        """Leaf elements satisfying an arbitrary predicate."""
        return [e for e in self.elements if predicate(e)]

    def num_pages(self) -> int:
        """Number of pages (0-based page indexes + 1)."""
        pages = [e.page for e in self.elements if e.page is not None]
        return max(pages) + 1 if pages else 0

    # ------------------------------------------------------------------
    # Text views
    # ------------------------------------------------------------------

    def text_representation(self, max_elements: Optional[int] = None) -> str:
        """The document rendered as plain text, element by element.

        This is what LLM transforms put in their prompts; ``max_elements``
        supports prompts that only need a prefix (e.g. extracting authors
        from the first page, per §5.2). The full text of a sealed
        (:meth:`seal`) document is the string rendered when it was
        stored; a prefix is always rendered from the tree.
        """
        if max_elements is None and self.sealed is not None:
            return self.sealed.text
        return self._render_text(max_elements)

    def _render_text(self, max_elements: Optional[int]) -> str:
        elements = self.elements
        if max_elements is not None:
            elements = elements[:max_elements]
        parts = [e.text_representation() for e in elements]
        if not parts and self.text:
            return self.text
        return "\n".join(part for part in parts if part)

    def seal(self) -> None:
        """Render the full text now and keep it as this object's view.

        Called by the stores (``DocStore.put``) on the object they keep;
        sealing again re-renders, so a document changed before it is
        stored a second time is seen as changed.
        """
        self.sealed = SealedText(self._render_text(None))

    # ------------------------------------------------------------------
    # Derivation and copying
    # ------------------------------------------------------------------

    def copy(self) -> "Document":
        """Structural copy safe to mutate without aliasing the original.

        Raw content is immutable by contract and shared, not copied. The
        copy is unsealed: it renders from its own tree.
        """
        clone = Document(
            doc_id=self.doc_id,
            binary=self._binary,
            text=self.text,
            root=self.root.copy() if self.root is not None else None,
            properties=copy.deepcopy(self.properties),
            parent_id=self.parent_id,
        )
        clone._raw = self._raw
        return clone

    def derive(self, **overrides: Any) -> "Document":
        """A new document derived from this one (new id, parent lineage set)."""
        child = self.copy()
        child.doc_id = new_id()
        child.parent_id = self.doc_id
        for key, value in overrides.items():
            setattr(child, key, value)
        return child

    # ------------------------------------------------------------------
    # Raw content
    # ------------------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: RawDocument) -> "Document":
        """The just-read state of an in-memory raw document (§5.1)."""
        document = cls(doc_id=raw.doc_id)
        document._raw = raw
        return document

    def raw_document(self) -> Optional[RawDocument]:
        """The raw document this one holds or encodes; ``None`` without
        raw content. The caller must not mutate it."""
        if self._raw is not None:
            return self._raw
        if self._binary is not None:
            return RawDocument.from_bytes(self._binary)
        return None

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # What crosses a process boundary is the declared fields, raw
        # content as bytes.
        return {
            "doc_id": self.doc_id,
            "binary": self.binary,
            "text": self.text,
            "root": self.root,
            "properties": self.properties,
            "parent_id": self.parent_id,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        data: Dict[str, Any] = {
            "doc_id": self.doc_id,
            "text": self.text,
            "properties": self.properties,
        }
        binary = self.binary
        if binary is not None:
            data["binary"] = binary.hex()
        if self.root is not None:
            data["root"] = self.root.to_dict()
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Document":
        """Rebuild from a dictionary produced by ``to_dict``."""
        return cls(
            doc_id=data.get("doc_id", new_id()),
            binary=bytes.fromhex(data["binary"]) if "binary" in data else None,
            text=data.get("text", ""),
            root=Node.from_dict(data["root"]) if "root" in data else None,
            properties=json.loads(json.dumps(data.get("properties", {}))),
            parent_id=data.get("parent_id"),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "Document":
        """Rebuild from a JSON string produced by ``to_json``."""
        return cls.from_dict(json.loads(payload))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_elements(
        cls,
        elements: List[Element],
        properties: Optional[Dict[str, Any]] = None,
        doc_id: Optional[str] = None,
    ) -> "Document":
        """Flat document: a root node whose children are the given elements."""
        doc = cls(
            root=Node(label="document", children=list(elements)),
            properties=dict(properties or {}),
        )
        if doc_id is not None:
            doc.doc_id = doc_id
        return doc

    @classmethod
    def from_text(cls, text: str, properties: Optional[Dict[str, Any]] = None) -> "Document":
        """Single-blob text document (the pre-partitioning state for text files)."""
        return cls(text=text, properties=dict(properties or {}))


def _get_binary(self: Document) -> Optional[bytes]:
    if self._binary is None and self._raw is not None:
        return self._raw.to_bytes()
    return self._binary


def _set_binary(self: Document, value: Optional[bytes]) -> None:
    self._binary = value
    self._raw = None


# ``binary`` stays a declared field, so it keeps its place in the
# generated ``__init__``, ``__eq__`` and ``__repr__``; a property in the
# class body would have been taken for the field's default.
Document.binary = property(  # type: ignore[assignment]
    _get_binary, _set_binary, doc="Raw unparsed content as bytes, or ``None``."
)


def _iter_elements(node: Node) -> Iterator[Element]:
    for child in node.children:
        if isinstance(child, Node):
            yield from _iter_elements(child)
        else:
            yield child


def _walk(node: Node) -> Iterator[Any]:
    yield node
    for child in node.children:
        if isinstance(child, Node):
            yield from _walk(child)
        else:
            yield child
