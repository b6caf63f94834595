"""Unit tests for Document, Node, and Element types."""

import pickle

import pytest

from repro.datagen import generate_ntsb_corpus
from repro.docmodel import (
    BoundingBox,
    Document,
    ELEMENT_TYPES,
    Element,
    ImageElement,
    Node,
    RawDocument,
    Table,
    TableElement,
    make_element,
)
from repro.partitioner import ArynPartitioner
from repro.sycamore import SycamoreContext


class TestElement:
    def test_defaults(self):
        element = Element()
        assert element.type == "Text"
        assert element.text_representation() == ""
        assert element.element_id

    def test_copy_is_independent(self):
        element = Element(text="hi", properties={"a": 1})
        clone = element.copy()
        clone.properties["a"] = 2
        assert element.properties["a"] == 1
        assert clone.element_id == element.element_id

    def test_dict_roundtrip(self):
        element = Element(
            type="Caption",
            text="fig",
            bbox=BoundingBox(0, 0, 1, 1),
            page=3,
            properties={"k": "v"},
            binary=b"\x00\x01",
        )
        restored = Element.from_dict(element.to_dict())
        assert restored.type == "Caption"
        assert restored.text == "fig"
        assert restored.bbox == element.bbox
        assert restored.page == 3
        assert restored.binary == b"\x00\x01"

    def test_element_types_cover_doclaynet(self):
        assert len(ELEMENT_TYPES) == 11
        assert "Table" in ELEMENT_TYPES and "Picture" in ELEMENT_TYPES


class TestTableElement:
    def test_reserved_properties(self, simple_table):
        element = TableElement(table=simple_table)
        assert element.type == "Table"
        assert element.num_rows == 3
        assert element.num_cols == 2

    def test_text_representation_includes_caption(self, simple_table):
        element = TableElement(table=simple_table)
        rep = element.text_representation()
        assert rep.startswith("test table")
        assert "alpha | 1" in rep

    def test_roundtrip_preserves_table(self, simple_table):
        element = TableElement(table=simple_table)
        restored = Element.from_dict(element.to_dict())
        assert isinstance(restored, TableElement)
        assert restored.table.to_grid() == simple_table.to_grid()

    def test_copy_deep_copies_table(self, simple_table):
        element = TableElement(table=simple_table)
        clone = element.copy()
        clone.table.cells[0].text = "changed"
        assert simple_table.cells[0].text == "Name"


class TestImageElement:
    def test_reserved_properties(self):
        element = ImageElement(format="jpeg", width_px=640, height_px=480)
        assert element.type == "Picture"
        assert element.resolution == (640, 480)

    def test_text_representation_uses_summary(self):
        element = ImageElement(summary="a cat on a mat")
        assert "a cat on a mat" in element.text_representation()
        assert ImageElement().text_representation() == "[image]"

    def test_roundtrip(self):
        element = ImageElement(format="png", width_px=10, height_px=20, summary="s")
        restored = Element.from_dict(element.to_dict())
        assert isinstance(restored, ImageElement)
        assert restored.summary == "s"
        assert restored.resolution == (10, 20)


class TestMakeElement:
    def test_dispatch(self, simple_table):
        assert isinstance(make_element("Table", table=simple_table), TableElement)
        assert isinstance(make_element("Picture"), ImageElement)
        assert type(make_element("Text", text="t")) is Element

    def test_unknown_label_is_plain_element(self):
        element = make_element("Exotic", text="t")
        assert element.type == "Exotic"


class TestDocumentTree:
    def _tree_doc(self):
        section = Node(
            label="section",
            title="Analysis",
            children=[Element(text="para1"), Element(type="Caption", text="cap")],
        )
        root = Node(label="document", children=[Element(type="Title", text="T"), section])
        return Document(root=root, properties={"k": 1})

    def test_elements_in_order(self):
        doc = self._tree_doc()
        assert [e.text for e in doc.elements] == ["T", "para1", "cap"]

    def test_walk_yields_nodes_and_elements(self):
        doc = self._tree_doc()
        kinds = [type(x).__name__ for x in doc.walk()]
        assert kinds == ["Node", "Element", "Node", "Element", "Element"]

    def test_elements_of_type(self):
        doc = self._tree_doc()
        assert len(doc.elements_of_type("Caption")) == 1
        assert doc.tables == []

    def test_find_elements(self):
        doc = self._tree_doc()
        found = doc.find_elements(lambda e: "para" in e.text)
        assert len(found) == 1

    def test_empty_document(self):
        doc = Document()
        assert doc.elements == []
        assert list(doc.walk()) == []
        assert doc.num_pages() == 0

    def test_num_pages(self):
        doc = Document.from_elements([Element(page=0), Element(page=2)])
        assert doc.num_pages() == 3


class TestDocumentText:
    def test_text_representation_prefix(self):
        doc = Document.from_elements([Element(text=f"e{i}") for i in range(5)])
        assert doc.text_representation(max_elements=2) == "e0\ne1"

    def test_text_representation_falls_back_to_text(self):
        doc = Document.from_text("raw body")
        assert doc.text_representation() == "raw body"


class TestDocumentSerde:
    def test_roundtrip(self, simple_table):
        doc = Document.from_elements(
            [Element(text="a"), TableElement(table=simple_table)],
            properties={"nested": {"x": [1, 2]}},
        )
        doc.binary = b"\xff\x00"
        restored = Document.from_json(doc.to_json())
        assert restored.doc_id == doc.doc_id
        assert restored.binary == doc.binary
        assert restored.properties == doc.properties
        assert [e.text for e in restored.elements] == [e.text for e in doc.elements]
        assert isinstance(restored.elements[1], TableElement)

    def test_copy_does_not_alias(self):
        doc = Document.from_elements([Element(text="a")], properties={"p": [1]})
        clone = doc.copy()
        clone.properties["p"].append(2)
        assert doc.properties["p"] == [1]

    def test_derive_sets_lineage(self):
        doc = Document.from_text("x")
        child = doc.derive(text="y")
        assert child.parent_id == doc.doc_id
        assert child.doc_id != doc.doc_id
        assert child.text == "y"


class TestJustReadDocument:
    """A document read from an in-memory raw document holds the object:
    bytes on demand, parsed at most once."""

    @pytest.fixture(scope="class")
    def raw(self):
        return generate_ntsb_corpus(1, seed=9)[1][0]

    def test_binary_is_encoded_when_asked(self, raw):
        doc = Document.from_raw(raw)
        assert doc.doc_id == raw.doc_id
        assert doc.raw_document() is raw
        assert doc.binary == raw.to_bytes()
        assert doc.to_dict()["binary"] == raw.to_bytes().hex()
        assert doc == Document(doc_id=raw.doc_id, binary=raw.to_bytes())

    def test_bytes_only_document_is_parsed_by_raw_document(self, raw):
        doc = Document(doc_id=raw.doc_id, binary=raw.to_bytes())
        assert doc.raw_document() == raw
        assert Document.from_text("no raw content").raw_document() is None

    def test_assigning_binary_replaces_the_raw_document(self, raw):
        doc = Document.from_raw(raw)
        doc.binary = b"other"
        assert doc.binary == b"other"
        doc.binary = None
        assert doc.binary is None and doc.raw_document() is None

    def test_pickle_and_copy_carry_the_content(self, raw):
        doc = Document.from_raw(raw)
        restored = pickle.loads(pickle.dumps(doc))
        assert restored.binary == raw.to_bytes()
        assert restored == doc
        assert doc.copy().raw_document() is raw
        assert doc.derive().binary == raw.to_bytes()

    def test_read_raw_then_partition_encodes_and_parses_nothing(self, raw, monkeypatch):
        def refuse(*_args):
            raise AssertionError("read.raw(...).partition(...) serialised a raw document")

        monkeypatch.setattr(RawDocument, "to_bytes", refuse)
        monkeypatch.setattr(RawDocument, "from_bytes", refuse)
        with SycamoreContext(parallelism=1) as ctx:
            (doc,) = ctx.read.raw([raw]).partition(ArynPartitioner(seed=0)).take_all()
        assert doc.elements

    def test_partitioned_document_holds_no_raw_content(self, raw):
        doc = ArynPartitioner(seed=0).partition(Document.from_raw(raw))
        assert doc.binary is None and doc.raw_document() is None
        # On the wire it is the declared fields and nothing else.
        assert list(doc.__getstate__()) == [
            "doc_id", "binary", "text", "root", "properties", "parent_id"
        ]
