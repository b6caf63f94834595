"""Tests for the index substrate: BM25, vector, graph, docstore, catalog."""

import numpy as np
import pytest

from repro.docmodel import Document
from repro.embedding import HashingEmbedder
from repro.indexes import (
    DocStore,
    GraphStore,
    IndexCatalog,
    KeywordIndex,
    VectorIndex,
    infer_schema,
)


class TestKeywordIndex:
    def _index(self):
        index = KeywordIndex()
        index.add("wind", "gusty crosswind during the landing roll")
        index.add("engine", "total loss of engine power after takeoff")
        index.add("fuel", "fuel contamination from water in the tank")
        return index

    def test_ranking(self):
        index = self._index()
        hits = index.search("crosswind landing")
        assert hits[0].doc_id == "wind"

    def test_no_match(self):
        assert self._index().search("zebra") == []

    def test_k_limits_results(self):
        index = self._index()
        assert len(index.search("the", k=1)) <= 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KeywordIndex(k1=-1)
        with pytest.raises(ValueError):
            KeywordIndex(b=2.0)

    def test_readd_replaces(self):
        index = self._index()
        index.add("wind", "completely different topic now")
        assert index.search("crosswind") == [] or index.search("crosswind")[0].doc_id != "wind"
        assert len(index) == 3

    def test_remove(self):
        index = self._index()
        assert index.remove("wind")
        assert not index.remove("wind")
        assert "wind" not in index
        assert index.search("crosswind") == []

    def test_term_frequency(self):
        index = self._index()
        assert index.term_frequency("engine") == 1
        assert index.term_frequency("THE") >= 1  # case folded

    def test_rare_terms_outscore_common(self):
        index = KeywordIndex()
        index.add("a", "the the the crosswind")
        index.add("b", "the the the the the")
        hits = index.search("crosswind the")
        assert hits[0].doc_id == "a"

    def test_persistence_roundtrip(self, tmp_path):
        index = self._index()
        path = tmp_path / "kw.json"
        index.save(path)
        restored = KeywordIndex.load(path)
        assert [h.doc_id for h in restored.search("crosswind")] == [
            h.doc_id for h in index.search("crosswind")
        ]
        assert len(restored) == len(index)


class TestVectorIndex:
    def _embedder(self):
        return HashingEmbedder(dimensions=64)

    def test_exact_search_finds_nearest(self):
        e = self._embedder()
        index = VectorIndex(dimensions=64)
        index.add("wind", e.embed("gusty crosswind landing"))
        index.add("engine", e.embed("engine failure oil"))
        hits = index.search(e.embed("strong wind gust"), k=1)
        assert hits[0].doc_id == "wind"

    def test_dimension_mismatch(self):
        index = VectorIndex(dimensions=8)
        with pytest.raises(ValueError):
            index.add("x", np.ones(4))
        with pytest.raises(ValueError):
            index.search(np.ones(4))

    def test_replace_vector(self):
        index = VectorIndex(dimensions=4)
        index.add("a", [1, 0, 0, 0])
        index.add("a", [0, 1, 0, 0])
        assert len(index) == 1
        assert index.get("a")[1] == pytest.approx(1.0)

    def test_remove(self):
        index = VectorIndex(dimensions=4)
        index.add("a", [1, 0, 0, 0])
        assert index.remove("a")
        assert not index.remove("a")
        assert index.search([1, 0, 0, 0]) == []

    def test_empty_search(self):
        assert VectorIndex(dimensions=4).search([1, 0, 0, 0]) == []

    def test_approximate_recall_reasonable(self):
        e = self._embedder()
        index = VectorIndex(dimensions=64)
        texts = [f"report about topic {i} with words w{i} v{i}" for i in range(200)]
        for i, text in enumerate(texts):
            index.add(f"d{i}", e.embed(text))
        query = e.embed("report about topic 7 with words w7 v7")
        exact = {h.doc_id for h in index.search(query, k=5)}
        approx = {h.doc_id for h in index.search(query, k=5, approximate=True, n_probe=6)}
        assert len(exact & approx) >= 2  # decent overlap
        assert "d7" in exact

    def test_persistence_roundtrip(self, tmp_path):
        index = VectorIndex(dimensions=4)
        index.add("a", [1, 0, 0, 0])
        index.add("b", [0, 1, 0, 0])
        path = tmp_path / "vec.json"
        index.save(path)
        restored = VectorIndex.load(path)
        assert len(restored) == 2
        assert restored.search([1, 0, 0, 0], k=1)[0].doc_id == "a"


class StackedVectorIndex(VectorIndex):
    """``add`` as it was: one ``np.vstack`` of the whole matrix per new
    row, so the buffer never has a spare row."""

    def add(self, doc_id, vector):
        array = np.asarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(array))
        array = array / norm if norm > 1e-12 else np.zeros_like(array)
        row = self._id_to_row.get(doc_id)
        if row is not None:
            self._buffer[row] = array
        else:
            self._id_to_row[doc_id] = len(self._ids)
            self._buffer = np.vstack([self._matrix, array[None, :]])
            self._ids.append(doc_id)
        self._ivf = None


class TestVectorIndexGrowth:
    def test_five_thousand_adds_reallocate_a_logarithmic_number_of_times(self):
        index = VectorIndex(dimensions=8)
        rng = np.random.default_rng(0)
        buffers = []
        for i in range(5000):
            index.add(f"d{i}", rng.normal(size=8))
            if not buffers or buffers[-1] is not index._buffer:
                buffers.append(index._buffer)
        assert len(index) == 5000
        assert len(buffers) <= 10  # 16, 32, ... 8192; one per add before
        assert len(index._buffer) < 2 * 5000
        assert index._matrix.shape == (5000, 8)

    def test_results_are_bit_identical_to_the_stacked_matrix(self):
        rng = np.random.default_rng(1)
        grown, stacked = VectorIndex(dimensions=32), StackedVectorIndex(dimensions=32)
        vectors = rng.normal(size=(300, 32))
        vectors[17] = 0.0  # a zero vector stays a zero row
        queries = rng.normal(size=(5, 32))

        def same_everywhere():
            assert grown._ids == stacked._ids and grown._id_to_row == stacked._id_to_row
            assert np.array_equal(grown._matrix, stacked._matrix)
            for doc_id in ("d0", "d17", "d299", "absent"):
                a, b = grown.get(doc_id), stacked.get(doc_id)
                assert (a is None and b is None) or np.array_equal(a, b)
            for query in queries:
                for kwargs in ({"k": 7}, {"k": 400}, {"k": 5, "approximate": True, "n_probe": 3}):
                    assert grown.search(query, **kwargs) == stacked.search(query, **kwargs)
            if len(grown) >= 2:
                a, b = grown._ensure_ivf(), stacked._ensure_ivf()
                assert np.array_equal(a.centroids, b.centroids) and a.assignments == b.assignments

        for index in (grown, stacked):
            for i, vector in enumerate(vectors):
                index.add(f"d{i}", vector)
        same_everywhere()
        for index in (grown, stacked):
            index.add("d5", vectors[6])  # replace in place
            assert index.remove("d100") and index.remove("d0") and not index.remove("d0")
        same_everywhere()
        for index in (grown, stacked):
            for i in range(300, 340):  # grow again after a remove shrank the buffer
                index.add(f"d{i}", vectors[i - 300] * 2.0)
        same_everywhere()

    def test_spare_rows_are_not_saved_or_searched(self, tmp_path):
        index = VectorIndex(dimensions=4)
        for i, vector in enumerate(([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])):
            index.add(f"d{i}", vector)
        assert len(index._buffer) > 3
        assert [h.doc_id for h in index.search([0, 0, 0, 1], k=10)] == ["d0", "d1", "d2"]
        index.save(tmp_path / "v.json")
        restored = VectorIndex.load(tmp_path / "v.json")
        assert restored._matrix.shape == (3, 4)
        restored.add("d3", [0, 0, 0, 1])
        assert restored.search([0, 0, 0, 1], k=1)[0].doc_id == "d3"


class TestGraphStore:
    def _store(self):
        store = GraphStore()
        store.add_triple("Acme", "in_sector", "AI", source_doc_id="d1")
        store.add_triple("Acme", "ceo", "Kai Adler", source_doc_id="d1")
        store.add_triple("Borealis", "in_sector", "AI", source_doc_id="d2")
        return store

    def test_counts(self):
        store = self._store()
        assert store.num_triples() == 3
        assert store.num_entities() == 4

    def test_pattern_queries(self):
        store = self._store()
        assert len(store.triples(predicate="in_sector")) == 2
        assert len(store.triples(subject="Acme")) == 2
        assert store.triples(subject="Acme", predicate="ceo")[0].object == "Kai Adler"

    def test_neighbors_and_incoming(self):
        store = self._store()
        assert store.neighbors("Acme", "in_sector") == ["AI"]
        assert store.incoming("AI", "in_sector") == ["Acme", "Borealis"]
        assert store.neighbors("nobody") == []

    def test_provenance(self):
        store = self._store()
        assert store.provenance("Acme", "in_sector", "AI") == ["d1"]

    def test_path_exists(self):
        store = GraphStore()
        store.add_triple("a", "r", "b")
        store.add_triple("b", "r", "c")
        assert store.path_exists("a", "c", max_hops=2)
        assert not store.path_exists("a", "c", max_hops=1)
        assert not store.path_exists("a", "zzz")

    def test_entity_attributes(self):
        store = GraphStore()
        store.add_entity("Acme", kind="company")
        assert store.entity_attributes("Acme") == {"kind": "company"}
        with pytest.raises(KeyError):
            store.entity_attributes("missing")

    def test_persistence_roundtrip(self, tmp_path):
        store = self._store()
        path = tmp_path / "graph.json"
        store.save(path)
        restored = GraphStore.load(path)
        assert restored.num_triples() == 3
        assert restored.provenance("Acme", "ceo", "Kai Adler") == ["d1"]


class TestDocStore:
    def test_crud(self):
        store = DocStore()
        doc = Document.from_text("hello")
        store.put(doc)
        assert doc.doc_id in store
        assert store.get(doc.doc_id).text == "hello"
        assert store.delete(doc.doc_id)
        assert not store.delete(doc.doc_id)

    def test_get_many_skips_unknown(self):
        store = DocStore()
        doc = Document.from_text("x")
        store.put(doc)
        assert [d.doc_id for d in store.get_many([doc.doc_id, "nope"])] == [doc.doc_id]

    def test_scan_with_predicate(self):
        store = DocStore()
        store.put_many([Document(properties={"n": i}) for i in range(5)])
        evens = list(store.scan(lambda d: d.properties["n"] % 2 == 0))
        assert len(evens) == 3

    def test_jsonl_roundtrip(self, tmp_path):
        store = DocStore()
        store.put_many([Document.from_text(f"doc {i}") for i in range(3)])
        path = tmp_path / "docs.jsonl"
        store.save(path)
        restored = DocStore.load(path)
        assert len(restored) == 3
        assert restored.doc_ids() == store.doc_ids()


class TestInferSchema:
    def test_dominant_types(self):
        docs = [Document(properties={"a": 1, "b": "x", "c": True}) for _ in range(3)]
        docs.append(Document(properties={"a": None, "d": 1.5}))
        schema = infer_schema(docs)
        assert schema == {"a": "int", "b": "string", "c": "bool", "d": "float"}

    def test_bool_not_mistaken_for_int(self):
        docs = [Document(properties={"flag": True})]
        assert infer_schema(docs)["flag"] == "bool"


class TestCatalogAndNamedIndex:
    def test_create_get_drop(self):
        catalog = IndexCatalog()
        catalog.create("ntsb", description="reports")
        assert "ntsb" in catalog
        with pytest.raises(ValueError):
            catalog.create("ntsb")
        assert catalog.create("ntsb", exist_ok=True) is catalog.get("ntsb")
        with pytest.raises(KeyError):
            catalog.get("missing")
        assert catalog.drop("ntsb")
        assert not catalog.drop("ntsb")

    def test_add_and_search_all_modes(self):
        catalog = IndexCatalog(embedder=HashingEmbedder(dimensions=64))
        index = catalog.create("test")
        docs = [
            Document.from_text("gusty crosswind during the landing"),
            Document.from_text("total loss of engine power"),
            Document.from_text("fuel contamination with water"),
        ]
        index.add_documents(docs)
        assert len(index) == 3
        for mode in ("search_keyword", "search_vector", "search_hybrid"):
            results = getattr(index, mode)("crosswind landing", k=2)
            assert results and results[0].doc_id == docs[0].doc_id

    def test_schema_refresh(self):
        catalog = IndexCatalog()
        index = catalog.create("t")
        index.add_documents([Document(text="x", properties={"year": 2023})])
        assert index.schema.get("year") == "int"
        payload = index.schema_for_planner()
        assert payload["index"] == "t"
        assert "year" in payload["fields"]
