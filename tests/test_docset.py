"""Tests for the Sycamore DocSet API (core, structural, analytic, LLM, IO)."""

import pytest

from repro.docmodel import Document, Element
from repro.indexes import DocStore, GraphStore
from repro.llm import ReliableLLM
from repro.partitioner import ArynPartitioner, NaiveTextPartitioner
from repro.sycamore import SycamoreContext
from tests.conftest import RecordingBackend, without_generated_ids


def docs_with(values):
    return [Document(text=f"doc {v}", properties={"n": v}) for v in values]


@pytest.fixture()
def ctx():
    return SycamoreContext(parallelism=1, seed=0)


class TestCoreTransforms:
    def test_map(self, ctx):
        def bump(doc):
            out = doc.copy()
            out.properties["n"] += 1
            return out

        result = ctx.read.documents(docs_with([1, 2])).map(bump).take_all()
        assert [d.properties["n"] for d in result] == [2, 3]

    def test_filter(self, ctx):
        ds = ctx.read.documents(docs_with(range(10)))
        assert ds.filter(lambda d: d.properties["n"] % 2 == 0).count() == 5

    def test_flat_map(self, ctx):
        ds = ctx.read.documents(docs_with([1]))
        out = ds.flat_map(lambda d: [d.derive(), d.derive()]).take_all()
        assert len(out) == 2
        assert all(o.parent_id is not None for o in out)

    def test_take_and_first(self, ctx):
        ds = ctx.read.documents(docs_with(range(10)))
        assert len(ds.take(3)) == 3
        assert ds.first().properties["n"] == 0
        empty = ctx.read.documents([])
        assert empty.first() is None

    def test_limit(self, ctx):
        ds = ctx.read.documents(docs_with(range(10)))
        assert ds.limit(4).count() == 4
        with pytest.raises(ValueError):
            ds.limit(-1)

    def test_lazy_until_terminal(self, ctx):
        calls = []
        ds = ctx.read.documents(docs_with([1])).map(lambda d: calls.append(1) or d)
        assert calls == []
        ds.count()
        assert calls == [1]

    def test_explain_shows_pipeline(self, ctx):
        ds = ctx.read.documents([]).filter(lambda d: True, name="keep")
        assert "filter[keep]" in ds.explain()


class TestAnalyticTransforms:
    def test_filter_by_property_ops(self, ctx):
        ds = ctx.read.documents(docs_with(range(10)))
        assert ds.filter_by_property("n", "eq", 3).count() == 1
        assert ds.filter_by_property("n", "ne", 3).count() == 9
        assert ds.filter_by_property("n", "lt", 3).count() == 3
        assert ds.filter_by_property("n", "ge", 8).count() == 2

    def test_filter_by_property_contains(self, ctx):
        docs = [Document(properties={"name": "Acme Cloud Inc."})]
        ds = ctx.read.documents(docs)
        assert ds.filter_by_property("name", "contains", "cloud").count() == 1

    def test_filter_missing_never_matches(self, ctx):
        docs = [Document(properties={}), Document(properties={"n": 1})]
        ds = ctx.read.documents(docs)
        assert ds.filter_by_property("n", "ge", 0).count() == 1

    def test_filter_type_mismatch_tolerated(self, ctx):
        docs = [Document(properties={"n": "not a number"})]
        assert ctx.read.documents(docs).filter_by_property("n", "lt", 5).count() == 0

    def test_unknown_operator(self, ctx):
        with pytest.raises(ValueError):
            ctx.read.documents([]).filter_by_property("n", "like", 1)

    def test_sort_missing_last(self, ctx):
        docs = docs_with([3, 1]) + [Document(properties={})]
        ordered = ctx.read.documents(docs).sort("n").take_all()
        assert [d.properties.get("n") for d in ordered] == [1, 3, None]

    def test_sort_descending(self, ctx):
        ordered = ctx.read.documents(docs_with([1, 3, 2])).sort("n", descending=True).take_all()
        assert [d.properties["n"] for d in ordered] == [3, 2, 1]

    def test_top_k(self, ctx):
        docs = [Document(properties={"state": s}) for s in ["AK", "TX", "AK", "CA", "AK", "TX"]]
        ds = ctx.read.documents(docs)
        assert ds.top_k("state", k=2) == [("AK", 3), ("TX", 2)]
        assert ds.top_k("state", k=1, descending=False) == [("CA", 1)]

    def test_aggregate_functions(self, ctx):
        ds = ctx.read.documents(docs_with([1, 2, 3, 4]))
        assert ds.aggregate("sum", "n") == 10
        assert ds.aggregate("avg", "n") == 2.5
        assert ds.aggregate("min", "n") == 1
        assert ds.aggregate("max", "n") == 4
        assert ds.aggregate("median", "n") == 2.5
        assert ds.aggregate("count", "n") == 4

    def test_aggregate_skips_missing_and_nonnumeric(self, ctx):
        docs = docs_with([2, 4]) + [Document(properties={"n": "x"}), Document()]
        ds = ctx.read.documents(docs)
        assert ds.aggregate("avg", "n") == 3.0
        assert ds.aggregate("count", "n") == 2

    def test_aggregate_empty_returns_none(self, ctx):
        assert ctx.read.documents([]).aggregate("sum", "n") is None
        assert ctx.read.documents([]).aggregate("count", "n") == 0

    def test_aggregate_group_by(self, ctx):
        docs = [
            Document(properties={"g": "a", "v": 1}),
            Document(properties={"g": "a", "v": 3}),
            Document(properties={"g": "b", "v": 10}),
        ]
        result = ctx.read.documents(docs).aggregate("avg", "v", group_by="g")
        assert result == {"a": 2.0, "b": 10.0}

    def test_unknown_aggregate(self, ctx):
        with pytest.raises(ValueError):
            ctx.read.documents([]).aggregate("mode", "n")

    def test_reduce_by_key(self, ctx):
        docs = [
            Document(properties={"state": "AK", "fatal": 1}),
            Document(properties={"state": "AK", "fatal": 2}),
            Document(properties={"state": "TX", "fatal": 0}),
        ]
        result = (
            ctx.read.documents(docs)
            .reduce_by_key("state", lambda group: sum(d.properties["fatal"] for d in group))
            .take_all()
        )
        assert {(d.properties["key"], d.properties["value"]) for d in result} == {
            ("AK", 3),
            ("TX", 0),
        }

    def test_join_inner_and_left(self, ctx):
        left = [
            Document(properties={"company": "Acme", "growth": 10}),
            Document(properties={"company": "Zeta", "growth": 5}),
        ]
        right = [Document(properties={"company": "Acme", "sector": "AI"})]
        ds_left = ctx.read.documents(left)
        ds_right = ctx.read.documents(right)
        inner = ds_left.join(ds_right, "company", "company").take_all()
        assert len(inner) == 1
        assert inner[0].properties["right.sector"] == "AI"
        left_join = ds_left.join(ds_right, "company", "company", how="left").take_all()
        assert len(left_join) == 2

    def test_dotted_property_path(self, ctx):
        docs = [Document(properties={"meta": {"year": 2023}})]
        assert ctx.read.documents(docs).filter_by_property("meta.year", "eq", 2023).count() == 1


class TestStructuralTransforms:
    def test_partition_transform(self, ctx, ntsb_corpus):
        _, raws = ntsb_corpus
        ds = ctx.read.raw(raws[:2]).partition(ArynPartitioner(seed=0))
        docs = ds.take_all()
        assert all(d.binary is None for d in docs)
        assert all(len(d.elements) > 3 for d in docs)

    @pytest.mark.parametrize("partitioner", [ArynPartitioner(seed=0), NaiveTextPartitioner()])
    def test_partitioned_docset_runs_twice(self, ctx, ntsb_corpus, partitioner):
        # partition() used to strip the binary off its input, so a second
        # execution found nothing to parse.
        _, raws = ntsb_corpus
        source = ctx.read.raw(raws[:3])
        ds = source.partition(partitioner)
        first, second = ds.take_all(), ds.take_all()
        assert [without_generated_ids(d) for d in first] == [
            without_generated_ids(d) for d in second
        ]
        assert all(d.root is not None for d in first)
        for read, raw in zip(source.take_all(), raws):
            assert read.binary == raw.to_bytes()
            assert read.root is None

    def test_explode_inherits_properties(self, ctx):
        doc = Document.from_elements(
            [Element(text="chunk one", page=0), Element(text="chunk two", page=1)],
            properties={"source": "s1"},
        )
        chunks = ctx.read.documents([doc]).explode().take_all()
        assert len(chunks) == 2
        assert all(c.parent_id == doc.doc_id for c in chunks)
        assert all(c.properties["source"] == "s1" for c in chunks)
        assert [c.properties["element_index"] for c in chunks] == [0, 1]
        assert chunks[1].text == "chunk two"

    def test_explode_records_lineage(self, ctx):
        doc = Document.from_elements([Element(text="c")])
        chunks = ctx.read.documents([doc]).explode().take_all()
        assert ctx.lineage.parents_of(chunks[0].doc_id) == [doc.doc_id]

    def test_merge_elements(self, ctx):
        doc = Document.from_elements(
            [Element(text="a", page=0), Element(text="b", page=0), Element(text="c", page=1)]
        )
        merged = (
            ctx.read.documents([doc])
            .merge_elements(lambda prev, cur: prev.page == cur.page)
            .take_all()[0]
        )
        assert [e.text for e in merged.elements] == ["a\nb", "c"]


class TestLLMTransforms:
    def test_extract_properties(self, ctx):
        doc = Document.from_text(
            "Location: Fairbanks, AK\nDate: June 2, 2022\n"
            "The flight encountered severe icing conditions."
        )
        out = (
            ctx.read.documents([doc])
            .extract_properties(
                {"state": "string", "incident_year": "int", "weather_related": "bool"},
                model="sim-oracle",
            )
            .take_all()[0]
        )
        assert out.properties["state"] == "AK"
        assert out.properties["incident_year"] == 2022
        assert out.properties["weather_related"] is True
        # original document untouched (transforms are pure)
        assert "state" not in doc.properties

    def test_llm_filter(self, ctx):
        docs = [
            Document.from_text("a gusty crosswind pushed the airplane"),
            Document.from_text("a fatigue crack caused engine failure"),
        ]
        kept = ctx.read.documents(docs).llm_filter("caused by wind", model="sim-oracle").take_all()
        assert len(kept) == 1
        assert "crosswind" in kept[0].text

    def test_llm_query_with_template_string_and_placeholders(self, ctx):
        doc = Document.from_text("some body", properties={"topic": "winds"})
        out = (
            ctx.read.documents([doc])
            .llm_query("Describe {topic} briefly.", output_property="answer", model="sim-oracle")
            .take_all()[0]
        )
        assert isinstance(out.properties["answer"], str)

    def test_summarize(self, ctx):
        doc = Document.from_text(
            "The airplane encountered icing. It landed safely. The pilot was unhurt."
        )
        out = ctx.read.documents([doc]).summarize(model="sim-oracle", max_sentences=1).take_all()[0]
        assert out.properties["summary"]

    def test_classify(self, ctx):
        doc = Document.from_text("a strong gust during landing")
        out = (
            ctx.read.documents([doc])
            .classify(["environmental", "mechanical"], "cause_category", model="sim-oracle")
            .take_all()[0]
        )
        assert out.properties["cause_category"] == "environmental"

    def test_embed(self, ctx):
        doc = Document.from_text("hello world")
        out = ctx.read.documents([doc]).embed().take_all()[0]
        vector = out.properties["embedding"]
        assert isinstance(vector, list)
        assert len(vector) == ctx.embedder.dimensions

    def test_summarize_all(self, ctx):
        docs = [Document.from_text("The wind was strong."), Document.from_text("Ice formed fast.")]
        text = ctx.read.documents(docs).summarize_all(model="sim-oracle")
        assert text.startswith("Synthesis of 2 documents")

    def test_llm_costs_tracked(self, ctx):
        doc = Document.from_text("windy day near the runway")
        ctx.read.documents([doc]).llm_filter("wind", model="sim-large").count()
        assert ctx.cost_tracker.summary().calls >= 1


class TestPromptPrefixCache:
    def test_prefix_built_prompt_matches_full_render(self):
        from repro.llm.prompts import EXTRACT_PROPERTIES, append_section, render_task_prompt

        prefix = render_task_prompt(
            "extract_properties",
            {"instructions": EXTRACT_PROPERTIES.instructions, "schema": "{}"},
        )
        assert append_section(prefix, "document", "text\n") == EXTRACT_PROPERTIES.render(
            schema="{}", document="text\n"
        )

    def test_factory_prompts_match_full_render(self):
        from repro.llm.prompts import FILTER_DOCUMENT, render_task_prompt
        from repro.sycamore.llm_transforms import make_llm_filter_fn, make_llm_query_fn

        backend = RecordingBackend()
        ctx = SycamoreContext(llm=ReliableLLM(backend, cache_enabled=False), parallelism=1)
        doc = Document.from_text("gusty crosswind on short final")
        text = doc.text_representation()
        make_llm_filter_fn(ctx, condition="mentions wind")(doc)
        make_llm_query_fn(ctx, "Name the hazard", "hazard")(doc)
        assert backend.calls == [
            FILTER_DOCUMENT.render(condition="mentions wind", document=text),
            render_task_prompt(
                "llm_query", {"instructions": "Name the hazard", "document": text}
            ),
        ]

    def test_transform_output_unchanged_by_hoisting(self, context, ntsb_corpus):
        from repro.sycamore.llm_transforms import make_summarize_fn

        _, raws = ntsb_corpus
        doc = ArynPartitioner(seed=0).partition(raws[0])
        summarize = make_summarize_fn(context, model="sim-oracle")
        assert summarize(doc).properties["summary"]


class TestMaterializeAndIO:
    def test_materialize_memory(self, ctx):
        calls = []
        ds = (
            ctx.read.documents(docs_with([1, 2]))
            .map(lambda d: calls.append(1) or d)
            .materialize()
        )
        ds.count()
        ds.count()
        assert len(calls) == 2

    def test_materialize_disk(self, ctx, tmp_path):
        ds = ctx.read.documents(docs_with([1])).materialize(tmp_path / "cache.jsonl")
        ds.count()
        assert (tmp_path / "cache.jsonl").exists()
        assert ds.count() == 1

    def test_write_and_read_index(self, ctx):
        docs = [
            Document.from_text("gusty crosswind landing", properties={"year": 2023}),
            Document.from_text("engine failure cruise", properties={"year": 2022}),
        ]
        n = ctx.read.documents(docs).write.index("test_idx")
        assert n == 2
        assert ctx.catalog.get("test_idx").schema.get("year") == "int"
        scanned = ctx.read.index("test_idx").take_all()
        assert len(scanned) == 2
        retrieved = ctx.read.index("test_idx", query="crosswind", k=1).take_all()
        assert retrieved[0].doc_id == docs[0].doc_id

    def test_write_docstore(self, ctx):
        store = DocStore()
        n = ctx.read.documents(docs_with([1, 2, 3])).write.docstore(store)
        assert n == 3 and len(store) == 3

    def test_write_jsonl_roundtrip(self, ctx, tmp_path):
        path = tmp_path / "out.jsonl"
        ctx.read.documents(docs_with([1, 2])).write.jsonl(path)
        reread = ctx.read.jsonl(path).take_all()
        assert [d.properties["n"] for d in reread] == [1, 2]

    def test_write_graph(self, ctx):
        docs = [
            Document(properties={"company": "Acme", "sector": "AI", "ceo": "Kai"}),
            Document(properties={"company": "Zeta", "sector": None}),
        ]
        store = GraphStore()
        written = ctx.read.documents(docs).write.graph(
            store, subject_property="company",
            edges=[("in_sector", "sector"), ("led_by", "ceo")],
        )
        assert written == 2  # Zeta contributes nothing (missing values)
        assert store.neighbors("Acme", "in_sector") == ["AI"]
        assert store.provenance("Acme", "led_by", "Kai") == [docs[0].doc_id]


class TestParallelContext:
    def test_parallel_matches_serial(self, ntsb_corpus):
        _, raws = ntsb_corpus
        serial = SycamoreContext(parallelism=1, seed=0)
        parallel = SycamoreContext(parallelism=4, seed=0)
        a = serial.read.raw(raws[:4]).partition(ArynPartitioner(seed=0)).take_all()
        b = parallel.read.raw(raws[:4]).partition(ArynPartitioner(seed=0)).take_all()
        assert [d.doc_id for d in a] == [d.doc_id for d in b]
        assert [len(d.elements) for d in a] == [len(d.elements) for d in b]
