"""Integration tests: whole-stack flows and failure injection.

These exercise the resilience story of §5.2 ("Sycamore handles retries
and model-specific details") end to end: pipelines running against flaky
backends, rate limits, malformed JSON, mixed with real partitioning and
indexing — plus index persistence across sessions and the new
element-level transforms.
"""

import pytest

from repro.datagen import generate_ntsb_corpus
from repro.docmodel import Document, Element
from repro.embedding import HashingEmbedder
from repro.indexes import IndexCatalog, NamedIndex
from repro.llm import CostTracker, ReliableLLM, SimulatedLLM, TransientLLMError
from repro.luna import Luna
from repro.partitioner import ArynPartitioner
from repro.sycamore import SycamoreContext


def _flaky_context(failure_rate=0.0, rate_limit_every=None, malformed_rate=0.0,
                   parallelism=4, seed=0):
    tracker = CostTracker()
    backend = SimulatedLLM(
        seed=seed,
        failure_rate=failure_rate,
        rate_limit_every=rate_limit_every,
        malformed_rate=malformed_rate,
        tracker=tracker,
    )
    llm = ReliableLLM(backend, max_retries=6, backoff_base_s=0.0, sleeper=lambda s: None)
    return SycamoreContext(llm=llm, parallelism=parallelism, seed=seed)


class TestFailureInjection:
    def test_pipeline_survives_transient_failures(self, ntsb_corpus):
        _, raws = ntsb_corpus
        ctx = _flaky_context(failure_rate=0.3)
        docs = (
            ctx.read.raw(raws[:8])
            .partition(ArynPartitioner(seed=0))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .take_all()
        )
        assert len(docs) == 8
        assert all(d.properties.get("state") for d in docs)
        assert ctx.llm.retries_performed > 0

    def test_pipeline_survives_rate_limits(self, ntsb_corpus):
        _, raws = ntsb_corpus
        ctx = _flaky_context(rate_limit_every=4)
        count = (
            ctx.read.raw(raws[:8])
            .partition(ArynPartitioner(seed=0))
            .llm_filter("caused by wind", model="sim-oracle")
            .count()
        )
        assert 0 <= count <= 8
        assert ctx.llm.retries_performed > 0

    def test_extraction_survives_malformed_json(self, ntsb_corpus):
        _, raws = ntsb_corpus
        # One executor thread: the backend's malformed draws are one
        # stream consumed in call order, so with several threads which
        # record eats the bad draws (and whether one exhausts its
        # retries) would depend on thread timing.
        clean = _flaky_context(malformed_rate=0.0, seed=2, parallelism=1)
        broken = _flaky_context(malformed_rate=0.6, seed=2, parallelism=1)

        def states(ctx):
            return [
                d.properties.get("state")
                for d in ctx.read.raw(raws[:6])
                .partition(ArynPartitioner(seed=0))
                .extract_properties({"state": "string"}, model="sim-oracle")
                .take_all()
            ]

        # JSON repair + retry recovers: the noisy run still extracts most
        # states, matching the clean run on the ones it recovers.
        clean_states = states(clean)
        broken_states = states(broken)
        matches = sum(1 for a, b in zip(clean_states, broken_states) if a == b)
        assert matches >= 4

    def test_luna_query_through_flaky_backend(self, ntsb_corpus):
        _, raws = ntsb_corpus
        ctx = _flaky_context(failure_rate=0.2, seed=3)
        (
            ctx.read.raw(raws[:10])
            .partition(ArynPartitioner(seed=0))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .write.index("ntsb")
        )
        luna = Luna(ctx, planner_model="sim-oracle", policy="quality")
        result = luna.query("How many incidents were caused by wind?", index="ntsb")
        assert isinstance(result.answer, int)

    def test_hopeless_backend_raises_cleanly(self):
        backend = SimulatedLLM(seed=0, failure_rate=1.0)
        llm = ReliableLLM(backend, max_retries=2, sleeper=lambda s: None)
        ctx = SycamoreContext(llm=llm, parallelism=1)
        ds = ctx.read.documents([Document.from_text("x")]).llm_filter("windy")
        from repro.execution import TaskError

        with pytest.raises(TaskError):
            ds.count()


class TestIndexPersistence:
    def test_named_index_roundtrip(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        ctx = SycamoreContext(parallelism=4)
        (
            ctx.read.raw(raws[:6])
            .partition(ArynPartitioner(seed=0))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .write.index("ntsb")
        )
        original = ctx.catalog.get("ntsb")
        original.save(tmp_path / "ntsb")

        restored = NamedIndex.load(tmp_path / "ntsb", embedder=ctx.embedder)
        assert len(restored) == len(original)
        assert restored.schema == original.schema
        query = "gusty crosswind landing"
        assert [d.doc_id for d in restored.search_hybrid(query, k=3)] == [
            d.doc_id for d in original.search_hybrid(query, k=3)
        ]

    def test_catalog_roundtrip_and_query(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        ctx = SycamoreContext(parallelism=4)
        (
            ctx.read.raw(raws[:8])
            .partition(ArynPartitioner(seed=0))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .write.index("ntsb")
        )
        ctx.catalog.save(tmp_path / "catalog")

        # A brand-new session restores the catalog and queries it.
        fresh = SycamoreContext(parallelism=1)
        loaded = fresh.catalog.load(tmp_path / "catalog")
        assert loaded == ["ntsb"]
        luna = Luna(fresh, planner_model="sim-oracle", policy="quality")
        result = luna.query("How many incidents were caused by wind?", index="ntsb")
        assert isinstance(result.answer, int)


class TestElementTransforms:
    def _doc(self):
        return Document.from_elements(
            [
                Element(type="Page-header", text="HDR"),
                Element(type="Text", text="body one"),
                Element(type="Page-footer", text="1"),
            ],
            properties={"meta": {"year": 2023, "tags": {"a": 1}}, "plain": "x"},
        )

    def test_map_elements(self, context):
        def shout(element):
            out = element.copy()
            out.text = out.text.upper()
            return out

        doc = context.read.documents([self._doc()]).map_elements(shout).first()
        assert [e.text for e in doc.elements] == ["HDR", "BODY ONE", "1"]

    def test_filter_elements_drops_furniture(self, context):
        doc = (
            context.read.documents([self._doc()])
            .filter_elements(lambda e: e.type not in ("Page-header", "Page-footer"))
            .first()
        )
        assert [e.type for e in doc.elements] == ["Text"]

    def test_flatten_properties(self, context):
        doc = context.read.documents([self._doc()]).flatten_properties().first()
        assert doc.properties == {
            "meta.year": 2023,
            "meta.tags.a": 1,
            "plain": "x",
        }

    def test_distinct(self, context):
        docs = [Document(properties={"g": v}) for v in ["a", "b", "a", "c", "b"]]
        kept = context.read.documents(docs).distinct("g").take_all()
        assert [d.properties["g"] for d in kept] == ["a", "b", "c"]

    def test_distinct_unhashable_values(self, context):
        docs = [Document(properties={"g": [1, 2]}), Document(properties={"g": [1, 2]})]
        assert context.read.documents(docs).distinct("g").count() == 1


class TestDistinctOperator:
    def test_luna_distinct_node(self, indexed_context):
        from repro.luna import LogicalPlan, LunaExecutor

        plan = LogicalPlan.from_json(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Distinct", "inputs": [0], "field": "state"},
                {"operation": "Project", "inputs": [1], "fields": ["state"]},
            ]
        )
        answer, _ = LunaExecutor(indexed_context).execute(plan)
        assert len(answer) == len(set(answer))
        assert len(answer) >= 2

    def test_distinct_codegen(self):
        from repro.luna import LogicalPlan, generate_code

        plan = LogicalPlan.from_json(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i"},
                {"operation": "Distinct", "inputs": [0], "field": "state"},
            ]
        )
        assert ".distinct('state')" in generate_code(plan)


class TestProvenanceAndDiff:
    def test_trace_supporting_documents(self, indexed_context, ntsb_corpus):
        from repro.luna import Luna, OptimizerPolicy

        records, _ = ntsb_corpus
        oracle_policy = OptimizerPolicy(
            name="oracle",
            filter_model="sim-oracle",
            extract_model="sim-oracle",
            summarize_model="sim-oracle",
        )
        luna = Luna(indexed_context, planner_model="sim-oracle", policy=oracle_policy)
        result = luna.query("How many incidents were caused by wind?", index="ntsb")
        supporting = result.trace.supporting_documents()
        wind_ids = {r.report_id for r in records if r.cause_detail == "wind"}
        assert supporting  # provenance exists
        assert set(supporting) == wind_ids  # oracle filter: exact provenance

    def test_diff_plans_reports_optimizer_changes(self):
        from repro.luna import (
            BALANCED_POLICY,
            LogicalPlan,
            diff_plans,
        )
        from repro.optimizer import CostBasedOptimizer

        # A retrieval scan, so the substituted filter stays a node of its
        # own instead of folding into the scan.
        plan = LogicalPlan.from_json(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i", "query": "weather"},
                {"operation": "LlmFilter", "inputs": [0],
                 "condition": "weather related incidents"},
                {"operation": "Count", "inputs": [1]},
            ]
        )
        optimized, _, _ = CostBasedOptimizer(BALANCED_POLICY).optimize_with_report(
            plan, {"weather_related": "bool"}
        )
        changes = diff_plans(plan, optimized)
        assert any("operation LlmFilter -> BasicFilter" in c for c in changes)
        assert diff_plans(plan, plan.copy()) == []

    def test_diff_plans_structural_changes(self):
        from repro.luna import LogicalPlan, diff_plans

        a = LogicalPlan.from_json(
            [{"operation": "QueryIndex", "inputs": [], "index": "i"}]
        )
        b = LogicalPlan.from_json(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i"},
                {"operation": "Count", "inputs": [0]},
            ]
        )
        assert any("added Count" in c for c in diff_plans(a, b))
        assert any("removed Count" in c for c in diff_plans(b, a))
