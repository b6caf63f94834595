"""Tests for the extension features: data lake, knowledge-graph
extraction, superlative list plans, and the multi-index join pattern."""

import pytest

from repro.datagen import generate_earnings_corpus, generate_ntsb_corpus
from repro.datagen.earnings import build_market_database
from repro.docmodel import Document, RawDocument
from repro.indexes import DataLake, GraphStore
from repro.luna import Luna
from repro.partitioner import ArynPartitioner
from repro.sycamore import SycamoreContext
from tests.conftest import without_generated_ids


class TestDataLake:
    def test_write_read_roundtrip(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        lake = DataLake(tmp_path / "lake")
        assert lake.write_many(raws[:3]) == 3
        assert len(lake) == 3
        assert raws[0].doc_id in lake
        restored = lake.read(raws[0].doc_id)
        assert restored.to_bytes() == raws[0].to_bytes()

    def test_scan_sorted(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        lake = DataLake(tmp_path / "lake")
        lake.write_many(reversed(raws[:4]))
        assert [d.doc_id for d in lake.scan()] == sorted(r.doc_id for r in raws[:4])

    def test_delete(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        lake = DataLake(tmp_path / "lake")
        lake.write(raws[0])
        assert lake.delete(raws[0].doc_id)
        assert not lake.delete(raws[0].doc_id)
        with pytest.raises(KeyError):
            lake.read(raws[0].doc_id)

    def test_invalid_doc_id_rejected(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        with pytest.raises(ValueError):
            lake.read("../escape")

    def test_context_reads_lake_lazily(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        lake = DataLake(tmp_path / "lake")
        lake.write_many(raws[:4])
        ctx = SycamoreContext(parallelism=1)
        ds = ctx.read.lake(lake).partition(ArynPartitioner(seed=0))
        docs = ds.take(2)  # laziness: only pulls what it needs
        assert len(docs) == 2
        assert docs[0].elements

    def test_lake_ingest_same_as_raw_ingest(self, tmp_path, ntsb_corpus, monkeypatch):
        _, raws = ntsb_corpus
        raws = sorted(raws[:5], key=lambda raw: raw.doc_id)  # the lake's order
        lake = DataLake(tmp_path / "lake")
        lake.write_many(raws)
        parses = []
        from_bytes = RawDocument.from_bytes
        monkeypatch.setattr(
            RawDocument, "from_bytes", lambda payload: parses.append(1) or from_bytes(payload)
        )
        ctx = SycamoreContext(parallelism=1)
        from_lake = ctx.read.lake(lake).partition(ArynPartitioner(seed=0)).take_all()
        assert len(parses) == len(raws)  # each file parsed once, in the partitioner
        from_raw = ctx.read.raw(raws).partition(ArynPartitioner(seed=0)).take_all()
        assert [without_generated_ids(d) for d in from_lake] == [
            without_generated_ids(d) for d in from_raw
        ]

    def test_context_accepts_path(self, tmp_path, ntsb_corpus):
        _, raws = ntsb_corpus
        DataLake(tmp_path / "lake").write(raws[0])
        ctx = SycamoreContext(parallelism=1)
        assert ctx.read.lake(tmp_path / "lake").count() == 1


class TestKnowledgeGraph:
    @pytest.fixture(scope="class")
    def graph_setup(self, earnings_corpus):
        records, raws = earnings_corpus
        ctx = SycamoreContext(parallelism=4)
        ds = ctx.read.raw(raws[:10]).partition(ArynPartitioner(seed=0))
        store = GraphStore()
        written = ds.write.knowledge_graph(store, model="sim-oracle")
        return records[:10], store, written

    def test_triples_written_with_provenance(self, graph_setup):
        records, store, written = graph_setup
        assert written > 0
        assert store.num_triples() == written
        record = records[0]
        sector_of = store.neighbors(record.company, "in_sector")
        assert sector_of == [record.sector]
        provenance = store.provenance(record.company, "in_sector", record.sector)
        assert provenance == [record.report_id]

    def test_ceo_change_events_extracted(self, graph_setup):
        records, store, _ = graph_setup
        changed = {r.company for r in records if r.ceo_changed}
        flagged = set(store.incoming("ceo_change", "had_event"))
        # oracle extraction: events match ground truth on these documents
        assert flagged == changed

    def test_extract_entities_transform(self, earnings_corpus):
        _, raws = earnings_corpus
        ctx = SycamoreContext(parallelism=1)
        doc = (
            ctx.read.raw(raws[:1])
            .partition(ArynPartitioner(seed=0))
            .extract_entities(model="sim-oracle")
            .first()
        )
        triples = doc.properties["entities"]
        assert triples
        assert all({"subject", "predicate", "object"} <= set(t) for t in triples)

    def test_ntsb_entities(self, ntsb_corpus):
        records, raws = ntsb_corpus
        ctx = SycamoreContext(parallelism=1)
        store = GraphStore()
        ctx.read.raw(raws[:5]).partition(ArynPartitioner(seed=0)).write.knowledge_graph(
            store, model="sim-oracle"
        )
        record = records[0]
        assert store.neighbors(record.report_id, "occurred_in") == [record.state]


@pytest.fixture(scope="module")
def market_context():
    records, raws = generate_earnings_corpus(30, seed=13)
    ctx = SycamoreContext(parallelism=4)
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties(
            {"company": "string", "sector": "string", "revenue_growth_pct": "float"},
            model="sim-oracle",
        )
        .write.index("earnings")
    )
    market_docs = [Document(properties=row) for row in build_market_database(records, seed=1)]
    ctx.read.documents(market_docs).write.index("market_db")
    return records, ctx


class TestMarketDatabase:
    def test_competitors_are_sector_peers(self):
        records, _ = generate_earnings_corpus(20, seed=5)
        rows = build_market_database(records, seed=0)
        by_company = {r.company: r for r in records}
        for row in rows:
            for competitor in row["competitors"]:
                assert by_company[competitor].sector == row["sector"]
                assert competitor != row["company"]

    def test_deterministic(self):
        records, _ = generate_earnings_corpus(10, seed=5)
        assert build_market_database(records, seed=2) == build_market_database(
            records, seed=2
        )


class TestDataIntegrationQueries:
    def test_superlative_list_plan(self, market_context):
        records, ctx = market_context
        luna = Luna(ctx, planner_model="sim-oracle", policy="quality")
        result = luna.query(
            "List the fastest growing companies in the BNPL market.", index="earnings"
        )
        truth = [
            r.company
            for r in sorted(
                (x for x in records if x.sector == "BNPL"),
                key=lambda x: -x.revenue_growth_pct,
            )[:5]
        ]
        assert list(result.answer) == truth[: len(result.answer)]
        operations = [n.operation for n in result.optimized_plan.nodes]
        assert "Sort" in operations and "Limit" in operations

    def test_join_against_market_database(self, market_context):
        records, ctx = market_context
        luna = Luna(ctx, planner_model="sim-oracle", policy="quality")
        result = luna.query(
            "List the fastest growing companies in the BNPL market and their competitors.",
            index="earnings",
            secondary_indexes=["market_db"],
        )
        operations = [n.operation for n in result.optimized_plan.nodes]
        assert "Join" in operations
        assert result.answer, "join produced no rows"
        by_company = {r["company"]: r for r in build_market_database(records, seed=1)}
        for company, competitors in result.answer:
            assert competitors == by_company[company]["competitors"]

    def test_join_ignored_without_secondary(self, market_context):
        _, ctx = market_context
        luna = Luna(ctx, planner_model="sim-oracle", policy="quality")
        result = luna.query(
            "List the fastest growing companies in the BNPL market and their competitors.",
            index="earnings",
        )
        operations = [n.operation for n in result.optimized_plan.nodes]
        assert "Join" not in operations  # no database offered, no join

    def test_docset_project_parity(self, market_context):
        _, ctx = market_context
        names = ctx.read.index("earnings").limit(3).project("company")
        assert len(names) == 3
        pairs = ctx.read.index("earnings").limit(2).project(["company", "sector"])
        assert all(len(p) == 2 for p in pairs)
