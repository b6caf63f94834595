"""Tests for repro.serving: single-flight caches, admission, accounting.

The invariants the subsystem documents:

* N identical concurrent queries plan once and execute once (asserted
  through the metrics registry, not timing);
* a corpus-version bump invalidates the result cache but keeps the plan
  cache (plans depend on the schema, answers on the data);
* overload sheds with typed :class:`Overloaded` rejections and never
  deadlocks; drain completes every admitted query;
* cache reuse shows up as ``saved_usd`` in the tenant's cost account.

Also covers the satellite plumbing this PR added underneath the service:
``stable_fingerprint``/``plan_fingerprint``, the DiskCache fingerprint
sidecar, and monotonic catalog versions.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.docmodel.document import Document
from repro.execution.materialize import (
    DiskCache,
    plan_fingerprint,
    stable_fingerprint,
)
from repro.indexes.catalog import IndexCatalog
from repro.llm import ReliableLLM, SimulatedLLM
from repro.luna import Luna
from repro.luna.planner import LunaPlanner
from repro.observability import MetricsRegistry, Tracer
from repro.partitioner import ArynPartitioner
from repro.serving import (
    COALESCED,
    HIT,
    MISS,
    Overloaded,
    QueryService,
    ServiceClosed,
    ServiceConfig,
    SingleFlightCache,
    TenantQuota,
    index_fingerprint,
    normalize_question,
    plan_cache_key,
    result_cache_key,
)
from repro.sycamore import SycamoreContext
from repro.datagen import generate_ntsb_corpus

SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
}


def build_served_context(n_docs=10, seed=13):
    """A private-registry NTSB context with the LLM response cache OFF,
    so serving-cache savings are the only savings in play."""
    registry = MetricsRegistry()
    tracer = Tracer()
    llm = ReliableLLM(
        SimulatedLLM(seed=seed),
        cache_enabled=False,
        tracer=tracer,
        registry=registry,
    )
    ctx = SycamoreContext(
        llm=llm, parallelism=2, seed=seed, tracer=tracer, registry=registry
    )
    _, raws = generate_ntsb_corpus(n_docs, seed=seed)
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties(SCHEMA, model="sim-large")
        .write.index("ntsb")
    )
    return ctx


@pytest.fixture(scope="module")
def served_ctx():
    return build_served_context()


@pytest.fixture()
def service(served_ctx):
    registry = MetricsRegistry()
    service = QueryService(
        served_ctx, ServiceConfig(max_workers=3), registry=registry
    )
    yield service
    service.close()


# ----------------------------------------------------------------------
# SingleFlightCache
# ----------------------------------------------------------------------


class TestSingleFlightCache:
    def test_miss_then_hit(self):
        cache = SingleFlightCache()
        calls = []
        value, outcome = cache.get_or_compute("k", lambda: calls.append(1) or 41)
        assert outcome == MISS
        value, outcome = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert outcome == HIT
        assert len(calls) == 1

    def test_concurrent_callers_coalesce_onto_one_compute(self):
        cache = SingleFlightCache()
        release = threading.Event()
        computes = []

        def compute():
            computes.append(1)
            release.wait(timeout=10)
            return "answer"

        n = 8
        with ThreadPoolExecutor(max_workers=n) as pool:
            futures = [
                pool.submit(cache.get_or_compute, "key", compute) for _ in range(n)
            ]
            # Wait until the leader is inside compute, then release it.
            while not computes:
                time.sleep(0.001)
            time.sleep(0.01)  # give the others time to park on the future
            release.set()
            results = [f.result(timeout=10) for f in futures]
        assert len(computes) == 1
        assert all(value == "answer" for value, _ in results)
        outcomes = sorted(outcome for _, outcome in results)
        assert outcomes.count(MISS) == 1
        assert outcomes.count(COALESCED) + outcomes.count(HIT) == n - 1

    def test_failures_propagate_and_are_not_cached(self):
        cache = SingleFlightCache()

        def boom():
            raise RuntimeError("planner down")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        # The failure is not cached: the next caller recomputes.
        value, outcome = cache.get_or_compute("k", lambda: "recovered")
        assert (value, outcome) == ("recovered", MISS)

    def test_concurrent_waiters_see_the_leaders_exception(self):
        cache = SingleFlightCache()
        release = threading.Event()
        entered = threading.Event()

        def boom():
            entered.set()
            release.wait(timeout=10)
            raise RuntimeError("planner down")

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(cache.get_or_compute, "k", boom) for _ in range(3)
            ]
            entered.wait(timeout=10)
            time.sleep(0.01)
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="planner down"):
                    future.result(timeout=10)

    def test_lru_eviction(self):
        cache = SingleFlightCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        assert cache.peek("c") == 3
        assert cache.stats()["evictions"] == 1


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------


class TestCacheKeys:
    def test_normalize_question(self):
        assert (
            normalize_question("  How many\n incidents?? ")
            == normalize_question("how many incidents")
        )
        assert normalize_question("a") != normalize_question("b")

    def test_plan_key_survives_version_bump_result_key_does_not(self):
        catalog = IndexCatalog()
        index = catalog.create("ntsb")
        index.schema["state"] = "string"
        doc = Document(doc_id="d1", text="wind incident in AK")
        pkey_before = plan_cache_key("how many?", index)
        rkey_before = result_cache_key("how many?", index)
        index.add_document(doc)
        assert plan_cache_key("how many?", index) == pkey_before
        assert result_cache_key("how many?", index) != rkey_before

    def test_schema_change_invalidates_plan_key(self):
        catalog = IndexCatalog()
        index = catalog.create("ntsb")
        index.schema["state"] = "string"
        fp_before = index_fingerprint(index)
        pkey_before = plan_cache_key("how many?", index)
        index.schema["incident_year"] = "int"
        assert index_fingerprint(index) != fp_before
        assert plan_cache_key("how many?", index) != pkey_before


# ----------------------------------------------------------------------
# QueryService: single-flight end to end
# ----------------------------------------------------------------------


class TestServiceSingleFlight:
    def test_n_threads_identical_query_one_plan_one_execution(self, served_ctx):
        """Concurrent repeats of two distinct questions from two tenants:
        each distinct question is planned and executed once, every other
        request is a hit or a coalesced follower, and the saving shows in
        both tenants' ledgers."""
        registry = MetricsRegistry()
        questions = [
            "How many incidents were caused by wind?",
            "How many incidents were caused by icing?",
        ]
        repeats = 4
        mix = [
            (f"tenant-{i % 2}", question)
            for i in range(repeats)
            for question in questions
        ]
        n, distinct = len(mix), len(questions)
        with QueryService(
            served_ctx,
            ServiceConfig(max_workers=4, default_tenant_inflight=n),
            registry=registry,
        ) as service:
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(
                        service.query, question, "ntsb", tenant=tenant, timeout=60
                    )
                    for tenant, question in mix
                ]
                results = [f.result(timeout=60) for f in futures]
            # The cache-concurrency invariant, asserted via counters.
            assert registry.counter("serving.plans_computed").value() == distinct
            assert registry.counter("serving.executions").value() == distinct
            for question in questions:
                answers = {r.answer for r in results if r.question == question}
                assert len(answers) == 1
            outcomes = sorted(r.result_cache for r in results)
            assert outcomes.count(MISS) == distinct
            assert outcomes.count(COALESCED) + outcomes.count(HIT) == n - distinct
            # One query per distinct question paid; the rest were credited
            # savings, visible per tenant.
            payers = [r for r in results if r.cost_usd > 0]
            savers = [r for r in results if r.saved_usd > 0]
            assert len(payers) == distinct
            assert len(savers) == n - distinct
            for tenant in ("tenant-0", "tenant-1"):
                assert service.tenant_account(tenant).saved_usd > 0

    def test_version_bump_invalidates_result_cache_keeps_plan_cache(
        self, served_ctx
    ):
        registry = MetricsRegistry()
        question = "How many incidents happened in 2023?"
        with QueryService(served_ctx, registry=registry) as service:
            first = service.query(question, "ntsb", timeout=60)
            assert first.result_cache == MISS
            again = service.query(question, "ntsb", timeout=60)
            assert again.result_cache == HIT
            # Ingest one more document: the corpus version moves on.
            index = served_ctx.catalog.get("ntsb")
            index.add_document(index.all_documents()[0])
            after_bump = service.query(question, "ntsb", timeout=60)
            assert after_bump.result_cache == MISS
            assert after_bump.plan_cache == HIT  # schema unchanged
            assert registry.counter("serving.plans_computed").value() == 1
            assert registry.counter("serving.executions").value() == 2

    def test_served_answer_matches_plain_luna(self, served_ctx, service):
        luna = Luna(served_ctx, error_policy="dead_letter")
        for question in (
            "How many incidents were caused by wind?",
            "How many incidents were caused by icing?",
            "How many incidents happened in 2023?",
            "How many incidents had fatal injuries?",
        ):
            expected = luna.query(question, "ntsb")
            served = service.query(question, "ntsb", timeout=60)
            assert served.answer == expected.answer, question


# ----------------------------------------------------------------------
# QueryService: tenants, accounting, sessions
# ----------------------------------------------------------------------


class TestServiceAccounting:
    def test_cache_hits_credited_as_saved_usd(self, served_ctx):
        registry = MetricsRegistry()
        with QueryService(served_ctx, registry=registry) as service:
            question = "How many incidents had fatal injuries?"
            miss = service.query(question, "ntsb", timeout=60, tenant="alice")
            hit = service.query(question, "ntsb", timeout=60, tenant="bob")
            assert miss.cost_usd > 0 and miss.saved_usd == 0
            assert hit.cost_usd == 0 and hit.saved_usd > 0
            alice = service.tenant_account("alice")
            bob = service.tenant_account("bob")
            assert alice.cost_usd == pytest.approx(miss.cost_usd)
            assert alice.saved_usd == 0
            # Bob never spent a simulated dollar; his ledger shows what
            # the cache saved him.
            assert bob.cost_usd == 0
            assert bob.saved_usd == pytest.approx(hit.saved_usd)
            assert registry.counter("serving.saved_usd").value() == pytest.approx(
                hit.saved_usd
            )

    def test_session_records_conversation_and_follow_up(self, served_ctx, service):
        session = service.open_session(tenant="carol", index="ntsb")
        first = service.query(
            "How many incidents were caused by wind?", timeout=60, session=session
        )
        assert first.session_id == session.session_id
        follow = service.query(
            "Of those, how many were in Alaska?",
            timeout=60,
            session=session,
            follow_up=True,
        )
        assert follow.plan_cache == "bypass"
        assert follow.result_cache == "bypass"
        assert len(session) == 2
        transcript = session.render()
        assert "wind" in transcript and "Alaska" in transcript

    def test_follow_up_without_history_fails_typed(self, service):
        session = service.open_session(tenant="dave", index="ntsb")
        ticket = service.submit(
            "Of those, how many were fatal?", session=session, follow_up=True
        )
        with pytest.raises(Exception, match="provenance"):
            ticket.result(timeout=60)

    def test_progress_events_in_order(self, service):
        ticket = service.submit(
            "How many incidents were caused by icing?", "ntsb", tenant="eve"
        )
        stages = [event.stage for event in ticket.stream(timeout=60)]
        assert stages[0] == "admitted"
        assert stages[-1] == "completed"
        assert "executing" in stages or "result_cache_hit" in stages
        assert ticket.done()


# ----------------------------------------------------------------------
# QueryService: admission control, overload, shutdown
# ----------------------------------------------------------------------


def _gate_planner(monkeypatch):
    """Patch the planner so questions containing BLOCK park on an event,
    making 'worker is busy' a deterministic state instead of a race."""
    gate = threading.Event()
    entered = threading.Event()
    original = LunaPlanner.plan

    def gated_plan(self, question, index, secondary=()):
        if "BLOCK" in question:
            entered.set()
            assert gate.wait(timeout=30), "test gate never released"
        return original(self, question, index, secondary=secondary)

    monkeypatch.setattr(LunaPlanner, "plan", gated_plan)
    return gate, entered


class TestAdmissionControl:
    def test_queue_full_sheds_typed(self, served_ctx, monkeypatch):
        gate, entered = _gate_planner(monkeypatch)
        service = QueryService(
            served_ctx,
            ServiceConfig(max_workers=1, max_queue_depth=2),
            registry=MetricsRegistry(),
        )
        try:
            blocked = service.submit("BLOCK how many incidents?", "ntsb")
            assert entered.wait(timeout=30)  # the one worker is now busy
            queued = [
                service.submit(f"queued question {i}?", "ntsb") for i in range(2)
            ]
            with pytest.raises(Overloaded) as excinfo:
                service.submit("one too many?", "ntsb")
            assert excinfo.value.reason == "queue_full"
            gate.set()
            # No deadlock: everything admitted completes.
            assert blocked.result(timeout=60).answer is not None
            for ticket in queued:
                ticket.result(timeout=60)
            stats = service.stats()
            assert stats["rejected"] == 1
            assert stats["completed"] == 3
        finally:
            gate.set()
            service.close()

    def test_tenant_quota_sheds_only_that_tenant(self, served_ctx, monkeypatch):
        gate, entered = _gate_planner(monkeypatch)
        service = QueryService(
            served_ctx,
            ServiceConfig(max_workers=1, max_queue_depth=8),
            registry=MetricsRegistry(),
        )
        try:
            service.set_quota("greedy", TenantQuota(max_inflight=1))
            blocked = service.submit("BLOCK count incidents?", "ntsb", tenant="greedy")
            assert entered.wait(timeout=30)
            with pytest.raises(Overloaded) as excinfo:
                service.submit("another?", "ntsb", tenant="greedy")
            assert excinfo.value.reason == "tenant_quota"
            # Another tenant is unaffected by greedy's quota.
            other = service.submit("unrelated question?", "ntsb", tenant="modest")
            gate.set()
            blocked.result(timeout=60)
            other.result(timeout=60)
            assert service.tenant("greedy").rejected == 1
            assert service.tenant("modest").rejected == 0
        finally:
            gate.set()
            service.close()

    def test_drain_completes_all_admitted(self, served_ctx):
        service = QueryService(
            served_ctx, ServiceConfig(max_workers=2), registry=MetricsRegistry()
        )
        tickets = [
            service.submit(f"How many incidents in state {i}?", "ntsb")
            for i in range(5)
        ]
        assert service.drain(timeout=120)
        assert all(ticket.done() for ticket in tickets)
        service.close()
        assert service.stats()["completed"] == 5

    def test_submit_after_close_raises_service_closed(self, served_ctx):
        service = QueryService(served_ctx, registry=MetricsRegistry())
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit("anything?", "ntsb")

    def test_close_without_drain_fails_queued_typed(self, served_ctx, monkeypatch):
        gate, entered = _gate_planner(monkeypatch)
        service = QueryService(
            served_ctx,
            ServiceConfig(max_workers=1, max_queue_depth=8),
            registry=MetricsRegistry(),
        )
        running = service.submit("BLOCK slow question?", "ntsb")
        assert entered.wait(timeout=30)
        queued = service.submit("never starts?", "ntsb")
        service.close(drain=False, timeout=0.2)
        with pytest.raises(ServiceClosed):
            queued.result(timeout=10)
        assert [e.stage for e in queued.events()][-1] == "cancelled"
        gate.set()
        # The already-running query still completes: close never strands
        # an admitted future.
        assert running.result(timeout=60) is not None
        service.close()


# ----------------------------------------------------------------------
# Satellite plumbing: fingerprints, sidecars, catalog versions
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_stable_fingerprint_is_deterministic_and_sensitive(self):
        a = stable_fingerprint(["x", {"k": 1}])
        assert a == stable_fingerprint(["x", {"k": 1}])
        assert a != stable_fingerprint(["x", {"k": 2}])
        # Part boundaries matter: ["ab"] != ["a", "b"].
        assert stable_fingerprint(["ab"]) != stable_fingerprint(["a", "b"])

    def test_plan_fingerprint_ignores_auto_name_counters(self, tmp_path):
        ctx = SycamoreContext(seed=1)
        docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(3)]
        first = ctx.read.documents(docs).filter(lambda d: True).plan
        second = ctx.read.documents(docs).filter(lambda d: True).plan
        # Same pipeline built twice gets fresh auto-name counters but the
        # same fingerprint — that's what makes disk caches reusable
        # across processes.
        assert plan_fingerprint(first) == plan_fingerprint(second)
        mapped = ctx.read.documents(docs).map(lambda d: d).plan
        assert plan_fingerprint(first) != plan_fingerprint(mapped)


class TestDiskCacheFingerprint:
    def test_sidecar_written_and_checked(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = DiskCache(path, fingerprint="abc123")
        cache.write([{"v": 1}])
        assert cache.fingerprint_path.read_text().strip() == "abc123"
        assert cache.is_valid()
        # A different pipeline (different fingerprint) must not reuse it.
        other = DiskCache(path, fingerprint="def456")
        assert not other.is_valid()
        # Without a fingerprint the historical existence check applies.
        assert DiskCache(path).is_valid()

    def test_missing_sidecar_invalidates(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        DiskCache(path).write([{"v": 1}])  # legacy write, no sidecar
        assert not DiskCache(path, fingerprint="abc123").is_valid()

    def test_invalidate_removes_sidecar(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = DiskCache(path, fingerprint="abc123")
        cache.write([{"v": 1}])
        cache.invalidate()
        assert not path.exists()
        assert not cache.fingerprint_path.exists()

    def test_docset_materialize_recomputes_on_plan_change(self, tmp_path):
        ctx = SycamoreContext(seed=1)
        docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(4)]
        target = tmp_path / "mat.jsonl"
        ctx.read.documents(docs).materialize(target).take_all()
        assert target.exists() and target.with_suffix(".jsonl.fp").exists()
        # A different upstream pipeline writing to the same path must not
        # serve the stale records.
        kept = (
            ctx.read.documents(docs)
            .filter(lambda d: d.doc_id != "d0")
            .materialize(target)
            .take_all()
        )
        assert len(kept) == 3


class TestCatalogVersions:
    def test_versions_are_monotonic_across_mutations(self):
        catalog = IndexCatalog()
        assert catalog.version() == 0
        index = catalog.create("a")
        v1 = catalog.version()
        assert v1 > 0
        index.add_document(Document(doc_id="d1", text="hello"))
        v2 = catalog.version()
        assert v2 > v1
        catalog.drop("a")
        v3 = catalog.version()
        assert v3 > v2  # dropping never rolls the clock back
        catalog.create("a")
        assert catalog.version() > v3
        assert catalog.versions() == {"a": 0}

    def test_version_survives_save_load_roundtrip(self, tmp_path):
        catalog = IndexCatalog()
        index = catalog.create("a")
        index.add_document(Document(doc_id="d1", text="hello"))
        assert index.version == 1
        catalog.save(tmp_path)
        fresh = IndexCatalog()
        fresh.load(tmp_path)
        assert fresh.get("a").version == 1
        assert fresh.version() > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestServeCli:
    def test_serve_once_smoke(self, capsys):
        from repro.cli import main

        assert main(["serve", "--once", "--docs", "8", "--parallelism", "2"]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        assert "saved $" in out
