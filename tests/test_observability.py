"""Tests for repro.observability: tracing, metrics, cost accounting.

Covers the invariants the subsystem documents: span parent/child
integrity across executor thread pools and scheduler batches, registry
snapshot consistency under concurrent writers, and cost-rollup
arithmetic checked against a hand-computed plan.
"""

import contextvars
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.execution.executor import Executor
from repro.execution.plan import Plan
from repro.llm.base import LLMClient, LLMResponse, Usage, get_model_spec
from repro.llm.client import ReliableLLM
from repro.llm.cost import CostTracker
from repro.llm.errors import TransientLLMError
from repro.llm.simulated import SimulatedLLM
from repro.observability import (
    CostAccount,
    MetricsRegistry,
    Tracer,
    get_registry,
    render_trace_tree,
    trace_to_dict,
    write_trace_json,
)
from repro.observability.metrics import HISTOGRAM_SAMPLES
from repro.runtime.scheduler import Priority, RequestScheduler


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        with tracer.span("query", kind="query") as root:
            with tracer.span("op", kind="operator") as child:
                with tracer.span("llm", kind="llm_request") as leaf:
                    pass
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id
        assert root.trace_id == child.trace_id == leaf.trace_id
        assert root.parent_id is None

    def test_ids_are_stable_and_sequential(self):
        tracer = Tracer()
        first = tracer.start_span("a", parent=None)
        second = tracer.start_span("b", parent=None)
        assert first.span_id == "s000001"
        assert second.span_id == "s000002"
        assert first.trace_id == "t0001"
        assert second.trace_id == "t0002"

    def test_parent_none_forces_new_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            root = tracer.start_span("batch", kind="batch", parent=None)
        assert root.trace_id != outer.trace_id
        assert root.parent_id is None

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("x")
        tracer.finish(span, status="error", error="boom")
        end = span.end_s
        tracer.finish(span)  # second finish must not overwrite
        assert span.end_s == end
        assert span.status == "error"
        assert span.error == "boom"

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("bad input")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "bad input" in span.error

    def test_propagation_across_thread_pool(self):
        """Workers see the submitter's span when given a copied context."""
        tracer = Tracer()

        def task(i):
            with tracer.span(f"child-{i}", kind="llm_request"):
                pass
            return tracer.current().span_id  # the ambient parent

        with tracer.span("parent", kind="operator") as parent:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, task, i)
                    for i in range(20)
                ]
                ambient_ids = [f.result() for f in futures]
        assert set(ambient_ids) == {parent.span_id}
        children = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(children) == 20
        assert {c.parent_id for c in children} == {parent.span_id}
        assert {c.trace_id for c in children} == {parent.trace_id}

    def test_max_spans_evicts_oldest_finished_trace(self):
        tracer = Tracer(max_spans=3)
        roots = [tracer.finish(tracer.start_span(f"s{i}", parent=None)) for i in range(5)]
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.trace_ids() == [r.trace_id for r in roots[2:]]
        assert tracer.trace_spans(roots[0].trace_id) == []
        assert tracer.get(roots[0].span_id) is None
        assert tracer.dropped_spans == 0

    def test_eviction_takes_whole_traces_and_spares_open_ones(self):
        tracer = Tracer(max_spans=4)
        with tracer.span("open", kind="query") as still_open:
            tracer.finish(tracer.start_span("child-of-open"))
            with tracer.span("done", kind="query", parent=None) as done:
                tracer.finish(tracer.start_span("child-of-done"))
            # Four retained, at the bound; the fifth span evicts "done"
            # whole, although "open" is older.
            with tracer.span("next", kind="query", parent=None):
                pass
            assert tracer.trace_spans(done.trace_id) == []
            assert [s.name for s in tracer.trace_spans(still_open.trace_id)] == [
                "open", "child-of-open"
            ]
            # Nothing finished is left to evict: an open trace may exceed
            # the bound rather than lose its own spans.
            for _ in range(6):
                tracer.finish(tracer.start_span("more"))
            assert len(tracer.trace_spans(still_open.trace_id)) == 8
        assert tracer.dropped_spans == 0

    def test_child_of_an_evicted_trace_is_dropped(self):
        tracer = Tracer(max_spans=1)
        first = tracer.finish(tracer.start_span("first", parent=None))
        tracer.finish(tracer.start_span("second", parent=None))
        late = tracer.start_span("late", parent=first)
        assert late.trace_id == first.trace_id
        assert tracer.dropped_spans == 1
        assert [s.name for s in tracer.spans()] == ["second"]

    def test_eviction_under_contention_keeps_traces_whole(self):
        tracer = Tracer(max_spans=60)

        def queries(_):
            for _ in range(150):
                with tracer.span("q", kind="query", parent=None) as root:
                    for _ in range(4):
                        tracer.finish(tracer.start_span("child"))
                    assert len(tracer.trace_spans(root.trace_id)) == 5

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for done in pool.map(queries, range(6), timeout=60):
                    assert done is None
        finally:
            sys.setswitchinterval(interval)
        assert tracer.dropped_spans == 0
        assert len(tracer.spans()) <= 60
        assert all(len(tracer.trace_spans(t)) == 5 for t in tracer.trace_ids())

    def test_order_survives_ids_wider_than_their_padding(self):
        tracer = Tracer()
        tracer._trace_counter = 9_998
        tracer._span_counter = 999_998
        spans = [
            tracer.finish(tracer.start_span(f"q{i}", kind="query", parent=None))
            for i in range(3)
        ]
        assert [s.trace_id for s in spans] == ["t9999", "t10000", "t10001"]
        assert tracer.spans() == spans
        assert tracer.trace_ids() == ["t9999", "t10000", "t10001"]
        assert tracer.last_trace() == tracer.last_trace(kind="query") == "t10001"

    def test_trace_spans_and_last_trace(self):
        tracer = Tracer()
        with tracer.span("q1", kind="query"):
            tracer.finish(tracer.start_span("inner"))
        with tracer.span("q2", kind="query") as q2:
            pass
        assert tracer.last_trace(kind="query") == q2.trace_id
        assert [s.name for s in tracer.trace_spans(q2.trace_id)] == ["q2"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_percentiles_hand_computed(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        snap = hist.value()
        assert snap["count"] == 100
        assert snap["sum"] == 5050.0
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["mean"] == 50.5
        assert snap["p50"] == 50.0  # nearest-rank
        assert snap["p90"] == 90.0
        assert snap["p99"] == 99.0

    def test_percentiles_read_only_the_recent_reservoir(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1000.0, 1.0):
            for _ in range(HISTOGRAM_SAMPLES):
                hist.observe(value)
        snap = hist.value()
        # Count, sum and extremes are exact over every observation; the
        # percentiles only see the last HISTOGRAM_SAMPLES of them.
        assert snap["count"] == 2 * HISTOGRAM_SAMPLES
        assert snap["max"] == 1000.0
        assert snap["p99"] == 1.0

    def test_snapshot_consistent_under_concurrent_writers(self):
        registry = MetricsRegistry()
        counter = registry.counter("writes")
        hist = registry.histogram("obs")
        stop = threading.Event()
        snapshots = []

        def writer():
            while not stop.is_set():
                counter.inc()
                hist.observe(1.0)

        def reader():
            while not stop.is_set():
                snapshots.append(registry.snapshot())

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time

        time.sleep(0.15)
        stop.set()
        for t in threads:
            t.join()
        final = registry.snapshot()
        # Exact counts survive concurrency, and the two instruments agree.
        assert final["writes"] == final["obs"]["count"]
        # Snapshots taken mid-write are monotone non-decreasing.
        values = [snap["writes"] for snap in snapshots if "writes" in snap]
        assert values == sorted(values)

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.reset()
        assert registry.names() == ["a"]
        assert registry.counter("a").value() == 0.0

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------


def _llm_span(tracer, name="llm:sim-small", **attrs):
    span = tracer.start_span(name, kind="llm_request", **attrs)
    tracer.finish(span)
    return span


class TestCostAccount:
    def test_rollup_matches_hand_computed_plan(self):
        """Two operators, three requests — totals computed by hand."""
        tracer = Tracer()
        with tracer.span("query:test", kind="query"):
            with tracer.span("op[0]:LlmFilter", kind="operator"):
                _llm_span(
                    tracer, input_tokens=100, output_tokens=10, cost_usd=0.002
                )
                _llm_span(
                    tracer,
                    input_tokens=50,
                    output_tokens=5,
                    cost_usd=0.0,
                    saved_usd=0.001,
                    cached=True,
                )
            with tracer.span("op[1]:Summarize", kind="operator"):
                _llm_span(
                    tracer,
                    input_tokens=200,
                    output_tokens=40,
                    cost_usd=0.004,
                    retries=2,
                )
        account = CostAccount.from_spans(tracer.spans())
        assert account.llm_calls == 3
        assert account.input_tokens == 350
        assert account.output_tokens == 55
        assert account.total_tokens == 405
        assert account.cost_usd == pytest.approx(0.006)
        assert account.saved_usd == pytest.approx(0.001)
        assert account.cached_calls == 1
        assert account.retries == 2
        ops = account.operators
        assert set(ops) == {"op[0]:LlmFilter", "op[1]:Summarize"}
        assert ops["op[0]:LlmFilter"].llm_calls == 2
        assert ops["op[0]:LlmFilter"].cost_usd == pytest.approx(0.002)
        assert ops["op[1]:Summarize"].retries == 2

    def test_same_operation_twice_rolls_up_separately(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            with tracer.span("op[0]:LlmFilter", kind="operator"):
                _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
            with tracer.span("op[2]:LlmFilter", kind="operator"):
                _llm_span(tracer, input_tokens=20, output_tokens=2, cost_usd=0.002)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"op[0]:LlmFilter", "op[2]:LlmFilter"}

    def test_orphan_requests_attribute_to_query(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"(query)"}

    def test_requests_under_transform_attribute_to_transform(self):
        tracer = Tracer()
        with tracer.span("execute:p", kind="plan"):
            with tracer.span("transform:extract", kind="transform"):
                _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"transform:extract"}

    def test_export_and_result_totals_agree(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            with tracer.span("op[0]:X", kind="operator"):
                _llm_span(tracer, input_tokens=7, output_tokens=3, cost_usd=0.005)
        spans = tracer.spans()
        account = CostAccount.from_spans(spans)
        doc = trace_to_dict(spans, account)
        assert doc["cost"] == account.as_dict()
        assert doc["cost"]["totals"]["cost_usd"] == round(account.cost_usd, 6)

    def test_json_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            _llm_span(tracer, input_tokens=1, output_tokens=1, cost_usd=0.0)
        path = write_trace_json(tmp_path / "trace.json", tracer.spans())
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert len(doc["spans"]) == 2
        assert doc["trace_id"] == tracer.spans()[0].trace_id

    def test_render_tree_truncates(self):
        tracer = Tracer()
        with tracer.span("root", kind="query"):
            for _ in range(10):
                _llm_span(tracer, input_tokens=1, output_tokens=1)
        text = render_trace_tree(tracer.spans(), max_spans=4)
        assert "more spans truncated" in text
        assert len(text.splitlines()) == 5  # 4 spans + truncation line


# ----------------------------------------------------------------------
# ReliableLLM cost accounting (the cache-hit bugfix)
# ----------------------------------------------------------------------


class TestReliableLLMAccounting:
    def test_cache_hits_counted_at_zero_dollars(self):
        tracker = CostTracker()
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=0, tracker=tracker)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)

        first = llm.complete("the same prompt", model="sim-small")
        second = llm.complete("the same prompt", model="sim-small")
        assert not first.cached
        assert second.cached

        summary = tracker.summary()
        # Before the fix the replayed call vanished from the ledger;
        # now it is recorded — tokens counted, dollars zero.
        assert summary.calls == 2
        assert summary.cached_calls == 1
        solo_cost = tracker.records()[0].cost_usd
        assert summary.cost_usd == pytest.approx(solo_cost)

        spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(spans) == 2
        cached_span = spans[1]
        assert cached_span.attributes["cached"] is True
        assert cached_span.attributes["cost_usd"] == 0.0
        assert cached_span.attributes["saved_usd"] > 0.0
        assert cached_span.attributes["input_tokens"] > 0
        assert registry.counter("llm.cache_hits").value() == 1.0
        assert registry.counter("llm.saved_usd").value() > 0.0


class _FailsFirst(LLMClient):
    """Raises a transient error on its first ``failures`` calls."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        if self.failures > 0:
            self.failures -= 1
            raise TransientLLMError("not this time")
        return self.inner.complete(prompt, model, max_output_tokens, temperature)


class _NoPriceCard(LLMClient):
    """A backend that meters tokens and prices nothing."""

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        return LLMResponse(text="ok", model=model, usage=Usage(1200, 30, 1), latency_s=0.5)


class TestOnePricedRecordPerCall:
    """A response is priced where it is made, and the ledger, the
    ``llm_request`` span, the ``llm.*`` counters and the span rollup all
    say what that one price says."""

    TOLERANCE = 1e-12

    def stack(self, wrap=lambda sim: sim, **client_options):
        tracker, tracer, registry = CostTracker(), Tracer(), MetricsRegistry()
        sim = SimulatedLLM(seed=0, tracker=tracker)
        llm = ReliableLLM(
            wrap(sim),
            tracker=tracker,
            tracer=tracer,
            registry=registry,
            sleeper=lambda s: None,
            **client_options,
        )
        return sim, llm, tracker, tracer, registry

    def by_hand(self, response):
        spec = get_model_spec(response.model)
        usage = response.usage
        return (
            usage.input_tokens * spec.input_price_per_mtok
            + usage.output_tokens * spec.output_price_per_mtok
        ) / 1_000_000.0

    def assert_books_agree(self, tracker, tracer, registry, trace_id, cost, saved, calls):
        spans = [s for s in tracer.trace_spans(trace_id) if s.kind == "llm_request"]
        account = CostAccount.from_spans(tracer.trace_spans(trace_id))
        for got in (
            tracker.summary().cost_usd,
            sum(s.attributes.get("cost_usd", 0.0) for s in spans),
            registry.counter("llm.cost_usd").value(),
            account.cost_usd,
        ):
            assert got == pytest.approx(cost, abs=self.TOLERANCE)
        for got in (
            sum(s.attributes.get("saved_usd", 0.0) for s in spans),
            registry.counter("llm.saved_usd").value(),
            account.saved_usd,
        ):
            assert got == pytest.approx(saved, abs=self.TOLERANCE)
        assert tracker.summary().calls == registry.counter("llm.requests").value() == calls
        assert account.llm_calls == len(spans)

    def test_a_real_call_then_a_cache_hit(self):
        sim, llm, tracker, tracer, registry = self.stack()
        with tracer.span("q", kind="query") as root:
            first = llm.complete("what happened near the runway", model="sim-small")
            price = self.by_hand(first)
            assert price > 0 and first.price_usd == pytest.approx(price, abs=self.TOLERANCE)
            assert (first.cost_usd, first.saved_usd) == (first.price_usd, 0.0)
            self.assert_books_agree(tracker, tracer, registry, root.trace_id, price, 0.0, 1)
            second = llm.complete("what happened near the runway", model="sim-small")
        assert second.cached and second.price_usd == first.price_usd
        assert (second.cost_usd, second.saved_usd) == (0.0, first.price_usd)
        assert sim.calls == 1
        self.assert_books_agree(tracker, tracer, registry, root.trace_id, price, price, 2)
        assert tracker.summary().cached_calls == 1
        assert registry.counter("llm.cache_hits").value() == 1

    def test_a_scheduler_dedup_waiter(self):
        sim, llm, tracker, tracer, registry = self.stack(cache_enabled=False)
        scheduler = RequestScheduler(client=llm, max_wait_ms=20.0, tracer=tracer, registry=registry)
        try:
            with tracer.span("q", kind="query") as root:
                a = scheduler.submit("same prompt", model="sim-small")
                b = scheduler.submit("same prompt", model="sim-small")
                assert a is b
                response = a.result(timeout=10)
        finally:
            scheduler.close()
        price = self.by_hand(response)
        assert sim.calls == 1
        # The query's trace holds the two submitters' spans; the client's
        # own span hangs under the batch. Both views book the one price.
        payer, waiter = sorted(
            (s for s in tracer.trace_spans(root.trace_id) if s.kind == "llm_request"),
            key=lambda s: bool(s.attributes.get("dedup")),
        )
        assert payer.attributes["cost_usd"] == pytest.approx(price, abs=self.TOLERANCE)
        assert (waiter.attributes["cost_usd"], waiter.attributes["dedup"]) == (0.0, "inflight")
        assert waiter.attributes["saved_usd"] == pytest.approx(price, abs=self.TOLERANCE)
        account = CostAccount.from_spans(tracer.trace_spans(root.trace_id))
        assert account.cost_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert account.saved_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert tracker.summary().cost_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert registry.counter("llm.cost_usd").value() == pytest.approx(price, abs=self.TOLERANCE)
        assert registry.counter("llm.saved_usd").value() == 0.0  # the client served one call

    def test_a_retried_call_and_an_errored_call(self):
        sim, llm, tracker, tracer, registry = self.stack(
            wrap=lambda sim: _FailsFirst(sim, failures=2), max_retries=2, cache_enabled=False
        )
        with tracer.span("q", kind="query") as root:
            response = llm.complete("retry me", model="sim-large")
        price = self.by_hand(response)
        self.assert_books_agree(tracker, tracer, registry, root.trace_id, price, 0.0, 1)
        (span,) = [s for s in tracer.trace_spans(root.trace_id) if s.kind == "llm_request"]
        assert span.attributes["retries"] == 2 and sim.calls == 1

        llm.backend.failures = 3  # more than the retries left
        with tracer.span("q2", kind="query") as failed_root:
            with pytest.raises(TransientLLMError):
                llm.complete("give up on me", model="sim-large")
        (errored,) = [s for s in tracer.trace_spans(failed_root.trace_id) if s.kind == "llm_request"]
        assert errored.status == "error" and "cost_usd" not in errored.attributes
        assert CostAccount.from_spans(tracer.trace_spans(failed_root.trace_id)).cost_usd == 0.0
        # Nothing was served, so nothing was booked anywhere.
        assert tracker.summary().calls == registry.counter("llm.requests").value() == 1
        assert registry.counter("llm.cost_usd").value() == pytest.approx(price, abs=self.TOLERANCE)

    def test_the_client_prices_a_backend_that_does_not(self):
        tracker, tracer, registry = CostTracker(), Tracer(), MetricsRegistry()
        llm = ReliableLLM(_NoPriceCard(), tracker=tracker, tracer=tracer, registry=registry)
        with tracer.span("q", kind="query") as root:
            first = llm.complete("p", model="sim-medium")
            second = llm.complete("p", model="sim-medium")
            unknown = llm.complete("p", model="no-such-model")
        price = self.by_hand(first)
        assert first.price_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert second.cached and second.saved_usd == first.price_usd
        assert unknown.price_usd == 0.0  # no price card: tokens counted, no dollars
        account = CostAccount.from_spans(tracer.trace_spans(root.trace_id))
        assert account.cost_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert account.saved_usd == pytest.approx(price, abs=self.TOLERANCE)
        assert registry.counter("llm.cost_usd").value() == pytest.approx(price, abs=self.TOLERANCE)
        # This backend keeps no ledger: only the client's cache hit is in it.
        assert (tracker.summary().calls, tracker.summary().cost_usd) == (1, 0.0)

    def test_where_src_prices_tokens(self):
        """``.cost_usd(`` is called where a response (or a by-hand ledger
        entry) is made, and nowhere a made response is read. The
        optimizer's cost model prices estimates, not responses."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        sites = sorted(
            f"{path.relative_to(src)}:{line.strip()}"
            for path in src.rglob("*.py")
            if path.relative_to(src).as_posix() != "optimizer/costmodel.py"
            for line in path.read_text(encoding="utf-8").splitlines()
            if re.search(r"\.cost_usd\(", line)
        )
        assert [site.split(":")[0] for site in sites] == [
            "llm/client.py",  # the gate for a backend that does not price
            "llm/cost.py",  # CostTracker.record, the entry made by hand
            "llm/simulated.py",  # where the simulated response is made
        ], sites


# ----------------------------------------------------------------------
# Scheduler tracing
# ----------------------------------------------------------------------


class TestSchedulerTracing:
    def test_request_spans_link_to_batch_and_parent_to_submitter(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=1)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)
        scheduler = RequestScheduler(
            client=llm, max_wait_ms=5.0, tracer=tracer, registry=registry
        )
        try:
            with tracer.span("query:s", kind="query") as query:
                futures = [
                    scheduler.submit(
                        f"prompt {i}", model="sim-small", priority=Priority.BULK
                    )
                    for i in range(4)
                ]
                for f in futures:
                    f.result()
        finally:
            scheduler.close()

        request_spans = [
            s
            for s in tracer.trace_spans(query.trace_id)
            if s.kind == "llm_request"
        ]
        assert len(request_spans) == 4
        batch_spans = [s for s in tracer.spans() if s.kind == "batch"]
        assert batch_spans, "dispatch must create batch spans"
        batch_ids = {b.span_id for b in batch_spans}
        for span in request_spans:
            # Parented to the submitting query, linked (not parented) to
            # the batch, costed in tokens and dollars.
            assert span.parent_id == query.span_id
            assert span.attributes["batch_span"] in batch_ids
            assert span.attributes["input_tokens"] > 0
            assert "cost_usd" in span.attributes
            assert span.finished
        for batch in batch_spans:
            assert batch.trace_id != query.trace_id  # own trace by design
            assert batch.parent_id is None

    def test_dedup_waiter_gets_zero_dollar_span(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=2)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)
        scheduler = RequestScheduler(
            client=llm, max_wait_ms=20.0, tracer=tracer, registry=registry
        )
        try:
            with tracer.span("query:d", kind="query") as query:
                a = scheduler.submit("same prompt", model="sim-small")
                b = scheduler.submit("same prompt", model="sim-small")
                assert a is b  # one upstream call
                a.result()
        finally:
            scheduler.close()
        spans = [
            s
            for s in tracer.trace_spans(query.trace_id)
            if s.kind == "llm_request"
        ]
        assert len(spans) == 2  # both waiters visible in the trace
        dedup_spans = [s for s in spans if s.attributes.get("dedup")]
        assert len(dedup_spans) == 1
        waiter = dedup_spans[0]
        assert waiter.attributes["dedup"] == "inflight"
        assert waiter.attributes["cost_usd"] == 0.0
        assert waiter.attributes["saved_usd"] > 0.0
        assert waiter.attributes["input_tokens"] > 0
        account = CostAccount.from_spans(tracer.trace_spans(query.trace_id))
        assert account.dedup_hits == 1
        assert account.llm_calls == 2

    def test_cancelled_requests_finish_spans_with_error(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        scheduler = RequestScheduler(
            client=None,
            max_wait_ms=10_000.0,
            max_batch_size=64,
            tracer=tracer,
            registry=registry,
        )
        # No client bound: queued work is failed on drainless close.
        future = scheduler.submit("never dispatched", model="sim-small")
        scheduler.close(drain=False)
        assert future.exception() is not None
        spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert spans and all(s.finished for s in spans)
        assert spans[0].status == "error"


# ----------------------------------------------------------------------
# Executor tracing
# ----------------------------------------------------------------------


class TestExecutorTracing:
    def test_parallel_tasks_parent_to_transform_span(self):
        tracer = Tracer()
        registry = MetricsRegistry()

        def fake_llm_call(x):
            span = tracer.start_span("llm:sim", kind="llm_request")
            span.set_attributes(input_tokens=1, output_tokens=1, cost_usd=0.001)
            tracer.finish(span)
            return x * 2

        plan = Plan.source(lambda: iter(range(12)), name="src").map(
            fake_llm_call, name="call_llm"
        )
        executor = Executor(parallelism=4, tracer=tracer, registry=registry)
        out = executor.take_all(plan)
        assert out == [x * 2 for x in range(12)]

        transform = next(
            s for s in tracer.spans() if s.name == "transform:call_llm"
        )
        llm_spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(llm_spans) == 12
        # Worker threads inherited the transform span through the copied
        # context — every request is its child, in the same trace.
        assert {s.parent_id for s in llm_spans} == {transform.span_id}
        assert transform.attributes["records_in"] == 12
        assert transform.attributes["records_out"] == 12

        cost = executor.last_stats.cost
        assert cost is not None
        assert cost.llm_calls == 12
        assert cost.cost_usd == pytest.approx(0.012)
        assert set(cost.operators) == {"transform:call_llm"}

    def test_serial_matches_parallel_attribution(self):
        def make(tracer):
            def fn(x):
                tracer.finish(
                    tracer.start_span(
                        "llm:s",
                        kind="llm_request",
                        input_tokens=2,
                        output_tokens=1,
                        cost_usd=0.001,
                    )
                )
                return x

            return fn

        accounts = []
        for parallelism in (1, 4):
            tracer = Tracer()
            registry = MetricsRegistry()
            plan = Plan.source(lambda: iter(range(8)), name="src").map(
                make(tracer), name="op"
            )
            executor = Executor(
                parallelism=parallelism, tracer=tracer, registry=registry
            )
            executor.take_all(plan)
            accounts.append(executor.last_stats.cost)
        serial, parallel = accounts
        serial_totals = serial.as_dict()["totals"]
        parallel_totals = parallel.as_dict()["totals"]
        # Wall clock legitimately differs; everything counted must not.
        serial_totals.pop("wall_clock_s")
        parallel_totals.pop("wall_clock_s")
        assert serial_totals == parallel_totals

    def test_untraced_executor_still_works(self):
        plan = Plan.source(lambda: iter(range(3)), name="src").map(
            lambda x: x + 1, name="inc"
        )
        executor = Executor(parallelism=2, registry=MetricsRegistry())
        assert executor.take_all(plan) == [1, 2, 3]
        assert executor.last_stats.cost is None


# ----------------------------------------------------------------------
# End to end: Luna query trace
# ----------------------------------------------------------------------


class TestEndToEndTrace:
    @pytest.fixture(scope="class")
    def traced_query(self):
        from repro.datagen import generate_ntsb_corpus
        from repro.luna.luna import Luna
        from repro.partitioner.partitioner import ArynPartitioner
        from repro.sycamore.context import SycamoreContext

        ctx = SycamoreContext(parallelism=3, seed=5, registry=MetricsRegistry())
        _, raws = generate_ntsb_corpus(6, seed=5)
        (
            ctx.read.raw(raws)
            .partition(ArynPartitioner(seed=5))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .write.index("ntsb")
        )
        luna = Luna(ctx, planner_model="sim-oracle")
        result = luna.query("How many incidents were there?", "ntsb")
        yield ctx, result
        ctx.close()

    def test_result_carries_trace_id_and_cost(self, traced_query):
        ctx, result = traced_query
        assert result.trace.trace_id
        assert isinstance(result.trace.cost, CostAccount)
        assert result.trace.cost.trace_id == result.trace.trace_id

    def test_every_request_span_is_costed_and_batch_linked(self, traced_query):
        """With one client per context, each request span is the client's
        own, costed and nested under the operator that issued it."""
        ctx, result = traced_query
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        assert spans[0].kind == "query"
        by_id = {s.span_id: s for s in spans}
        request_spans = [s for s in spans if s.kind == "llm_request"]
        assert request_spans, "a Luna query must issue LLM requests"
        for span in request_spans:
            assert "input_tokens" in span.attributes
            assert "cost_usd" in span.attributes
            ancestor = by_id.get(span.parent_id)
            while ancestor is not None and not ancestor.name.startswith("op["):
                ancestor = by_id.get(ancestor.parent_id)
            assert ancestor is not None, f"{span.name} sits under no operator"

    def test_tree_renders_whole_hierarchy(self, traced_query):
        ctx, result = traced_query
        tree = render_trace_tree(ctx.tracer.trace_spans(result.trace.trace_id))
        assert "query:luna" in tree
        assert "op[" in tree
        assert "llm:" in tree

    def test_json_export_totals_match_result(self, traced_query, tmp_path):
        ctx, result = traced_query
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        path = write_trace_json(tmp_path / "luna.json", spans, result.trace.cost)
        doc = json.loads(path.read_text())
        assert doc["cost"]["totals"] == result.trace.cost.as_dict()["totals"]
        assert doc["cost"]["totals"]["llm_calls"] == len(
            [s for s in doc["spans"] if s["kind"] == "llm_request"]
        )
