"""A long-lived context costs what its work costs, not what its age costs.

Counted, not timed: the ledger answers from running totals, the tracer
holds a recent window of whole traces, and a query is billed only the
LLM requests of its own span tree.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.docmodel import Document
from repro.embedding import HashingEmbedder
from repro.embedding.embedder import RECENT_EMBEDDINGS, RECENT_SLOTS
from repro.llm import CostTracker, ReliableLLM, SimulatedLLM, knowledge, prompts, tokens
from repro.llm.base import Usage, get_model_spec
from repro.llm.cost import RECENT_RECORDS, CostSummary
from repro.luna import Luna
from repro.luna.history import RECENT_RESULTS
from repro.observability import CostAccount, Tracer
from repro.sycamore import SycamoreContext

TEXTS = [
    "gusty crosswind during the landing",
    "engine failure after takeoff",
    "severe icing in cruise",
]
WIND = "How many incidents were caused by wind?"
ICING = "How many incidents were caused by icing?"


def fold(calls, tag=None, model=None):
    """Brute-force reference: scan every call, as the ledger used to."""
    total = CostSummary()
    for each_model, each_tag, tokens_in, tokens_out, cached in calls:
        if (tag is not None and each_tag != tag) or (model is not None and each_model != model):
            continue
        total.calls += 1
        total.cached_calls += cached
        total.input_tokens += tokens_in
        total.output_tokens += tokens_out
        if not cached:
            total.cost_usd += get_model_spec(each_model).cost_usd(tokens_in, tokens_out)
            total.latency_s += 0.25
    return total


def same(actual, expected):
    """Counts equal exactly; float sums up to the order they were added in."""
    counts = ("calls", "cached_calls", "input_tokens", "output_tokens")
    return all(getattr(actual, f) == getattr(expected, f) for f in counts) and all(
        getattr(actual, f) == pytest.approx(getattr(expected, f)) for f in ("cost_usd", "latency_s")
    )


call = st.tuples(
    st.sampled_from(["sim-small", "sim-large", "sim-oracle"]),
    st.sampled_from(["", "filter", "extract"]),
    st.integers(0, 5000),
    st.integers(0, 500),
    st.booleans(),
)


class TestLedger:
    def test_totals_do_not_touch_the_record_window(self, monkeypatch):
        tracker = CostTracker()
        calls = [("sim-small", f"op{i % 3}", 100 + i, 7, i % 50 == 0) for i in range(5000)]
        for model, tag, tokens_in, tokens_out, cached in calls:
            tracker.record(model, Usage(tokens_in, tokens_out, 1), 0.25, cached=cached, tag=tag)
        assert len(tracker.records()) == RECENT_RECORDS
        assert tracker.records()[-1].input_tokens == 100 + 4999

        def walked():
            raise AssertionError("a total walked the records")

        monkeypatch.setattr(tracker, "records", walked)
        monkeypatch.setattr(tracker, "_recent", None)
        assert same(tracker.summary(), fold(calls))
        assert tracker.summary().cost_usd == fold(calls).cost_usd
        assert same(tracker.summary(tag="op1"), fold(calls, tag="op1"))
        assert sorted(tracker.by_tag()) == ["op0", "op1", "op2"]
        assert list(tracker.by_model()) == ["sim-small"]

    @given(st.lists(st.one_of(call, st.just("reset")), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_totals_equal_a_fold_over_the_stream(self, stream):
        tracker = CostTracker()
        calls = []
        for step in stream:
            if step == "reset":
                tracker.reset()
                calls.clear()
                continue
            model, tag, tokens_in, tokens_out, cached = step
            tracker.record(model, Usage(tokens_in, tokens_out, 1), 0.25, cached=cached, tag=tag)
            calls.append(step)
        assert same(tracker.summary(), fold(calls))
        models = sorted({c[0] for c in calls})
        tags = sorted({c[1] for c in calls})
        assert list(tracker.by_model()) == models
        assert list(tracker.by_tag()) == tags
        for model in models:
            assert same(tracker.by_model()[model], fold(calls, model=model))
            for tag in tags:
                assert same(tracker.summary(tag=tag, model=model), fold(calls, tag, model))
        for tag in tags:
            assert same(tracker.by_tag()[tag], fold(calls, tag=tag))
        assert same(tracker.summary(tag="never"), CostSummary())


@pytest.fixture()
def two_indexes():
    """(context, backend): "small" holds 3 documents, "large" holds 9."""
    tracker = CostTracker()
    sim = SimulatedLLM(seed=0, tracker=tracker, real_latency_scale=0.002)
    tracer = Tracer(max_spans=400)
    with SycamoreContext(
        llm=ReliableLLM(sim, cache_enabled=False), parallelism=1, tracer=tracer
    ) as ctx:
        ctx.cost_tracker = tracker
        ctx.catalog.create("small").add_documents([Document.from_text(t) for t in TEXTS])
        ctx.catalog.create("large").add_documents([Document.from_text(t) for t in TEXTS * 3])
        yield ctx, sim


class TestTraceRetention:
    def test_six_hundred_queries_keep_a_recent_complete_window(self, two_indexes):
        ctx, sim = two_indexes
        sim.real_latency_scale = 0.0
        tracer = ctx.tracer
        luna = Luna(ctx)
        still_open = tracer.start_span("session", kind="serve", parent=None)
        early = tracer.finish(tracer.start_span("early child", parent=still_open))
        for i in range(600):
            result = luna.query(WIND if i % 2 else ICING, index="small")
            assert len(tracer.spans()) <= tracer.max_spans
        # Thousands of spans later the open trace is whole ...
        assert tracer.trace_spans(still_open.trace_id) == [still_open, early]
        assert tracer.dropped_spans == 0
        assert tracer._span_counter > 10 * tracer.max_spans
        # ... and so is the trace of the query that just finished.
        spans = tracer.trace_spans(result.trace.trace_id)
        assert tracer.last_trace(kind="query") == result.trace.trace_id
        assert [s.kind for s in spans].count("llm_request") == 3
        assert all(s.finished for s in spans)
        rolled = CostAccount.from_spans(spans)
        assert rolled.as_dict()["operators"] == result.trace.cost.as_dict()["operators"]
        assert rolled.llm_calls == result.trace.total_llm_calls() == 3


class TestQueryHistory:
    def test_thousands_of_results_keep_the_newest(self, two_indexes):
        ctx, sim = two_indexes
        sim.real_latency_scale = 0.0
        luna = Luna(ctx)
        history = luna.history
        result = luna.query(WIND, index="small")
        total = 10 * RECENT_RESULTS + 7
        for _ in range(total - 1):
            history.record(result)
            assert len(history) <= RECENT_RESULTS
        # Flat, and the sequence numbers never restarted.
        oldest = total - RECENT_RESULTS
        assert [e.sequence for e in history.entries()] == list(range(oldest, total))
        assert history.get(total - 1) is history.last()
        assert history.get(oldest).sequence == oldest
        with pytest.raises(IndexError, match=f"#0 was evicted; the oldest kept is #{oldest}"):
            history.get(0)
        with pytest.raises(IndexError, match="evicted"):
            history.replay(oldest - 1, luna)
        with pytest.raises(IndexError, match=f"no history entry #{total}"):
            history.get(total)
        # What is retained still replays, and follow-ups build on the last.
        assert history.replay(total - 1, luna).answer == result.answer
        assert history.last().sequence == total
        assert isinstance(luna.follow_up(WIND).answer, int)
        assert len(history) == RECENT_RESULTS


class TestCostAttribution:
    def test_concurrent_queries_do_not_bill_each_other(self, two_indexes):
        ctx, sim = two_indexes
        luna = Luna(ctx)
        jobs = [("small", WIND, 3), ("large", ICING, 9)]
        solo = {}
        for index, question, documents in jobs:
            before = sim.calls
            trace = luna.query(question, index=index).trace
            # One planner call, then one filter call per document.
            assert sim.calls - before == documents + 1
            assert trace.total_llm_calls() == documents
            solo[index] = trace.total_cost_usd()

        start = threading.Barrier(len(jobs))
        traces = {}

        def run(index, question):
            start.wait(timeout=10)
            traces[index] = [luna.query(question, index=index).trace for _ in range(3)]

        threads = [threading.Thread(target=run, args=job[:2]) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for index, _, documents in jobs:
            for trace in traces[index]:
                assert [e.llm_calls for e in trace.entries] == [0, documents, 0]
                assert trace.total_llm_calls() == trace.cost.llm_calls
                assert trace.total_cost_usd() == pytest.approx(solo[index])
                assert trace.total_cost_usd() == pytest.approx(trace.cost.cost_usd)


class TestEmbedderMemory:
    def test_ten_thousand_distinct_texts_keep_a_recent_window(self):
        embedder = HashingEmbedder(dimensions=32, seed=3)
        query = "which incidents involved a gusty crosswind"
        first = embedder.embed(query)
        assert not first.flags.writeable
        for i in range(10_000):
            embedder.embed(f"report {i} about topic t{i}")
            if i % 100 == 0:
                # Asked again and again, a query text stays, and is the same array.
                assert embedder.embed(query) is first
            assert embedder._recent.cache_info().currsize <= RECENT_EMBEDDINGS
        assert embedder._recent.cache_info().currsize == RECENT_EMBEDDINGS
        # Evicted and embedded again: bit-identical, as from a cold embedder.
        again = embedder.embed("report 0 about topic t0")
        cold = HashingEmbedder(dimensions=32, seed=3)
        assert np.array_equal(again, cold.embed("report 0 about topic t0"))
        assert np.array_equal(first, cold.embed(query))

    def test_fifty_thousand_distinct_tokens_keep_the_slot_memo_at_its_cap(self):
        embedder = HashingEmbedder(dimensions=32, seed=3)
        cold = HashingEmbedder(dimensions=32, seed=3)
        for start in range(0, 50_000, 500):
            embedder.embed(" ".join(f"tok{i}" for i in range(start, start + 500)))
            assert embedder._slot.cache_info().currsize <= RECENT_SLOTS
        assert embedder._slot.cache_info().currsize == RECENT_SLOTS
        # A token long evicted hashes to the slot it always had.
        assert embedder._slot("tok0") == cold._slot("tok0")
        assert np.array_equal(embedder.embed("tok0 tok1 tok0"), cold.embed("tok0 tok1 tok0"))

    def test_embedders_do_not_share_a_window(self):
        a, b = HashingEmbedder(dimensions=16, seed=0), HashingEmbedder(dimensions=16, seed=1)
        a.embed("wind")
        assert b._recent.cache_info().currsize == 0
        assert not np.array_equal(a.embed("wind"), b.embed("wind"))


class TestBackendMemos:
    """Per head, per body text, per condition, per name; each behind a
    module constant, none on a prompt or a (text, condition) pair."""

    def test_thousands_of_distinct_conditions_and_documents_stay_bounded(self):
        sim = SimulatedLLM(seed=0)
        memos = {
            prompts._recent_head: prompts.RECENT_HEADS,
            prompts._require_name: prompts.RECENT_NAMES,
            tokens._recent_word_count: tokens.RECENT_TEXTS,
            knowledge._condition_plan: knowledge.RECENT_CONDITIONS,
        }
        for memo in memos:
            memo.cache_clear()
        for i in range(1500):
            prompt = prompts.FILTER_DOCUMENT.render(
                condition=f"caused by wind near gate {i}", document=f"report {i}: gusty crosswind"
            )
            assert sim.complete(prompt, model="sim-oracle").text == "yes"
        assert sim.calls == 1500
        for memo, bound in memos.items():
            info = memo.cache_info()
            assert info.maxsize == bound and 0 < info.currsize <= bound, memo
        assert prompts._recent_head.cache_info().currsize == prompts.RECENT_HEADS
        assert tokens._recent_word_count.cache_info().currsize == tokens.RECENT_TEXTS
        assert knowledge._condition_plan.cache_info().currsize == knowledge.RECENT_CONDITIONS

    def test_no_response_is_reused_with_the_cache_off(self):
        sim = SimulatedLLM(seed=0)
        llm = ReliableLLM(sim, cache_enabled=False)
        try:
            prompt = prompts.FILTER_DOCUMENT.render(condition="caused by wind", document="gusty")
            for _ in range(5):
                assert llm.complete(prompt, model="sim-oracle").text == "yes"
            assert sim.calls == 5
            assert llm.metrics()["cache_hits"] == 0
        finally:
            llm.close()
