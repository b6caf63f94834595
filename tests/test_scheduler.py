"""Tests for repro.runtime: the shared LLM request scheduler.

Covers the edge cases the serving layer must get right: the zero-wait
batch window, dedup of a failing request (all waiters share the
exception), the priority starvation guard, the backpressure rejection
path, clean shutdown with queued requests, and composition with the
reliability layer under a fault-injected brownout — the queue must drain
without deadlock or lost futures.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.faults import BrownoutWindow, FaultInjector, FaultSchedule
from repro.llm import (
    CircuitBreaker,
    CircuitOpenError,
    LLMClient,
    LLMResponse,
    ReliableLLM,
    SimulatedLLM,
    TransientLLMError,
    Usage,
)
from repro.runtime import (
    Priority,
    RequestScheduler,
    ScheduledLLM,
    SchedulerClosedError,
    SchedulerSaturatedError,
)


class RecordingBackend(LLMClient):
    """Deterministic backend that records call order and can be gated.

    ``gate`` (when given) blocks every call until it is set — tests use
    it to pile requests into the queue while dispatch capacity is busy.
    ``fail_substring`` makes matching prompts raise TransientLLMError.
    """

    def __init__(self, gate: "threading.Event | None" = None, fail_substring=None):
        self.gate = gate
        self.fail_substring = fail_substring
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "backend gate never opened"
        with self._lock:
            self.calls.append(prompt)
        if self.fail_substring is not None and self.fail_substring in prompt:
            raise TransientLLMError(f"induced failure for {prompt!r}")
        return LLMResponse(text=f"echo:{prompt}", model=model, usage=Usage(1, 1, 1))


def make_scheduler(backend=None, **kwargs):
    kwargs.setdefault("max_wait_ms", 5.0)
    return RequestScheduler(client=backend or RecordingBackend(), **kwargs)


class TestBasics:
    def test_roundtrip(self):
        with make_scheduler() as sched:
            response = sched.complete("hello", model="sim-small", timeout=10)
            assert response.text == "echo:hello"
            m = sched.metrics()
            assert m["submitted"] == m["completed"] == 1

    def test_priority_accepts_strings(self):
        with make_scheduler() as sched:
            future = sched.submit("p", priority="interactive")
            assert future.result(timeout=10).text == "echo:p"
            with pytest.raises(ValueError):
                sched.submit("p", priority="urgent")

    def test_submit_after_close_raises(self):
        sched = make_scheduler()
        sched.close()
        with pytest.raises(SchedulerClosedError):
            sched.submit("late")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RequestScheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            RequestScheduler(max_wait_ms=-1)
        with pytest.raises(ValueError):
            RequestScheduler(max_queue_depth=0)


class TestBatching:
    def test_micro_batch_collects_compatible_requests(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        # One dispatch slot: the first request occupies it (blocked on the
        # gate) while the rest pile up and must form one batch.
        sched = RequestScheduler(
            client=ReliableLLM(backend, max_retries=0),
            max_batch_size=8,
            max_wait_ms=50.0,
            dispatch_parallelism=1,
        )
        try:
            futures = [sched.submit(f"p{i}") for i in range(5)]
            time.sleep(0.02)  # let the worker claim the first batch
            gate.set()
            for future in futures:
                assert future.result(timeout=10).text.startswith("echo:")
            histogram = sched.stats().batch_size_histogram
            assert max(histogram) > 1, f"no multi-request batch: {histogram}"
        finally:
            sched.close()

    def test_zero_wait_window_dispatches_immediately(self):
        with make_scheduler(max_wait_ms=0.0) as sched:
            futures = [sched.submit(f"p{i}") for i in range(6)]
            results = [f.result(timeout=10) for f in futures]
            assert [r.text for r in results] == [f"echo:p{i}" for i in range(6)]
            m = sched.metrics()
            assert m["completed"] == 6
            assert m["batches_dispatched"] >= 1

    def test_incompatible_models_never_share_a_batch(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend, max_batch_size=8, max_wait_ms=50.0, dispatch_parallelism=1
        )
        try:
            # Occupies the only dispatch slot; its model is distinct so the
            # a/b requests cannot join its batch window.
            hold = sched.submit("hold", model="sim-oracle")
            futures = [
                sched.submit(f"a{i}", model="sim-small") for i in range(2)
            ] + [sched.submit(f"b{i}", model="sim-large") for i in range(2)]
            time.sleep(0.02)
            gate.set()
            hold.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
            # 1 (hold) + one batch per model at minimum.
            assert sched.stats().batches_dispatched >= 3
        finally:
            sched.close()

    def test_nonzero_temperature_is_not_batched_or_deduped(self):
        with make_scheduler() as sched:
            f1 = sched.submit("same", temperature=0.5)
            f2 = sched.submit("same", temperature=0.5)
            assert f1 is not f2
            f1.result(timeout=10)
            f2.result(timeout=10)
            assert sched.metrics()["dedup_hits"] == 0


class TestDedup:
    def test_identical_inflight_requests_share_one_upstream_call(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(client=backend, dispatch_parallelism=1, max_wait_ms=0.0)
        try:
            hold = sched.submit("hold")
            futures = [sched.submit("dup") for _ in range(4)]
            assert len({id(f) for f in futures}) == 1  # the same future
            gate.set()
            hold.result(timeout=10)
            results = [f.result(timeout=10) for f in futures]
            assert all(r.text == "echo:dup" for r in results)
            assert backend.calls.count("dup") == 1
            m = sched.metrics()
            assert m["dedup_hits"] == 3
            assert m["admitted"] == 2  # hold + one dup
        finally:
            sched.close()

    def test_failed_dedup_request_shares_the_exception(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate, fail_substring="boom")
        sched = RequestScheduler(client=backend, dispatch_parallelism=1, max_wait_ms=0.0)
        try:
            hold = sched.submit("hold")
            futures = [sched.submit("boom") for _ in range(3)]
            gate.set()
            hold.result(timeout=10)
            errors = []
            for future in futures:
                with pytest.raises(TransientLLMError) as excinfo:
                    future.result(timeout=10)
                errors.append(excinfo.value)
            # One upstream call, one exception instance, seen by all waiters.
            assert backend.calls.count("boom") == 1
            assert len({id(e) for e in errors}) == 1
            assert sched.metrics()["failed"] == 1
        finally:
            sched.close()

    def test_dedup_key_is_cleared_after_resolution(self):
        backend = RecordingBackend()
        with make_scheduler(backend) as sched:
            sched.complete("p", timeout=10)
            sched.complete("p", timeout=10)
            # Sequential identical requests are separate upstream calls
            # (in-flight dedup, not a cache — that layer is ReliableLLM's).
            assert backend.calls.count("p") == 2


class TestPriorities:
    def test_interactive_dispatches_before_bulk(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend, dispatch_parallelism=1, max_batch_size=1, max_wait_ms=0.0
        )
        try:
            hold = sched.submit("hold")
            bulk = [sched.submit(f"bulk{i}", priority=Priority.BULK) for i in range(3)]
            inter = [
                sched.submit(f"inter{i}", priority=Priority.INTERACTIVE)
                for i in range(3)
            ]
            time.sleep(0.02)
            gate.set()
            for future in [hold, *bulk, *inter]:
                future.result(timeout=10)
            order = backend.calls
            assert max(
                order.index(f"inter{i}") for i in range(3)
            ) < min(order.index(f"bulk{i}") for i in range(3))
        finally:
            sched.close()

    def test_starvation_guard_promotes_bulk(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend,
            dispatch_parallelism=1,
            max_batch_size=1,
            max_wait_ms=0.0,
            starvation_limit=2,
        )
        try:
            hold = sched.submit("hold")
            inter = [
                sched.submit(f"inter{i}", priority=Priority.INTERACTIVE)
                for i in range(6)
            ]
            bulk = sched.submit("bulk", priority=Priority.BULK)
            time.sleep(0.02)
            gate.set()
            for future in [hold, *inter, bulk]:
                future.result(timeout=10)
            order = backend.calls
            # BULK must not wait behind all six INTERACTIVE requests.
            assert order.index("bulk") < order.index("inter5")
            assert sched.metrics()["starvation_promotions"] >= 1
        finally:
            sched.close()


class TestBackpressure:
    def test_full_queue_rejects_submission(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend,
            dispatch_parallelism=1,
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue_depth=2,
            dedup=False,
        )
        try:
            futures = [sched.submit("hold")]
            time.sleep(0.02)  # first request leaves the queue for dispatch
            futures += [sched.submit(f"q{i}") for i in range(2)]
            with pytest.raises(SchedulerSaturatedError):
                sched.submit("overflow")
            assert sched.metrics()["rejected"] == 1
            gate.set()
            for future in futures:
                future.result(timeout=10)  # admitted work still completes
        finally:
            sched.close()

    def test_priority_queues_are_bounded_independently(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend,
            dispatch_parallelism=1,
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue_depth=1,
            dedup=False,
        )
        try:
            held = [sched.submit("hold")]
            time.sleep(0.02)
            held.append(sched.submit("bulk-queued", priority=Priority.BULK))
            with pytest.raises(SchedulerSaturatedError):
                sched.submit("bulk-overflow", priority=Priority.BULK)
            # The INTERACTIVE queue still has room.
            held.append(sched.submit("inter", priority=Priority.INTERACTIVE))
            gate.set()
            for future in held:
                future.result(timeout=10)
        finally:
            sched.close()


class TestShutdown:
    def test_drain_completes_queued_requests(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend, dispatch_parallelism=1, max_batch_size=1, max_wait_ms=0.0
        )
        futures = [sched.submit(f"p{i}") for i in range(4)]
        time.sleep(0.02)
        gate.set()
        sched.close(drain=True)
        assert [f.result(timeout=0).text for f in futures] == [
            f"echo:p{i}" for i in range(4)
        ]

    def test_no_drain_fails_queued_futures_without_losing_any(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        sched = RequestScheduler(
            client=backend, dispatch_parallelism=1, max_batch_size=1, max_wait_ms=0.0
        )
        futures = [sched.submit(f"p{i}") for i in range(5)]
        time.sleep(0.02)  # first request is in flight, rest queued
        closer = threading.Thread(target=sched.close, kwargs={"drain": False})
        closer.start()
        time.sleep(0.02)
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        outcomes = []
        for future in futures:
            assert future.done(), "a future was lost in shutdown"
            try:
                outcomes.append(future.result(timeout=0).text)
            except SchedulerClosedError:
                outcomes.append("cancelled")
        assert len(outcomes) == 5
        assert sched.metrics()["cancelled"] == outcomes.count("cancelled") >= 1

    def test_close_is_idempotent(self):
        sched = make_scheduler()
        sched.close()
        sched.close()


class TestChaosComposition:
    """The scheduler over ReliableLLM over a fault-injected backend."""

    def test_brownout_drains_queue_without_deadlock_or_lost_futures(self):
        schedule = FaultSchedule(
            seed=7,
            transient_rate=0.1,
            brownouts=(BrownoutWindow(5, 25),),
        )
        injector = FaultInjector(schedule)
        reliable = ReliableLLM(
            injector.wrap_llm(SimulatedLLM(seed=3)),
            max_retries=2,
            backoff_base_s=0.0,
            circuit_breaker=CircuitBreaker(failure_threshold=3, recovery_time_s=0.01),
        )
        sched = RequestScheduler(
            client=reliable, max_batch_size=4, max_wait_ms=1.0, dispatch_parallelism=2
        )
        try:
            prompt = "<<TASK:filter>>\n<<SECTION:condition>>\nwindy\n<<SECTION:document>>\ndoc {i}"
            futures = [sched.submit(prompt.format(i=i)) for i in range(30)]
            resolved = failed = 0
            for future in futures:
                try:
                    future.result(timeout=30)
                    resolved += 1
                except Exception:
                    failed += 1
            assert resolved + failed == 30, "lost futures"
            m = sched.metrics()
            assert m["completed"] + m["failed"] == 30
            assert m["queue_depth_interactive"] == m["queue_depth_bulk"] == 0
            # The scheduler survives the storm and keeps serving once the
            # circuit breaker's recovery window lets a probe through.
            deadline = time.monotonic() + 10
            while True:
                try:
                    assert sched.complete("after the storm", timeout=30).text
                    break
                except CircuitOpenError:
                    assert time.monotonic() < deadline, "breaker never recovered"
                    time.sleep(0.02)
        finally:
            sched.close()


class TestScheduledLLM:
    def test_complete_json_retries_malformed_output(self):
        class FlakyJSON(LLMClient):
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
                self.calls += 1
                text = '{"a": 1' if self.calls == 1 else '{"a": 1}'
                return LLMResponse(text=text, model=model)

        backend = FlakyJSON()
        with make_scheduler(backend) as sched:
            client = ScheduledLLM(sched, Priority.INTERACTIVE)
            # repair_json fixes the truncated first answer in place, so a
            # single call suffices; force a parse by asking for the value.
            assert client.complete_json("p") == {"a": 1}

    def test_complete_many_preserves_order_and_isolates_failures(self):
        backend = RecordingBackend(fail_substring="bad")
        with make_scheduler(backend) as sched:
            client = ScheduledLLM(sched)
            results = client.complete_many(
                ["a", "bad", "c"], return_exceptions=True
            )
            assert results[0].text == "echo:a"
            assert isinstance(results[1], TransientLLMError)
            assert results[2].text == "echo:c"
            with pytest.raises(TransientLLMError):
                client.complete_many(["bad"])


class TestContextIntegration:
    def test_pipeline_through_scheduler_matches_direct(self, ntsb_corpus):
        from repro.partitioner import ArynPartitioner
        from repro.sycamore import SycamoreContext

        _, raws = ntsb_corpus
        schema = {"state": "string", "weather_related": "bool"}

        def build(scheduler):
            ctx = SycamoreContext(parallelism=4, seed=0, scheduler=scheduler)
            (
                ctx.read.raw(raws[:8])
                .partition(ArynPartitioner(seed=0))
                .extract_properties(schema, model="sim-oracle")
                .write.index("ntsb")
            )
            return [
                (d.doc_id, d.properties.get("state"), d.properties.get("weather_related"))
                for d in ctx.catalog.get("ntsb").all_documents()
            ]

        direct = build(None)
        # Batching alone (dedup off) and the full scheduler both leave
        # the answers exactly as a direct, one-call-per-prompt run.
        for dedup in (True, False):
            sched = RequestScheduler(max_batch_size=4, max_wait_ms=2.0, dedup=dedup)
            try:
                scheduled = build(sched)
                assert sorted(scheduled) == sorted(direct)
                m = sched.metrics()
                assert m["completed"] >= 8
                assert m["queue_depth_bulk"] == 0
            finally:
                sched.close()

    def test_executor_stats_carry_scheduler_delta(self, ntsb_corpus):
        from repro.partitioner import ArynPartitioner
        from repro.sycamore import SycamoreContext

        _, raws = ntsb_corpus
        sched = RequestScheduler(max_batch_size=4, max_wait_ms=1.0)
        try:
            ctx = SycamoreContext(parallelism=2, seed=0, scheduler=sched)
            (
                ctx.read.raw(raws[:4])
                .partition(ArynPartitioner(seed=0))
                .extract_properties({"state": "string"}, model="sim-oracle")
                .write.index("ntsb")
            )
            assert ctx.last_stats is not None
            assert sched.stats().completed >= 4
        finally:
            sched.close()

    def test_luna_query_uses_interactive_priority(self, ntsb_corpus):
        from repro import Luna
        from repro.partitioner import ArynPartitioner
        from repro.sycamore import SycamoreContext

        _, raws = ntsb_corpus
        sched = RequestScheduler(max_batch_size=4, max_wait_ms=1.0)
        try:
            ctx = SycamoreContext(parallelism=2, seed=0, scheduler=sched)
            (
                ctx.read.raw(raws[:6])
                .partition(ArynPartitioner(seed=0))
                .extract_properties(
                    {"state": "string", "weather_related": "bool"},
                    model="sim-oracle",
                )
                .write.index("ntsb")
            )
            result = Luna(ctx).query(
                "How many incidents were caused by wind?", index="ntsb"
            )
            assert result.answer is not None
            assert sched.metrics()["completed"] > 6  # ETL + query traffic
        finally:
            sched.close()


class TestCompleteManyFix:
    def test_shared_pool_is_reused_across_calls(self):
        llm = ReliableLLM(SimulatedLLM(seed=0), cache_enabled=False)
        prompts = [f"<<TASK:echo>>\n<<SECTION:text>>\np{i}" for i in range(4)]
        llm.complete_many(prompts, parallelism=4)
        pool_first = llm._pool
        llm.complete_many(prompts, parallelism=4)
        assert llm._pool is pool_first is not None
        llm.close()
        assert llm._pool is None

    def test_intra_batch_duplicates_collapse_preserving_order(self):
        backend = RecordingBackend()
        llm = ReliableLLM(backend, cache_enabled=False)
        results = llm.complete_many(["a", "b", "a", "a", "b"], parallelism=4)
        assert [r.text for r in results] == [
            "echo:a", "echo:b", "echo:a", "echo:a", "echo:b"
        ]
        assert sorted(backend.calls) == ["a", "b"]
        llm.close()

    def test_return_exceptions_isolates_failures(self):
        backend = RecordingBackend(fail_substring="bad")
        llm = ReliableLLM(backend, max_retries=0, cache_enabled=False)
        results = llm.complete_many(
            ["ok", "bad", "ok2"], parallelism=2, return_exceptions=True
        )
        assert results[0].text == "echo:ok"
        assert isinstance(results[1], TransientLLMError)
        assert results[2].text == "echo:ok2"
        llm.close()

    def test_sequential_path_still_raises(self):
        backend = RecordingBackend(fail_substring="bad")
        llm = ReliableLLM(backend, max_retries=0, cache_enabled=False)
        with pytest.raises(TransientLLMError):
            llm.complete_many(["bad"], parallelism=1)


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
        from repro.docmodel import Document
        from repro.llm.prompts import FILTER_DOCUMENT, render_task_prompt
        from repro.sycamore import SycamoreContext
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
        from repro.partitioner import ArynPartitioner
        from repro.sycamore.llm_transforms import make_summarize_fn

        _, raws = ntsb_corpus
        doc = ArynPartitioner(seed=0).partition(raws[0])
        summarize = make_summarize_fn(context, model="sim-oracle")
        assert summarize(doc).properties["summary"]


class TestCLI:
    def test_runtime_stats_command(self, capsys):
        from repro.cli import main

        assert main(["runtime-stats", "--docs", "6", "--parallelism", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch-size histogram" in out
        assert "dedup hits" in out

    def test_chaos_command_reports_scheduler_stats(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "chaos",
                    "--docs",
                    "6",
                    "--parallelism",
                    "2",
                    "--fault-seed",
                    "42",
                    "--transient-rate",
                    "0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scheduler:" in out
        assert "dead-lettered" in out
