"""Chaos suite: seeded fault injection against the resilience machinery.

Everything here is deterministic — fault schedules are pure functions of
(seed, call index) — so any failure can be replayed exactly.
"""

from __future__ import annotations

import threading

import pytest

from repro.datagen import generate_ntsb_corpus
from repro.execution import DeadLetter, Executor, Plan, TaskError
from repro.faults import (
    BrownoutWindow,
    FaultDecision,
    FaultInjector,
    FaultSchedule,
    FaultyLLM,
)
from repro.llm import (
    CircuitBreaker,
    CircuitOpenError,
    LLMResponse,
    LLMTimeoutError,
    RateLimitError,
    ReliableLLM,
    SimulatedLLM,
    TransientLLMError,
    Usage,
)
from repro.llm.base import LLMClient
from repro.partitioner import ArynPartitioner
from repro.luna import Luna
from repro.sycamore import SycamoreContext


class EchoBackend(LLMClient):
    """Always succeeds; counts calls."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        self.calls += 1
        return LLMResponse(text=f"echo:{prompt}", model=model, usage=Usage(1, 1, 1))


class FailingBackend(LLMClient):
    """Always raises a transient error; counts calls."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        self.calls += 1
        raise TransientLLMError("down")


# ----------------------------------------------------------------------
# FaultSchedule: determinism and shape
# ----------------------------------------------------------------------


class TestFaultSchedule:
    def test_same_seed_identical_sequence(self):
        kwargs = dict(
            transient_rate=0.2,
            rate_limit_rate=0.1,
            latency_rate=0.1,
            malformed_rate=0.1,
            timeout_rate=0.05,
        )
        a = FaultSchedule(seed=42, **kwargs)
        b = FaultSchedule(seed=42, **kwargs)
        assert a.decisions(500) == b.decisions(500)

    def test_different_seeds_differ(self):
        a = FaultSchedule(seed=1, transient_rate=0.3)
        b = FaultSchedule(seed=2, transient_rate=0.3)
        assert a.decisions(200) != b.decisions(200)

    def test_zero_rates_are_clean(self):
        schedule = FaultSchedule(seed=0)
        assert all(not d.is_fault for d in schedule.decisions(100))

    def test_brownout_window_overrides_everything(self):
        schedule = FaultSchedule(seed=0, brownouts=(BrownoutWindow(5, 10),))
        decisions = schedule.decisions(15)
        for d in decisions[5:10]:
            assert d.kind == "brownout"
        for d in decisions[:5] + decisions[10:]:
            assert not d.is_fault

    def test_plain_tuple_windows_accepted(self):
        schedule = FaultSchedule(seed=0, brownouts=((2, 4),))
        assert schedule.decision(3).kind == "brownout"

    def test_rates_roughly_honoured(self):
        schedule = FaultSchedule(seed=9, transient_rate=0.5)
        faults = sum(1 for d in schedule.decisions(1000) if d.is_fault)
        assert 400 < faults < 600

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(transient_rate=1.5)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            BrownoutWindow(5, 2)


# ----------------------------------------------------------------------
# FaultInjector / FaultyLLM
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_injector_log_reproducible_across_runs(self):
        logs = []
        for _ in range(2):
            injector = FaultInjector(
                FaultSchedule(seed=7, transient_rate=0.3, malformed_rate=0.2)
            )
            flaky = injector.wrap_llm(EchoBackend())
            for i in range(50):
                try:
                    flaky.complete(f"p{i}")
                except TransientLLMError:
                    pass
            logs.append(list(injector.log))
        assert logs[0] == logs[1]
        assert logs[0]  # something was actually injected

    def test_transient_fault_raised_before_backend(self):
        backend = EchoBackend()
        injector = FaultInjector(FaultSchedule(seed=0, brownouts=((0, 1),)))
        flaky = injector.wrap_llm(backend)
        with pytest.raises(TransientLLMError):
            flaky.complete("p")
        assert backend.calls == 0
        assert injector.injected == {"brownout": 1}

    def test_rate_limit_fault_carries_retry_after(self):
        injector = FaultInjector(FaultSchedule(seed=0, rate_limit_rate=1.0))
        flaky = injector.wrap_llm(EchoBackend())
        with pytest.raises(RateLimitError) as excinfo:
            flaky.complete("p")
        assert excinfo.value.retry_after_s == pytest.approx(0.01)

    def test_timeout_fault_is_transient(self):
        injector = FaultInjector(FaultSchedule(seed=0, timeout_rate=1.0))
        flaky = injector.wrap_llm(EchoBackend())
        with pytest.raises(LLMTimeoutError):
            flaky.complete("p")

    def test_malformed_fault_corrupts_output(self):
        injector = FaultInjector(FaultSchedule(seed=0, malformed_rate=1.0))
        flaky = injector.wrap_llm(EchoBackend())
        response = flaky.complete("a-rather-long-prompt-for-cutting")
        assert response.text != "echo:a-rather-long-prompt-for-cutting"
        assert response.text.startswith("echo:")

    def test_latency_fault_sleeps_and_succeeds(self):
        sleeps = []
        injector = FaultInjector(
            FaultSchedule(seed=0, latency_rate=1.0, latency_spike_s=0.5),
            sleeper=sleeps.append,
        )
        flaky = injector.wrap_llm(EchoBackend())
        response = flaky.complete("p")
        assert response.text == "echo:p"
        assert sleeps == [0.5]
        assert response.latency_s >= 0.5

    def test_reliable_llm_heals_scattered_faults(self):
        injector = FaultInjector(FaultSchedule(seed=3, transient_rate=0.3))
        llm = ReliableLLM(injector.wrap_llm(EchoBackend()), sleeper=lambda s: None)
        for i in range(30):
            assert llm.complete(f"p{i}").text == f"echo:p{i}"
        assert injector.injected.get("transient", 0) > 0

    def test_report_mentions_counts(self):
        injector = FaultInjector(FaultSchedule(seed=0, brownouts=((0, 3),)))
        flaky = injector.wrap_llm(EchoBackend())
        for _ in range(3):
            with pytest.raises(TransientLLMError):
                flaky.complete("p")
        assert flaky.complete("p").text == "echo:p"
        assert "brownout=3" in injector.report()
        assert "over 4 calls" in injector.report()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_half_open(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=3, recovery_time_s=10.0, clock=lambda: clock["t"]
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 1
        # Open: rejects fast.
        assert not breaker.allow()
        assert breaker.rejections == 1
        # After the recovery window: half-open, exactly one probe.
        clock["t"] = 10.0
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # second concurrent probe rejected
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=5.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock["t"] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow()

    def test_reliable_llm_fails_fast_when_open(self):
        backend = FailingBackend()
        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=1000.0)
        llm = ReliableLLM(
            backend, max_retries=1, circuit_breaker=breaker, sleeper=lambda s: None
        )
        # First request: 2 attempts, both fail, breaker trips mid-flight.
        with pytest.raises((TransientLLMError, CircuitOpenError)):
            llm.complete("a")
        calls_after_first = backend.calls
        assert breaker.state == CircuitBreaker.OPEN
        # Subsequent requests are rejected without touching the backend.
        with pytest.raises(CircuitOpenError):
            llm.complete("b")
        assert backend.calls == calls_after_first
        assert breaker.rejections >= 1

    def test_reliable_llm_recovers_through_probe(self):
        clock = {"t": 0.0}
        backend = EchoBackend()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=5.0, clock=lambda: clock["t"]
        )
        llm = ReliableLLM(backend, circuit_breaker=breaker, sleeper=lambda s: None)
        breaker.record_failure()  # trip it externally
        with pytest.raises(CircuitOpenError):
            llm.complete("a")
        clock["t"] = 5.0
        assert llm.complete("b").text == "echo:b"
        assert breaker.state == CircuitBreaker.CLOSED


# ----------------------------------------------------------------------
# ReliableLLM hardening: timeout, LRU cache
# ----------------------------------------------------------------------


class TestRequestTimeout:
    def test_slow_call_times_out_and_is_retried(self):
        clock = {"t": 0.0}

        class SlowThenFast(LLMClient):
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
                self.calls += 1
                clock["t"] += 10.0 if self.calls == 1 else 0.01
                return LLMResponse(text="ok", model=model, usage=Usage(1, 1, 1))

        backend = SlowThenFast()
        llm = ReliableLLM(
            backend,
            max_retries=2,
            request_timeout_s=1.0,
            clock=lambda: clock["t"],
            sleeper=lambda s: None,
        )
        assert llm.complete("p").text == "ok"
        assert backend.calls == 2
        assert llm.metrics()["timeouts"] == 1


class TestLruCache:
    def test_eviction_at_capacity(self):
        backend = EchoBackend()
        llm = ReliableLLM(backend, cache_max_entries=2)
        llm.complete("a")
        llm.complete("b")
        llm.complete("c")  # evicts "a"
        assert llm.cache_size() == 2
        assert llm.metrics()["cache_evictions"] == 1
        llm.complete("a")  # miss: re-queries the backend
        assert backend.calls == 4

    def test_lru_recency_updated_on_hit(self):
        backend = EchoBackend()
        llm = ReliableLLM(backend, cache_max_entries=2)
        llm.complete("a")
        llm.complete("b")
        llm.complete("a")  # refresh "a"
        llm.complete("c")  # evicts "b", not "a"
        assert llm.complete("a").cached
        assert backend.calls == 3

    def test_hit_miss_counters(self):
        llm = ReliableLLM(EchoBackend())
        llm.complete("a")
        llm.complete("a")
        llm.complete("b")
        metrics = llm.metrics()
        assert metrics["cache_hits"] == 1
        assert metrics["cache_misses"] == 2


# ----------------------------------------------------------------------
# Executor error policies
# ----------------------------------------------------------------------


def _sometimes_boom(bad):
    def fn(x):
        if x in bad:
            raise ValueError(f"bad record {x}")
        return x * 10

    return fn


class TestExecutorPolicies:
    def test_skip_drops_failing_records(self):
        executor = Executor(on_error="skip")
        plan = Plan.from_items(range(6)).map(_sometimes_boom({2, 4}), name="m")
        assert executor.take_all(plan) == [0, 10, 30, 50]
        stats = executor.last_stats
        assert stats.node("m").skipped == 2
        assert stats.total_skipped() == 2
        assert stats.dead_letters == []

    def test_dead_letter_captures_record_node_cause(self):
        executor = Executor(on_error="dead_letter")
        plan = Plan.from_items(range(4)).map(_sometimes_boom({1}), name="m")
        assert executor.take_all(plan) == [0, 20, 30]
        letters = executor.last_stats.dead_letters
        assert len(letters) == 1
        assert isinstance(letters[0], DeadLetter)
        assert letters[0].node_name == "m"
        assert letters[0].record == 1
        assert isinstance(letters[0].cause, ValueError)
        assert executor.last_stats.node("m").dead_lettered == 1

    def test_fail_policy_aborts_without_retrying(self):
        attempts = []

        def boom(x):
            attempts.append(x)
            raise ValueError("nope")

        executor = Executor(on_error="fail")
        with pytest.raises(TaskError):
            executor.take_all(Plan.from_items([1]).map(boom, name="m"))
        assert len(attempts) == 1  # a task runs once

    def test_per_node_policy_overrides_executor_default(self):
        executor = Executor(on_error="fail")
        plan = (
            Plan.from_items(range(4))
            .map(_sometimes_boom({0}), name="tolerant", on_error="skip")
            .map(lambda x: x + 1, name="strict")
        )
        assert executor.take_all(plan) == [11, 21, 31]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Executor(on_error="explode")

    def test_unknown_node_policy_rejected_when_the_node_is_built(self):
        # "retry" was a policy once; a task now runs once, so it is unknown.
        with pytest.raises(ValueError, match="retry"):
            Plan.from_items([1]).map(lambda x: x, on_error="retry")

    def test_parallel_dead_letter_preserves_order(self):
        executor = Executor(parallelism=4, on_error="dead_letter")
        plan = Plan.from_items(range(20)).map(_sometimes_boom({3, 11, 17}), name="m")
        assert executor.take_all(plan) == [
            x * 10 for x in range(20) if x not in {3, 11, 17}
        ]
        assert executor.last_stats.node("m").dead_lettered == 3

    def test_parallel_abort_raises_promptly(self):
        executor = Executor(parallelism=4, on_error="fail")
        with pytest.raises(TaskError):
            executor.take_all(
                Plan.from_items(range(100)).map(_sometimes_boom({5}), name="m")
            )


# ----------------------------------------------------------------------
# Chaos: seeded faults against full pipelines
# ----------------------------------------------------------------------


def _chaos_context(n_docs: int = 8):
    """A context whose reliability layer never sleeps, over a real corpus."""
    backend = SimulatedLLM(seed=0)
    llm = ReliableLLM(backend, max_retries=1, sleeper=lambda s: None)
    # One task run per record, two backend calls inside ReliableLLM.
    ctx = SycamoreContext(llm=llm, parallelism=1, seed=0)
    backend.tracker = ctx.cost_tracker
    _, raws = generate_ntsb_corpus(n_docs, seed=5)
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties({"state": "string", "weather_related": "bool"}, model="sim-oracle")
        .write.index("ntsb")
    )
    return ctx, llm, backend


class TestPipelineChaos:
    def test_etl_survives_brownout_with_dead_letters(self):
        ctx, llm, backend = _chaos_context(n_docs=6)
        injector = FaultInjector(FaultSchedule(seed=11, brownouts=((0, 8),)))
        llm.backend = injector.wrap_llm(backend)
        docs = ctx.catalog.get("ntsb").all_documents()
        out = (
            ctx.read.documents(docs)
            .summarize(on_error="dead_letter", model="sim-small")
            .take_all()
        )
        stats = ctx.last_stats
        # max_retries=1 → 2 attempts per record; the first 4 records burn
        # the 8-call brownout window and die, the rest summarize fine.
        assert stats.total_dead_lettered() == 4
        assert len(out) == 2
        assert all(letter.node_name == "summarize" for letter in stats.dead_letters)
        assert injector.injected["brownout"] == 8

    def test_skip_policy_reports_in_stats(self):
        ctx, llm, backend = _chaos_context(n_docs=6)
        injector = FaultInjector(FaultSchedule(seed=11, brownouts=((0, 4),)))
        llm.backend = injector.wrap_llm(backend)
        docs = ctx.catalog.get("ntsb").all_documents()
        out = (
            ctx.read.documents(docs)
            .summarize(on_error="skip", model="sim-small")
            .take_all()
        )
        assert ctx.last_stats.total_skipped() == 2
        assert len(out) == 4

    def test_chaos_run_is_reproducible(self):
        outputs = []
        for _ in range(2):
            ctx, llm, backend = _chaos_context(n_docs=6)
            injector = FaultInjector(
                FaultSchedule(seed=23, transient_rate=0.4)
            )
            llm.backend = injector.wrap_llm(backend)
            docs = ctx.catalog.get("ntsb").all_documents()
            out = (
                ctx.read.documents(docs)
                .summarize(on_error="dead_letter", model="sim-small")
                .take_all()
            )
            outputs.append(
                (
                    [d.doc_id for d in out],
                    [letter.record.doc_id for letter in ctx.last_stats.dead_letters],
                    list(injector.log),
                )
            )
        assert outputs[0] == outputs[1]


class TestLunaChaos:
    def test_luna_query_survives_midquery_brownout(self):
        ctx, llm, backend = _chaos_context(n_docs=8)
        luna = Luna(ctx, planner_model="sim-oracle", error_policy="dead_letter")
        # Plan against a healthy backend, then the brownout hits before
        # execution — the paper's "long-running query meets a flaky
        # hosted backend" scenario.
        session = luna.session(
            "How many incidents were caused by wind?", index="ntsb"
        )
        injector = FaultInjector(FaultSchedule(seed=17, brownouts=((0, 8),)))
        llm.backend = injector.wrap_llm(backend)
        result = session.run()  # must not raise
        assert result.partial
        assert result.trace.total_dead_lettered() > 0
        assert isinstance(result.answer, (int, float))
        assert "partial" in result.explain().lower()
        assert any(e.dead_lettered for e in result.trace.entries)

    def test_luna_total_outage_degrades_not_raises(self):
        ctx, llm, backend = _chaos_context(n_docs=6)
        luna = Luna(ctx, planner_model="sim-oracle", error_policy="dead_letter")
        session = luna.session(
            "How many incidents were caused by wind?", index="ntsb"
        )
        injector = FaultInjector(FaultSchedule(seed=3, brownouts=((0, 10_000),)))
        llm.backend = injector.wrap_llm(backend)
        result = session.run()  # every LLM call fails; still no exception
        assert result.partial
        assert result.trace.total_dead_lettered() > 0

    def test_fail_policy_still_raises(self):
        ctx, llm, backend = _chaos_context(n_docs=6)
        luna = Luna(ctx, planner_model="sim-oracle", error_policy="fail")
        session = luna.session(
            "How many incidents were caused by wind?", index="ntsb"
        )
        injector = FaultInjector(FaultSchedule(seed=3, brownouts=((0, 10_000),)))
        llm.backend = injector.wrap_llm(backend)
        with pytest.raises(Exception):
            session.run()

    def test_clean_run_is_not_partial(self):
        ctx, llm, backend = _chaos_context(n_docs=6)
        luna = Luna(ctx, planner_model="sim-oracle", error_policy="dead_letter")
        result = luna.query("How many incidents were caused by wind?", index="ntsb")
        assert not result.partial
        assert result.trace.total_dead_lettered() == 0
        assert "partial" not in result.explain().lower()


class TestChaosCommand:
    def test_chaos_command_reports_dead_letters(self, capsys):
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
        assert "dead-lettered" in out
        assert "partial:" in out
        assert "scheduler:" not in out
