"""Tests for repro.lifecycle: deadlines, cancellation, crash recovery.

The invariants this PR documents:

* a query admitted with ``deadline_s`` never blocks past its budget:
  every queue wait, retry sleep and batch window derives its timeout
  from the *remaining* budget, and expiry surfaces as a typed
  :class:`DeadlineExceeded` (pre-start) or a typed-partial result
  (mid-execution, under a non-fatal error policy);
* cancellation is cooperative and always frees resources: a queued
  ticket's admission slot is released immediately, a running query
  observes its scope at the next operator/record/queue checkpoint, and
  single-flight followers of a cancelled leader re-elect instead of
  inheriting a cancellation that is not theirs;
* the write-ahead journal makes a resumed query byte-identical to an
  uninterrupted run while re-executing only the nodes past the last
  durable checkpoint.
"""

import json
import threading
import time

import pytest

from repro.lifecycle import (
    CancelScope,
    Deadline,
    DeadlineExceeded,
    JournalError,
    QueryCancelled,
    QueryJournal,
    attach_scope,
    check_scope,
    current_scope,
    decode_value,
    encode_value,
    wait_future,
)
from repro.docmodel.document import Document
from repro.llm import ReliableLLM, SimulatedLLM
from repro.llm.errors import LLMTimeoutError, TransientLLMError
from repro.luna import Luna
from repro.luna.planner import LunaPlanner
from repro.observability import MetricsRegistry
from repro.runtime import Priority, RequestScheduler
from repro.serving import Overloaded, QueryService, ServiceConfig
from tests.test_llm_client import FlakyBackend
from tests.test_serving import build_served_context


class SimulatedCrash(BaseException):
    """Stands in for a hard process kill inside one test process."""


# ----------------------------------------------------------------------
# Deadline / CancelScope units
# ----------------------------------------------------------------------


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = [0.0]
        deadline = Deadline(10.0, clock=lambda: clock[0])
        assert deadline.remaining() == 10.0
        clock[0] = 4.0
        assert deadline.remaining() == 6.0
        assert not deadline.expired
        clock[0] = 11.0
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_typed_with_budget_math(self):
        clock = [0.0]
        deadline = Deadline(2.0, clock=lambda: clock[0])
        deadline.check()  # inside budget: no raise
        clock[0] = 3.5
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check()
        assert excinfo.value.budget_s == 2.0
        assert excinfo.value.elapsed_s == pytest.approx(3.5)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestCancelScope:
    def test_cancel_is_idempotent_and_first_wins(self):
        scope = CancelScope(query_id="q1")
        assert scope.cancel("user asked") is True
        assert scope.cancel("too late") is False
        assert scope.cancel_reason == "user asked"

    def test_check_raises_cancellation_before_deadline(self):
        clock = [100.0]
        scope = CancelScope(deadline=Deadline(1.0, clock=lambda: clock[0]))
        clock[0] = 200.0  # deadline long gone
        scope.cancel("explicit")
        with pytest.raises(QueryCancelled):
            scope.check()

    def test_ambient_scope_attach_detach(self):
        assert current_scope() is None
        scope = CancelScope(query_id="q2")
        with attach_scope(scope):
            assert current_scope() is scope
            check_scope()  # live scope: no raise
            scope.cancel()
            with pytest.raises(QueryCancelled):
                check_scope()
        assert current_scope() is None

    def test_wait_future_observes_ambient_cancellation(self):
        from concurrent.futures import Future

        future = Future()  # never resolved
        scope = CancelScope(query_id="q3")
        timer = threading.Timer(0.15, scope.cancel)
        timer.daemon = True
        timer.start()
        with attach_scope(scope):
            with pytest.raises(QueryCancelled):
                wait_future(future, timeout=30)
        timer.join()


# ----------------------------------------------------------------------
# Journal units
# ----------------------------------------------------------------------


class TestQueryJournal:
    def test_roundtrip_with_document_values(self, tmp_path):
        journal = QueryJournal(tmp_path)
        journal.begin(
            "q1", question="how many?", index="ntsb", plan_json='{"nodes": []}'
        )
        docs = [Document(doc_id="d1", text="wind"), Document(doc_id="d2", text="ice")]
        journal.node_complete("q1", 0, "QueryIndex", docs)
        journal.node_complete("q1", 1, "Count", 2)
        state = journal.load("q1")
        assert state.question == "how many?"
        assert state.last_checkpoint == 1
        assert state.operations == {0: "QueryIndex", 1: "Count"}
        restored = state.completed[0]
        assert [d.doc_id for d in restored] == ["d1", "d2"]
        assert isinstance(restored[0], Document)
        assert state.completed[1] == 2
        assert not state.committed

    def test_commit_records_answer(self, tmp_path):
        journal = QueryJournal(tmp_path)
        journal.begin("q1", question="?", index="i", plan_json="{}")
        journal.commit("q1", {"count": 3})
        state = journal.load("q1")
        assert state.committed
        assert state.answer == {"count": 3}

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = QueryJournal(tmp_path)
        journal.begin("q1", question="?", index="i", plan_json="{}")
        journal.node_complete("q1", 0, "QueryIndex", [1, 2])
        path = journal.path("q1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "node", "index": 1, "val')  # crashed mid-write
        state = journal.load("q1")
        assert state.last_checkpoint == 0  # torn record dropped, prefix stands

    def test_load_unknown_query_raises(self, tmp_path):
        with pytest.raises(JournalError):
            QueryJournal(tmp_path).load("never-ran")

    def test_begin_truncates_stale_journal(self, tmp_path):
        journal = QueryJournal(tmp_path)
        journal.begin("q1", question="old", index="i", plan_json="{}")
        journal.node_complete("q1", 0, "QueryIndex", [1])
        journal.begin("q1", question="new", index="i", plan_json="{}")
        state = journal.load("q1")
        assert state.question == "new"
        assert state.completed == {}

    def test_codec_preserves_tuples_and_nested_dicts(self):
        value = [("a", 1), {"k": ("b", 2)}, Document(doc_id="d", text="t")]
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded[0] == ("a", 1)
        assert decoded[1]["k"] == ("b", 2)
        assert decoded[2].doc_id == "d"


# ----------------------------------------------------------------------
# Crash recovery: kill mid-query, resume, byte-identity
# ----------------------------------------------------------------------


def _canonical(result):
    return json.dumps(
        {
            "answer": result.answer,
            "docs": sorted(result.trace.supporting_documents()),
        },
        sort_keys=True,
        default=repr,
    )


class TestCrashRecovery:
    QUESTION = "How many incidents were caused by wind?"
    #: One kill point per checkpoint of QUESTION's plan (QueryIndex ->
    #: LlmFilter -> Count); the test asserts the plan still has this many.
    KILL_POINTS = (0, 1, 2)

    @pytest.fixture(scope="class")
    def recovery_ctx(self):
        # Seed 11: two of the eight reports match, so the byte-identity
        # check compares a non-empty answer and its supporting documents.
        return build_served_context(n_docs=8, seed=11)

    @pytest.mark.parametrize("kill_after", KILL_POINTS)
    def test_resume_is_byte_identical_and_replays_checkpoints(
        self, recovery_ctx, tmp_path, kill_after
    ):
        reference = Luna(recovery_ctx, error_policy="dead_letter").query(
            self.QUESTION, index="ntsb"
        )
        total_nodes = reference.trace.nodes_executed
        assert total_nodes == len(self.KILL_POINTS)
        assert reference.answer == 2

        journal = QueryJournal(tmp_path, registry=recovery_ctx.registry)
        original = journal.node_complete

        def crashing_node_complete(query_id, index, operation, value):
            original(query_id, index, operation, value)
            if index >= kill_after:
                raise SimulatedCrash(f"killed after node {index}")

        journal.node_complete = crashing_node_complete
        luna = Luna(recovery_ctx, error_policy="dead_letter", journal=journal)
        with pytest.raises(SimulatedCrash):
            luna.query(self.QUESTION, index="ntsb", query_id="crash-test")

        # The checkpoint reached disk before the "crash".
        state = journal.load("crash-test")
        assert state.last_checkpoint == kill_after
        assert not state.committed

        # A fresh facade (new process stand-in) resumes from the journal:
        # checkpointed nodes are replayed, never re-run.
        journal.node_complete = original
        resumed = Luna(
            recovery_ctx, error_policy="dead_letter", journal=journal
        ).resume("crash-test")
        assert _canonical(resumed) == _canonical(reference)
        assert resumed.trace.nodes_replayed == kill_after + 1
        assert resumed.trace.nodes_executed == total_nodes - (kill_after + 1)
        assert journal.load("crash-test").committed
        registry = recovery_ctx.registry
        assert registry.counter("lifecycle.resumes").value() >= 1
        assert registry.counter("lifecycle.nodes_replayed").value() >= 1

    def test_resume_rejects_fingerprint_drift(self, recovery_ctx, tmp_path):
        journal = QueryJournal(tmp_path)
        luna = Luna(recovery_ctx, error_policy="dead_letter", journal=journal)
        luna.query(
            "How many incidents were caused by wind?",
            index="ntsb",
            query_id="drift-test",
        )
        # Corrupt the begin record's fingerprint in place.
        path = journal.path("drift-test")
        lines = path.read_text(encoding="utf-8").splitlines()
        begin = json.loads(lines[0])
        begin["fingerprint"] = "not-the-real-fingerprint"
        lines[0] = json.dumps(begin, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="fingerprint"):
            luna.resume("drift-test")


# ----------------------------------------------------------------------
# Deadlines through the serving layer
# ----------------------------------------------------------------------


def _gate_planner(monkeypatch):
    """Same trick as test_serving: questions containing BLOCK park on an
    event inside the planner, making worker-busy deterministic."""
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


class TestServiceDeadlines:
    def test_queued_past_deadline_fails_typed_with_retry_hint(
        self, monkeypatch
    ):
        ctx = build_served_context(n_docs=6, seed=11)
        gate, entered = _gate_planner(monkeypatch)
        registry = MetricsRegistry()
        service = QueryService(
            ctx,
            ServiceConfig(max_workers=1, max_queue_depth=8),
            registry=registry,
        )
        try:
            blocker = service.submit("BLOCK the only worker?", "ntsb")
            assert entered.wait(timeout=30)
            doomed = service.submit(
                "never gets a worker in time?", "ntsb", deadline_s=0.05
            )
            assert doomed.deadline is not None
            time.sleep(0.1)  # budget expires while queued
            gate.set()
            with pytest.raises(DeadlineExceeded) as excinfo:
                doomed.result(timeout=60)
            assert excinfo.value.retry_after_s > 0
            assert [e.stage for e in doomed.events()][-1] == "failed"
            assert registry.counter("serving.deadline_exceeded").value() == 1
            assert service.stats()["deadline_exceeded"] == 1
            blocker.result(timeout=60)
        finally:
            gate.set()
            service.close()

    def test_mid_execution_expiry_degrades_to_typed_partial(self):
        ctx = build_served_context(n_docs=6, seed=12)
        question = "How many incidents were caused by wind?"
        registry = MetricsRegistry()
        service = QueryService(
            ctx, ServiceConfig(max_workers=2), registry=registry
        )
        release = threading.Event()
        backend_entered = threading.Event()
        backend = ctx.llm.backend
        original_complete = backend.complete

        def gated_complete(prompt, **kwargs):
            backend_entered.set()
            assert release.wait(timeout=30), "backend gate never released"
            return original_complete(prompt, **kwargs)

        try:
            # Warm the plan cache, then invalidate the answer so the next
            # submission re-executes with a live deadline.
            service.submit(question, "ntsb").result(timeout=60)
            service.result_cache.clear()
            backend.complete = gated_complete
            ticket = service.submit(question, "ntsb", deadline_s=0.4)
            assert backend_entered.wait(timeout=30)
            deadline = ticket.deadline
            assert deadline is not None
            while not deadline.expired:
                time.sleep(0.02)
            release.set()
            served = ticket.result(timeout=60)
            # Typed partial: the answer came back degraded, flagged, and
            # within roughly one operator of the budget.
            assert served.deadline_exceeded
            assert served.result.partial
            assert any(
                "DeadlineExceeded" in err for err in served.result.trace.errors
            )
            assert served.latency_s < 10.0
            assert registry.counter("serving.deadline_exceeded").value() == 1
            stages = [e.stage for e in ticket.events()]
            assert "deadline_degraded" in stages
            assert stages[-1] == "completed"
        finally:
            release.set()
            backend.complete = original_complete
            service.close()

    def test_overloaded_carries_retry_after(self, monkeypatch):
        ctx = build_served_context(n_docs=6, seed=13)
        gate, entered = _gate_planner(monkeypatch)
        service = QueryService(
            ctx,
            ServiceConfig(max_workers=1, max_queue_depth=1),
            registry=MetricsRegistry(),
        )
        try:
            blocked = service.submit("BLOCK worker?", "ntsb")
            assert entered.wait(timeout=30)
            service.submit("queued?", "ntsb")
            with pytest.raises(Overloaded) as excinfo:
                service.submit("shed me?", "ntsb")
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.retry_after_s > 0
            gate.set()
            blocked.result(timeout=60)
        finally:
            gate.set()
            service.close()


# ----------------------------------------------------------------------
# Cancellation through the serving layer
# ----------------------------------------------------------------------


class TestServiceCancellation:
    def test_cancel_queued_frees_slot_immediately(self, monkeypatch):
        ctx = build_served_context(n_docs=6, seed=14)
        gate, entered = _gate_planner(monkeypatch)
        registry = MetricsRegistry()
        service = QueryService(
            ctx,
            ServiceConfig(max_workers=1, max_queue_depth=8),
            registry=registry,
        )
        try:
            service.set_quota("alice", __import__(
                "repro.serving.session", fromlist=["TenantQuota"]
            ).TenantQuota(max_inflight=2))
            blocker = service.submit("BLOCK worker?", "ntsb", tenant="alice")
            assert entered.wait(timeout=30)
            queued = service.submit("queued question?", "ntsb", tenant="alice")
            # Tenant is now at its quota of 2...
            with pytest.raises(Overloaded):
                service.submit("third?", "ntsb", tenant="alice")
            assert queued.cancel("changed my mind") is True
            with pytest.raises(QueryCancelled) as excinfo:
                queued.result(timeout=10)
            assert excinfo.value.reason == "changed my mind"
            assert [e.stage for e in queued.events()][-1] == "cancelled"
            # ...and cancelling the queued ticket freed the slot.
            third = service.submit("third now fits?", "ntsb", tenant="alice")
            gate.set()
            blocker.result(timeout=60)
            third.result(timeout=60)
            assert registry.counter("serving.cancelled").value() == 1
            assert service.stats()["cancelled"] == 1
        finally:
            gate.set()
            service.close()

    def test_cancel_running_query_observed_at_next_checkpoint(
        self, monkeypatch
    ):
        ctx = build_served_context(n_docs=6, seed=15)
        gate, entered = _gate_planner(monkeypatch)
        registry = MetricsRegistry()
        service = QueryService(
            ctx, ServiceConfig(max_workers=1), registry=registry
        )
        try:
            ticket = service.submit("BLOCK then cancel me?", "ntsb")
            assert entered.wait(timeout=30)  # running, parked in the planner
            assert ticket.cancel("operator abort") is True
            gate.set()  # planner resumes; the LLM layer checks the scope
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=60)
            assert registry.counter("serving.cancelled").value() == 1
            # The worker slot is free again: a new query completes.
            service.submit("still serving?", "ntsb").result(timeout=60)
        finally:
            gate.set()
            service.close()

    def test_cancelled_leader_triggers_follower_reelection(self, monkeypatch):
        """S4: N identical queries coalesce; the leader is cancelled;
        followers re-elect a new leader and finish — nobody hangs."""
        ctx = build_served_context(n_docs=6, seed=16)
        gate, entered = _gate_planner(monkeypatch)
        registry = MetricsRegistry()
        service = QueryService(
            ctx, ServiceConfig(max_workers=3), registry=registry
        )
        question = "BLOCK how many wind incidents, coalesced?"
        try:
            tickets = [service.submit(question, "ntsb") for _ in range(3)]
            assert entered.wait(timeout=30)
            # Wait until both followers are parked on the leader's future.
            deadline = time.monotonic() + 30
            while service.result_cache.stats()["coalesced"] < 2:
                assert time.monotonic() < deadline, "followers never coalesced"
                time.sleep(0.01)
            leader = next(
                t
                for t in tickets
                if any(e.stage == "planning" for e in t.events())
            )
            followers = [t for t in tickets if t is not leader]
            assert leader.cancel("leader aborted") is True
            gate.set()
            with pytest.raises(QueryCancelled):
                leader.result(timeout=60)
            # Followers never hang and never inherit the cancellation.
            answers = [f.result(timeout=60) for f in followers]
            assert all(a.answer is not None for a in answers)
            assert service.result_cache.stats()["reelections"] >= 1
        finally:
            gate.set()
            service.close()


# ----------------------------------------------------------------------
# S1: ReliableLLM overall budget (no timeout compounding)
# ----------------------------------------------------------------------


class TestOverallTimeout:
    def test_overall_budget_caps_retry_storm(self):
        clock = [0.0]
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        def flaky_with_time(*args, **kwargs):
            clock[0] += 3.0  # each backend attempt burns 3 "seconds"
            raise TransientLLMError("boom")

        backend = FlakyBackend(failures=100)
        backend.complete = flaky_with_time
        llm = ReliableLLM(
            backend,
            max_retries=10,
            backoff_base_s=2.0,
            total_timeout_s=5.0,
            sleeper=fake_sleep,
            clock=lambda: clock[0],
        )
        with pytest.raises(LLMTimeoutError, match="overall budget"):
            llm.complete("hi")
        # One attempt (3s) + clamped backoff reach the 5s budget; without
        # the overall cap this would have been 11 attempts * (3s + backoff).
        assert clock[0] <= 5.0 + 0.01
        assert llm.metrics()["overall_timeouts"] == 1

    def test_backoff_clamped_to_remaining_budget(self):
        clock = [0.0]
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        llm = ReliableLLM(
            FlakyBackend(failures=1),
            max_retries=3,
            backoff_base_s=60.0,
            total_timeout_s=2.0,
            sleeper=fake_sleep,
            clock=lambda: clock[0],
        )
        with pytest.raises(LLMTimeoutError):
            llm.complete("hi")
        assert all(s <= 2.0 for s in sleeps)


# ----------------------------------------------------------------------
# Scheduler: cancelled/expired entries purged from the queue
# ----------------------------------------------------------------------


class TestSchedulerPurge:
    def test_cancelled_scope_purges_queued_request(self):
        scheduler = RequestScheduler(
            ReliableLLM(SimulatedLLM(seed=0)), registry=MetricsRegistry()
        )
        try:
            scope = CancelScope(query_id="qx")
            scope.cancel("gone before dispatch")
            with attach_scope(scope):
                future = scheduler.submit(
                    "a prompt that never dispatches", priority=Priority.BULK
                )
            exc = future.exception(timeout=10)
            assert isinstance(exc, QueryCancelled)
            assert scheduler.metrics()["cancelled"] >= 1
        finally:
            scheduler.close()

    def test_live_scope_requests_still_complete(self):
        scheduler = RequestScheduler(
            ReliableLLM(SimulatedLLM(seed=0)), registry=MetricsRegistry()
        )
        try:
            scope = CancelScope(deadline=Deadline(30.0), query_id="qy")
            with attach_scope(scope):
                response = scheduler.complete("fine prompt", timeout=30)
            assert response.text
        finally:
            scheduler.close()
