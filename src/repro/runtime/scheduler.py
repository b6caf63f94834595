"""The shared LLM request scheduler: micro-batching, dedup, priorities.

The paper's stack funnels *all* LLM traffic — Luna planning, per-document
transforms, summarization trees — through hosted model endpoints, and its
cost/latency story depends on how efficiently that traffic is scheduled
(§3 "LLMs are slow and expensive"). ScaleDoc (arXiv:2509.12610) and
"Towards Accurate and Efficient Document Analytics with LLMs"
(arXiv:2405.04674) both show that batching, dedup and admission-aware
scheduling of LLM predicates dominate end-to-end performance at
collection scale. This module is that serving substrate:

* **Micro-batching** — requests for the same (model, max_tokens) are
  collected into batches of up to ``max_batch_size``, waiting at most
  ``max_wait_ms`` from the first request's arrival, then drained into
  :meth:`LLMClient.complete_many` so the transport parallelizes them.
* **In-flight dedup** — identical (model, prompt, max_tokens) requests
  from concurrent pipelines share one upstream call: later submitters get
  the *same* future, including its exception if the call fails.
* **Two-level priority** — INTERACTIVE (Luna query paths) is served
  before BULK (ETL/ingest), with a starvation guard that promotes BULK
  after ``starvation_limit`` consecutive INTERACTIVE batches.
* **Admission control** — each priority queue is bounded; submitting to a
  full queue raises :class:`SchedulerSaturatedError` instead of growing
  memory without bound (backpressure).
* **Observability** — :meth:`RequestScheduler.stats` snapshots queue
  depths, the batch-size histogram, dedup hits, and wait/service times;
  ``python -m repro runtime-stats`` prints them.

The scheduler composes with the reliability layer: its client is normally
a :class:`repro.llm.client.ReliableLLM`, so every dispatched batch enjoys
retries, the circuit breaker, the retry budget, and the response cache —
and chaos schedules injected *below* the reliability layer exercise the
queue under brownouts (see tests/test_scheduler.py).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..lifecycle.deadline import (
    CancelScope,
    DeadlineExceeded,
    QueryCancelled,
    current_scope,
    wait_future,
)
from ..llm.base import LLMClient, LLMResponse
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Span, Tracer


class SchedulerError(RuntimeError):
    """Base class for scheduler-level failures."""


class SchedulerSaturatedError(SchedulerError):
    """Admission control rejected a request: the target queue is full."""


class SchedulerClosedError(SchedulerError):
    """The scheduler is shut down; the request was not (or will not be)
    dispatched."""


class Priority(IntEnum):
    """Admission classes, in service order.

    INTERACTIVE is the latency-sensitive class (Luna planning and query
    operators — a user is waiting); BULK is throughput-oriented ETL and
    ingest traffic.
    """

    INTERACTIVE = 0
    BULK = 1


def _coerce_priority(priority: "Priority | int | str") -> Priority:
    if isinstance(priority, Priority):
        return priority
    if isinstance(priority, str):
        try:
            return Priority[priority.upper()]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; known: "
                f"{[p.name.lower() for p in Priority]}"
            ) from None
    return Priority(priority)


#: Dedup key: requests identical along these axes share one upstream call.
DedupKey = Tuple[str, str, Optional[int]]


@dataclass
class LLMRequest:
    """One unit of admitted work: a completion request plus its future."""

    prompt: str
    model: str
    max_output_tokens: Optional[int]
    temperature: float
    priority: Priority
    future: "Future[LLMResponse]"
    enqueued_at: float
    #: Dedup key, or None when the request is not dedupable/batchable
    #: (non-zero temperature).
    key: Optional[DedupKey] = None
    #: Trace span opened at submission (under the submitter's context)
    #: and finished when the future resolves; None when untraced.
    span: Optional[Span] = None
    #: The submitting query's lifecycle scope, captured at admission.
    #: Cancelled or deadline-expired entries are purged (typed failure)
    #: at batch-formation time instead of being dispatched.
    scope: Optional[CancelScope] = None

    @property
    def batchable(self) -> bool:
        """Whether this request may share a batch (deterministic only)."""
        return self.temperature == 0.0


@dataclass
class SchedulerStats:
    """A point-in-time snapshot of scheduler counters.

    Times are cumulative seconds; histogram maps batch size -> count.
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    dedup_hits: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    batches_dispatched: int = 0
    starvation_promotions: int = 0
    queue_depth_interactive: int = 0
    queue_depth_bulk: int = 0
    peak_queue_depth: int = 0
    total_wait_s: float = 0.0
    total_service_s: float = 0.0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def upstream_requests(self) -> int:
        """Requests actually dispatched (admitted minus still-queued,
        minus dedup-shared waiters)."""
        return self.completed + self.failed

    def avg_batch_size(self) -> float:
        """Mean dispatched batch size (0.0 before any dispatch)."""
        total = sum(size * count for size, count in self.batch_size_histogram.items())
        return total / self.batches_dispatched if self.batches_dispatched else 0.0

    def avg_wait_ms(self) -> float:
        """Mean queue wait per dispatched request, in milliseconds."""
        done = self.completed + self.failed
        return (self.total_wait_s / done) * 1000.0 if done else 0.0

    def avg_service_ms(self) -> float:
        """Mean service (dispatch -> resolution) time per batch, in ms."""
        n = self.batches_dispatched
        return (self.total_service_s / n) * 1000.0 if n else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict view (stable keys) for logging and the CLI."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "dedup_hits": self.dedup_hits,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "batches_dispatched": self.batches_dispatched,
            "starvation_promotions": self.starvation_promotions,
            "queue_depth_interactive": self.queue_depth_interactive,
            "queue_depth_bulk": self.queue_depth_bulk,
            "peak_queue_depth": self.peak_queue_depth,
            "avg_batch_size": round(self.avg_batch_size(), 3),
            "avg_wait_ms": round(self.avg_wait_ms(), 3),
            "avg_service_ms": round(self.avg_service_ms(), 3),
            "batch_size_histogram": dict(sorted(self.batch_size_histogram.items())),
        }


class RequestScheduler:
    """Process-wide scheduler all LLM call sites submit through.

    Parameters
    ----------
    client:
        The transport to drain batches into — normally a
        :class:`repro.llm.client.ReliableLLM`. May be None at
        construction and bound later (``scheduler.client = llm``);
        :class:`repro.sycamore.context.SycamoreContext` binds its own
        reliability-wrapped client to an unbound scheduler.
    max_batch_size:
        Upper bound on requests per dispatched batch.
    max_wait_ms:
        Micro-batch window: how long a batch may wait (from its first
        request's arrival) for more compatible requests. 0 dispatches
        whatever is immediately available.
    max_queue_depth:
        Per-priority admission bound; a full queue rejects submissions
        with :class:`SchedulerSaturatedError`.
    dispatch_parallelism:
        How many batches may be in flight at once.
    starvation_limit:
        Consecutive INTERACTIVE batches after which a waiting BULK batch
        is promoted (the starvation guard).
    dedup:
        Whether identical in-flight requests share one upstream call.
    tracer:
        Optional :class:`~repro.observability.Tracer`. Request spans are
        created at submit time under the submitter's ambient span; each
        dispatched batch gets its own ``batch`` span (a separate trace —
        one batch serves many queries) and member request spans link to
        it via the ``batch_span`` attribute.
    registry:
        :class:`~repro.observability.MetricsRegistry` the scheduler
        publishes counters/histograms into (default: process registry).
        :meth:`stats` remains the per-instance compatibility shim.
    """

    def __init__(
        self,
        client: Optional[LLMClient] = None,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        max_queue_depth: int = 1024,
        dispatch_parallelism: int = 4,
        starvation_limit: int = 4,
        dedup: bool = True,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if dispatch_parallelism < 1:
            raise ValueError("dispatch_parallelism must be >= 1")
        if starvation_limit < 1:
            raise ValueError("starvation_limit must be >= 1")
        self.client = client
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self.dispatch_parallelism = dispatch_parallelism
        self.starvation_limit = starvation_limit
        self.dedup = dedup
        self.tracer = tracer
        self.registry = registry if registry is not None else get_registry()
        reg = self.registry
        self._m_submitted = reg.counter("scheduler.submitted")
        self._m_admitted = reg.counter("scheduler.admitted")
        self._m_rejected = reg.counter("scheduler.rejected")
        self._m_dedup_hits = reg.counter("scheduler.dedup_hits")
        self._m_completed = reg.counter("scheduler.completed")
        self._m_failed = reg.counter("scheduler.failed")
        self._m_cancelled = reg.counter("scheduler.cancelled")
        self._m_batches = reg.counter("scheduler.batches_dispatched")
        self._m_starvation = reg.counter("scheduler.starvation_promotions")
        self._m_batch_size = reg.histogram("scheduler.batch_size")
        self._m_wait_ms = reg.histogram("scheduler.wait_ms")
        self._m_service_ms = reg.histogram("scheduler.service_ms")
        self._g_depth_interactive = reg.gauge("scheduler.queue_depth_interactive")
        self._g_depth_bulk = reg.gauge("scheduler.queue_depth_bulk")
        self._cond = threading.Condition()
        self._queues: Dict[Priority, Deque[LLMRequest]] = {
            Priority.INTERACTIVE: deque(),
            Priority.BULK: deque(),
        }
        self._inflight: Dict[DedupKey, "Future[LLMResponse]"] = {}
        self._stats = SchedulerStats()
        self._consecutive_interactive = 0
        self._closed = False
        self._drain_on_close = True
        self._dispatch_slots = threading.Semaphore(dispatch_parallelism)
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=dispatch_parallelism,
            thread_name_prefix="repro-sched-dispatch",
        )
        self._worker = threading.Thread(
            target=self._run, name="repro-sched-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------

    def submit(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
        priority: "Priority | int | str" = Priority.BULK,
    ) -> "Future[LLMResponse]":
        """Admit a request; returns a future resolving to its response.

        Identical in-flight requests (same model, prompt, max_tokens, at
        temperature 0) return the *same* future — one upstream call, and
        one shared exception if it fails.
        """
        priority = _coerce_priority(priority)
        shared: "Optional[Future[LLMResponse]]" = None
        waiter_span: Optional[Span] = None
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            self._stats.submitted += 1
            self._m_submitted.inc()
            key: Optional[DedupKey] = None
            if self.dedup and temperature == 0.0:
                key = (model, prompt, max_output_tokens)
                shared = self._inflight.get(key)
            if shared is None:
                return self._enqueue_locked(
                    prompt, model, max_output_tokens, temperature, priority, key
                )
            self._stats.dedup_hits += 1
            self._m_dedup_hits.inc()
            if self.tracer is not None:
                # The waiter gets its own span (attributed to ITS
                # query), finished when the shared call resolves:
                # full tokens, zero dollars, savings reported.
                waiter_span = self.tracer.start_span(
                    f"llm:{model}",
                    kind="llm_request",
                    model=model,
                    priority=priority.name.lower(),
                    dedup="inflight",
                )
        # Registered outside the lock: an already-resolved shared future
        # runs the callback inline, and the span bookkeeping must not
        # execute while holding _cond.
        if waiter_span is not None:
            span = waiter_span
            shared.add_done_callback(
                lambda f, s=span: self._finish_request_span(s, f, charge=False)
            )
        return shared

    def _enqueue_locked(
        self,
        prompt: str,
        model: str,
        max_output_tokens: Optional[int],
        temperature: float,
        priority: Priority,
        key: Optional[DedupKey],
    ) -> "Future[LLMResponse]":
        """Admit a new request to its priority queue; caller holds _cond."""
        queue = self._queues[priority]
        if len(queue) >= self.max_queue_depth:
            self._stats.rejected += 1
            self._m_rejected.inc()
            raise SchedulerSaturatedError(
                f"{priority.name.lower()} queue is full "
                f"({self.max_queue_depth} requests)"
            )
        future: "Future[LLMResponse]" = Future()
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                f"llm:{model}",
                kind="llm_request",
                model=model,
                priority=priority.name.lower(),
            )
        request = LLMRequest(
            prompt=prompt,
            model=model,
            max_output_tokens=max_output_tokens,
            temperature=temperature,
            priority=priority,
            future=future,
            enqueued_at=time.monotonic(),
            key=key,
            span=span,
            scope=current_scope(),
        )
        if key is not None:
            self._inflight[key] = future
        queue.append(request)
        self._stats.admitted += 1
        self._m_admitted.inc()
        depth = sum(len(q) for q in self._queues.values())
        if depth > self._stats.peak_queue_depth:
            self._stats.peak_queue_depth = depth
        self._g_depth_interactive.set(len(self._queues[Priority.INTERACTIVE]))
        self._g_depth_bulk.set(len(self._queues[Priority.BULK]))
        self._cond.notify_all()
        return future

    def _finish_request_span(
        self,
        span: Span,
        resolved: "Future[LLMResponse] | LLMResponse | BaseException",
        charge: bool,
        batch_span_id: Optional[str] = None,
        dedup: Optional[str] = None,
    ) -> None:
        """Close one request span from its outcome.

        ``charge=False`` (dedup waiters, within-batch duplicates) counts
        tokens at zero dollars and reports the avoided spend as
        ``saved_usd`` — the conservative-accounting invariant.
        """
        assert self.tracer is not None
        result: "LLMResponse | BaseException"
        if isinstance(resolved, Future):
            exc = resolved.exception()
            # Callers only pass resolved futures (exception() returned).
            result = exc if exc is not None else resolved.result()  # repro: lint-ignore[timeout-not-propagated]
        else:
            result = resolved
        if batch_span_id is not None:
            span.set_attributes(batch_span=batch_span_id)
        if dedup is not None:
            span.set_attributes(dedup=dedup)
        if isinstance(result, BaseException):
            self.tracer.finish(
                span, status="error", error=f"{type(result).__name__}: {result}"
            )
            return
        usage = result.usage
        # Priced where the response was made; a waiter on a shared call
        # is charged nothing and saves the whole price.
        price = result.price_usd or 0.0
        charged = result.cost_usd if charge else 0.0
        span.set_attributes(
            input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens,
            cost_usd=charged,
            saved_usd=price - charged,
            cached=result.cached,
        )
        self.tracer.finish(span)

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
        priority: "Priority | int | str" = Priority.BULK,
        timeout: Optional[float] = None,
    ) -> LLMResponse:
        """Submit and block for the response (convenience wrapper).

        The wait is scope-aware: a caller running under a lifecycle
        scope observes its own cancellation/deadline while blocked, even
        when the future is shared with other submitters via dedup.
        """
        future = self.submit(
            prompt,
            model=model,
            max_output_tokens=max_output_tokens,
            temperature=temperature,
            priority=priority,
        )
        return wait_future(future, timeout=timeout)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> SchedulerStats:
        """A consistent snapshot of the scheduler's counters."""
        with self._cond:
            snapshot = SchedulerStats(
                submitted=self._stats.submitted,
                admitted=self._stats.admitted,
                rejected=self._stats.rejected,
                dedup_hits=self._stats.dedup_hits,
                completed=self._stats.completed,
                failed=self._stats.failed,
                cancelled=self._stats.cancelled,
                batches_dispatched=self._stats.batches_dispatched,
                starvation_promotions=self._stats.starvation_promotions,
                queue_depth_interactive=len(self._queues[Priority.INTERACTIVE]),
                queue_depth_bulk=len(self._queues[Priority.BULK]),
                peak_queue_depth=self._stats.peak_queue_depth,
                total_wait_s=self._stats.total_wait_s,
                total_service_s=self._stats.total_service_s,
                batch_size_histogram=dict(self._stats.batch_size_histogram),
            )
        return snapshot

    def metrics(self) -> Dict[str, Any]:
        """Flat counter dict (the shape ReliableLLM.metrics uses)."""
        return self.stats().as_dict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down. ``drain=True`` dispatches everything already queued
        first; ``drain=False`` fails queued futures with
        :class:`SchedulerClosedError`. Either way no future is lost."""
        cancelled: List[LLMRequest] = []
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._drain_on_close = drain
            if not drain:
                for queue in self._queues.values():
                    while queue:
                        cancelled.append(queue.popleft())
                for request in cancelled:
                    if request.key is not None:
                        self._inflight.pop(request.key, None)
                    self._stats.cancelled += 1
                    self._m_cancelled.inc()
            self._cond.notify_all()
        for request in cancelled:
            if self.tracer is not None and request.span is not None:
                self.tracer.finish(
                    request.span,
                    status="error",
                    error="SchedulerClosedError: scheduler closed before dispatch",
                )
            request.future.set_exception(
                SchedulerClosedError("scheduler closed before dispatch")
            )
        self._worker.join(timeout=timeout)
        self._dispatch_pool.shutdown(wait=True)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker: batch formation and dispatch
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            # Claim a dispatch slot *before* forming a batch, so batch
            # wait times are measured against real dispatch capacity —
            # and never while holding the lock (dispatch threads need it
            # to resolve futures). The slot is released by the dispatch
            # task (on a pool thread), so no try/finally can pair with
            # this acquire.
            self._dispatch_slots.acquire()  # repro: lint-ignore[bare-lock-acquire]
            purged: List[Tuple[LLMRequest, Exception]] = []
            with self._cond:
                while not self._closed and self._total_depth() == 0:
                    # Heartbeat timeout: close() notifies, but a bounded
                    # wait also guards against a lost wakeup leaving the
                    # worker parked forever.
                    self._cond.wait(timeout=0.5)
                if self._total_depth() == 0:  # closed and empty: done
                    self._dispatch_slots.release()
                    return
                batch = self._form_batch_locked(purged)
            self._fail_purged(purged)
            if not batch:
                # Everything poppable was cancelled/expired; the slot
                # goes back and the loop re-evaluates the queues.
                self._dispatch_slots.release()
                continue
            try:
                dispatched = self._dispatch_pool.submit(self._dispatch, batch)
            except RuntimeError:  # pool torn down mid-close
                self._dispatch_slots.release()
                self._fail_batch(
                    batch, SchedulerClosedError("scheduler closed during dispatch")
                )
            else:
                dispatched.add_done_callback(
                    lambda f, b=batch: self._dispatch_postmortem(f, b)
                )

    def _total_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _pick_priority_locked(self) -> Priority:
        interactive = self._queues[Priority.INTERACTIVE]
        bulk = self._queues[Priority.BULK]
        if not bulk:
            return Priority.INTERACTIVE
        if not interactive:
            self._consecutive_interactive = 0
            return Priority.BULK
        # Both non-empty: serve INTERACTIVE unless it has monopolized the
        # last ``starvation_limit`` batches.
        if self._consecutive_interactive >= self.starvation_limit:
            self._consecutive_interactive = 0
            self._stats.starvation_promotions += 1
            self._m_starvation.inc()
            return Priority.BULK
        return Priority.INTERACTIVE

    def _form_batch_locked(
        self, purged: List[Tuple[LLMRequest, Exception]]
    ) -> List[LLMRequest]:
        priority = self._pick_priority_locked()
        if priority == Priority.INTERACTIVE:
            self._consecutive_interactive += 1
        queue = self._queues[priority]
        head = self._pop_live_locked(queue, purged)
        if head is None:
            return []
        batch = [head]
        if not head.batchable or self.max_batch_size == 1:
            return batch
        deadline = head.enqueued_at + self.max_wait_ms / 1000.0
        if head.scope is not None:
            # The micro-batch window never outlives the head's remaining
            # budget: a nearly-expired query dispatches immediately
            # instead of waiting for batch mates it cannot afford.
            remaining_budget = head.scope.remaining()
            if remaining_budget is not None:
                deadline = min(deadline, time.monotonic() + remaining_budget)
        while len(batch) < self.max_batch_size:
            self._take_compatible_locked(queue, head, batch, purged)
            if len(batch) >= self.max_batch_size or self._closed:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._cond.wait(timeout=remaining)
        return batch

    def _lifecycle_error_for(self, request: LLMRequest) -> Optional[Exception]:
        """The typed failure a queued request has already earned (its
        scope was cancelled or its deadline expired), or None."""
        scope = request.scope
        if scope is None:
            return None
        if scope.cancelled:
            return QueryCancelled(
                "request cancelled while queued",
                query_id=scope.query_id,
                reason=scope.cancel_reason,
            )
        if scope.deadline is not None and scope.deadline.expired:
            deadline = scope.deadline
            return DeadlineExceeded(
                f"request queued past its deadline of {deadline.budget_s:.3f}s",
                budget_s=deadline.budget_s,
                elapsed_s=deadline.elapsed(),
            )
        return None

    def _pop_live_locked(
        self,
        queue: Deque[LLMRequest],
        purged: List[Tuple[LLMRequest, Exception]],
    ) -> Optional[LLMRequest]:
        """Pop the next request whose query is still alive; cancelled or
        expired entries are purged lazily here (their futures are failed
        by the caller once the lock is released)."""
        while queue:
            request = queue.popleft()
            error = self._lifecycle_error_for(request)
            if error is None:
                return request
            self._purge_locked(request, error, purged)
        return None

    def _purge_locked(
        self,
        request: LLMRequest,
        error: Exception,
        purged: List[Tuple[LLMRequest, Exception]],
    ) -> None:
        if request.key is not None:
            self._inflight.pop(request.key, None)
        self._stats.cancelled += 1
        self._m_cancelled.inc()
        purged.append((request, error))

    def _fail_purged(
        self, purged: List[Tuple[LLMRequest, Exception]]
    ) -> None:
        """Resolve purged futures (outside the lock: done-callbacks run
        inline on ``set_exception``)."""
        for request, error in purged:
            if self.tracer is not None and request.span is not None:
                self.tracer.finish(
                    request.span,
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                )
            try:
                request.future.set_exception(error)
            except BaseException:  # caller cancelled the future while queued
                pass

    @staticmethod
    def _compatible(head: LLMRequest, other: LLMRequest) -> bool:
        return (
            other.batchable
            and other.model == head.model
            and other.max_output_tokens == head.max_output_tokens
        )

    def _take_compatible_locked(
        self,
        queue: Deque[LLMRequest],
        head: LLMRequest,
        batch: List[LLMRequest],
        purged: List[Tuple[LLMRequest, Exception]],
    ) -> None:
        """Move queue entries compatible with ``head`` into ``batch``,
        preserving the relative order of everything left behind.
        Cancelled/expired entries encountered along the way are purged."""
        kept: List[LLMRequest] = []
        while queue and len(batch) < self.max_batch_size:
            candidate = queue.popleft()
            error = self._lifecycle_error_for(candidate)
            if error is not None:
                self._purge_locked(candidate, error, purged)
            elif self._compatible(head, candidate):
                batch.append(candidate)
            else:
                kept.append(candidate)
        for request in reversed(kept):
            queue.appendleft(request)

    # ------------------------------------------------------------------

    def _dispatch(self, batch: List[LLMRequest]) -> None:
        started = time.monotonic()
        batch_span: Optional[Span] = None
        if self.tracer is not None:
            head = batch[0]
            # A batch is its own trace root: its members may belong to
            # many different query traces, so they link to it by the
            # ``batch_span`` attribute rather than by parentage.
            batch_span = self.tracer.start_span(
                f"batch:{head.model}",
                kind="batch",
                parent=None,
                model=head.model,
                size=len(batch),
                priority=head.priority.name.lower(),
            )
        try:
            client = self.client
            if client is None:
                results: List[Any] = [
                    SchedulerError("scheduler has no client bound")
                ] * len(batch)
            elif batch_span is not None:
                with self.tracer.attach(batch_span):
                    results = self._call_client(client, batch)
            else:
                results = self._call_client(client, batch)
        except BaseException as exc:  # noqa: BLE001 - whole-batch failure
            results = [exc] * len(batch)
        finished = time.monotonic()
        if self.tracer is not None and batch_span is not None:
            failures = sum(1 for r in results if isinstance(r, BaseException))
            batch_span.set_attributes(failed=failures)
            self.tracer.finish(
                batch_span,
                status="error" if failures == len(batch) else "ok",
            )
            seen_in_batch: set = set()
            for request, result in zip(batch, results):
                if request.span is None:
                    continue
                identity = (request.model, request.prompt, request.max_output_tokens)
                duplicate = identity in seen_in_batch
                seen_in_batch.add(identity)
                self._finish_request_span(
                    request.span,
                    result,
                    charge=not duplicate,
                    batch_span_id=batch_span.span_id,
                    dedup="batch" if duplicate else None,
                )
        with self._cond:
            self._stats.batches_dispatched += 1
            self._m_batches.inc()
            size = len(batch)
            self._stats.batch_size_histogram[size] = (
                self._stats.batch_size_histogram.get(size, 0) + 1
            )
            self._m_batch_size.observe(float(size))
            self._stats.total_service_s += finished - started
            self._m_service_ms.observe((finished - started) * 1000.0)
            for request, result in zip(batch, results):
                wait_s = started - request.enqueued_at
                self._stats.total_wait_s += wait_s
                self._m_wait_ms.observe(wait_s * 1000.0)
                if request.key is not None:
                    self._inflight.pop(request.key, None)
                if isinstance(result, BaseException):
                    self._stats.failed += 1
                    self._m_failed.inc()
                else:
                    self._stats.completed += 1
                    self._m_completed.inc()
            self._g_depth_interactive.set(len(self._queues[Priority.INTERACTIVE]))
            self._g_depth_bulk.set(len(self._queues[Priority.BULK]))
            self._cond.notify_all()
        self._dispatch_slots.release()
        for request, result in zip(batch, results):
            try:
                if isinstance(result, BaseException):
                    request.future.set_exception(result)
                else:
                    request.future.set_result(result)
            except BaseException:  # caller cancelled the future while queued
                with self._cond:
                    self._stats.cancelled += 1
                    self._m_cancelled.inc()

    def _call_client(self, client: LLMClient, batch: List[LLMRequest]) -> List[Any]:
        head = batch[0]
        if len(batch) == 1 and not head.batchable:
            # Stochastic request: dispatch alone, preserving temperature.
            try:
                return [
                    client.complete(
                        head.prompt,
                        model=head.model,
                        max_output_tokens=head.max_output_tokens,
                        temperature=head.temperature,
                    )
                ]
            except Exception as exc:  # noqa: BLE001
                return [exc]
        complete_many = getattr(client, "complete_many", None)
        if complete_many is not None:
            try:
                return complete_many(
                    [request.prompt for request in batch],
                    model=head.model,
                    max_output_tokens=head.max_output_tokens,
                    return_exceptions=True,
                )
            except TypeError:
                pass  # client predates return_exceptions; fall through
        results: List[Any] = []
        for request in batch:
            try:
                results.append(
                    client.complete(
                        request.prompt,
                        model=request.model,
                        max_output_tokens=request.max_output_tokens,
                        temperature=request.temperature,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - isolate per request
                results.append(exc)
        return results

    def _dispatch_postmortem(
        self, task: "Future[None]", batch: List[LLMRequest]
    ) -> None:
        """Backstop for a dispatch task that died outside its own error
        containment (i.e. a bug in post-processing): free the dispatch
        slot it was holding and fail its futures, so waiters observe the
        crash instead of hanging forever on a leaked slot."""
        exc = task.exception()
        if exc is None:
            return
        # _dispatch releases the slot immediately before resolving
        # futures, and everything after that point is per-request
        # contained — an escaped exception implies the release was
        # never reached.
        self._dispatch_slots.release()
        with self._cond:
            for request in batch:
                if request.key is not None:
                    self._inflight.pop(request.key, None)
                if not request.future.done():
                    self._stats.failed += 1
                    self._m_failed.inc()
        for request in batch:
            if request.future.done():
                continue
            if self.tracer is not None and request.span is not None:
                self.tracer.finish(
                    request.span,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            request.future.set_exception(
                SchedulerError(f"dispatch task crashed: {exc!r}")
            )

    def _fail_batch(self, batch: List[LLMRequest], exc: Exception) -> None:
        with self._cond:
            for request in batch:
                if request.key is not None:
                    self._inflight.pop(request.key, None)
                self._stats.cancelled += 1
                self._m_cancelled.inc()
        for request in batch:
            if self.tracer is not None and request.span is not None:
                self.tracer.finish(
                    request.span,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            request.future.set_exception(exc)
