"""The concurrent query-serving front-end: admission, caching, progress.

:class:`QueryService` admits many concurrent Luna queries over one shared
:class:`~repro.sycamore.context.SycamoreContext` and its indexes — the
interactive-service posture of the paper (§1: ad-hoc questions against
shared corpora at interactive latency) scaled toward the ROADMAP's
"heavy traffic" north star. The design in one paragraph:

submissions pass **admission control** (a bounded queue plus per-tenant
quotas; past either bound the service *sheds* with a typed
:class:`Overloaded` instead of queueing unboundedly or deadlocking),
then execute on a fixed worker pool. Each served query gets a root
``serve`` span and contributes to its tenant's long-lived
:class:`~repro.observability.CostAccount`. The **result cache** is
consulted first (keyed on the normalized question *and* the corpus
versions of every index read, so ingest invalidates it); on a miss the
**plan cache** (keyed on the question and the index *schema*
fingerprint, so ingest does *not* invalidate it) supplies or computes
the logical plan, and the query executes through the ordinary Luna
stack — planner and operators call the shared context's one LLM
client. Both caches are single-flight: N identical
concurrent queries plan once and execute once, with the other N-1
coalescing onto the leader's future. Cache hits are credited to the
tenant's account as ``saved_usd`` (the conservative-accounting
invariant of :mod:`repro.observability`). Shutdown **drains**: admitted
queries complete, queued-but-unstarted ones fail typed under
``drain=False``, and no future is ever lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.plancheck import ensure_valid_plan
from ..lifecycle.deadline import (
    CancelScope,
    Deadline,
    DeadlineExceeded,
    QueryCancelled,
    attach_scope,
)
from ..luna.luna import Luna, LunaResult
from ..luna.operators import LogicalPlan
from ..observability.cost import CostAccount
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer
from ..optimizer import CostBasedOptimizer, StatsStore
from ..sycamore.context import SycamoreContext
from .cache import (
    COALESCED,
    HIT,
    MISS,
    SingleFlightCache,
    plan_cache_key,
    result_cache_key,
)
from .session import Session, SessionEntry, Tenant, TenantQuota


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class Overloaded(ServingError):
    """Admission control shed this query: the service is at capacity.

    ``reason`` is ``"queue_full"`` or ``"tenant_quota"``; callers should
    back off and retry rather than treat this as a query failure.
    ``retry_after_s`` is a machine-readable backoff hint derived from the
    current backlog and the service's recent per-query latency.
    """

    def __init__(
        self, message: str, reason: str, retry_after_s: float = 0.0, **detail: Any
    ):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.detail = detail


class ServiceClosed(ServingError):
    """The service is shut down (or shutting down without drain)."""


#: LRU bounds of the two single-flight caches: plans are reused across
#: corpus versions, answers only within one, so answers get more room.
PLAN_CACHE_ENTRIES = 256
RESULT_CACHE_ENTRIES = 512


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`."""

    #: Worker threads executing admitted queries.
    max_workers: int = 4
    #: Bounded submission queue; a full queue sheds with Overloaded.
    max_queue_depth: int = 32
    #: Default per-tenant inflight bound (override via set_quota).
    default_tenant_inflight: int = 8
    #: Optimizer policy and failure containment for served queries. A
    #: service defaults to graceful degradation: a flaky backend yields
    #: partial answers, not 500s.
    policy: str = "balanced"
    error_policy: str = "dead_letter"
    #: Disk path for the adaptive optimizer's statistics store (None =
    #: memory-only). Loaded at startup, saved on close, so learned
    #: selectivity/$-per-row figures survive service restarts.
    optimizer_stats_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.default_tenant_inflight < 1:
            raise ValueError("default_tenant_inflight must be >= 1")


@dataclass
class QueryEvent:
    """One progress event in a served query's lifecycle."""

    stage: str
    at: float
    detail: Dict[str, Any] = field(default_factory=dict)


#: Stages after which a ticket emits no further events.
TERMINAL_STAGES = frozenset({"completed", "failed", "cancelled"})


@dataclass
class ServedResult:
    """What the service hands back for one query: the Luna result plus
    serving provenance (cache outcomes, spend, savings, latency)."""

    query_id: str
    question: str
    index: str
    tenant: str
    session_id: Optional[str]
    result: LunaResult
    #: "hit" | "coalesced" | "miss" | "bypass" (follow-ups bypass caches).
    plan_cache: str
    result_cache: str
    #: New simulated dollars this query actually spent (0 for cache hits
    #: and coalesced waiters — the leader is charged).
    cost_usd: float
    #: Dollars avoided via serving-cache reuse, credited to the tenant.
    saved_usd: float
    latency_s: float
    serve_trace_id: str = ""
    #: True when the query's deadline expired mid-execution and the
    #: answer was degraded to a typed partial result.
    deadline_exceeded: bool = False
    #: The network request id the query was submitted under ("" when the
    #: query didn't come through the gateway).
    request_id: str = ""

    @property
    def answer(self) -> Any:
        """The query's answer (convenience passthrough)."""
        return self.result.answer

    @property
    def partial(self) -> bool:
        """Whether failure containment degraded the answer."""
        return self.result.partial


class QueryTicket:
    """Handle for one admitted query: a future plus a progress stream."""

    def __init__(
        self,
        query_id: str,
        question: str,
        index: str,
        tenant: str,
        session: Optional[Session],
        secondary: Tuple[str, ...],
        follow_up: bool,
        deadline_s: Optional[float] = None,
        request_id: str = "",
    ):
        self.query_id = query_id
        self.question = question
        self.index = index
        self.tenant = tenant
        self.session = session
        self.secondary = secondary
        self.follow_up = follow_up
        #: The network-edge correlation id (X-Request-Id), when the query
        #: arrived through the gateway. Stamped on the serve span and on
        #: every progress event, so traces are reachable from access logs.
        self.request_id = request_id
        self.submitted_at = time.monotonic()
        #: The query's lifecycle scope. The deadline clock starts at
        #: admission, so queue time counts against the budget.
        self.scope = CancelScope(
            deadline=Deadline(deadline_s) if deadline_s is not None else None,
            query_id=query_id,
        )
        self._service: Optional["QueryService"] = None
        from concurrent.futures import Future

        self.future: "Future[ServedResult]" = Future()
        self._cond = threading.Condition()
        self._events: List[QueryEvent] = []

    @property
    def deadline(self) -> Optional[Deadline]:
        """The end-to-end deadline, when one was requested."""
        return self.scope.deadline

    def cancel(self, reason: str = "") -> bool:
        """Cooperatively cancel this query.

        Still-queued queries fail immediately with a typed
        :class:`~repro.lifecycle.QueryCancelled` and release their
        admission slot; a running query observes the cancellation at its
        next checkpoint (operator boundary, record boundary, queue wait,
        retry sleep). Returns True the first time cancellation is
        requested.
        """
        first = self.scope.cancel(reason)
        if self._service is not None:
            self._service._cancel_queued(self, reason)
        return first

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self.scope.cancelled

    @property
    def session_id(self) -> Optional[str]:
        """The owning session's id, if the query runs inside one."""
        return self.session.session_id if self.session is not None else None

    def _emit(self, stage: str, **detail: Any) -> None:
        if self.request_id:
            detail.setdefault("request_id", self.request_id)
        event = QueryEvent(stage=stage, at=time.monotonic(), detail=detail)
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def result(self, timeout: Optional[float] = None) -> ServedResult:
        """Block for the served result (raises the query's failure)."""
        return self.future.result(timeout=timeout)

    def done(self) -> bool:
        """Whether the query has reached a terminal state."""
        return self.future.done()

    def events(self) -> List[QueryEvent]:
        """Snapshot of progress events so far."""
        with self._cond:
            return list(self._events)

    def stream(self, timeout: Optional[float] = None, heartbeat: bool = False):
        """Yield progress events as they occur, ending after a terminal
        stage (or when ``timeout`` elapses with no new event).

        With ``heartbeat=True`` a quiet ``timeout`` window yields ``None``
        instead of ending the stream — consumers that must detect dead
        peers (the gateway's SSE delivery) use the ``None`` ticks to
        write keep-alives, and the stream still terminates at the first
        terminal stage.
        """
        consumed = 0
        while True:
            with self._cond:
                while consumed >= len(self._events):
                    if not self._cond.wait(timeout=timeout):
                        if not heartbeat:
                            return
                        break
                fresh = self._events[consumed:]
                consumed = len(self._events)
            if not fresh and heartbeat:
                yield None
                continue
            for event in fresh:
                yield event
                if event.stage in TERMINAL_STAGES:
                    return


@dataclass
class _PlanEntry:
    """A cached plan: serialized (so every execution gets a private copy
    — sessions may edit plan nodes in place) plus what planning cost."""

    plan_json: str
    cost_usd: float
    llm_calls: int
    plan_trace_id: str = ""

    def hydrate(self) -> LogicalPlan:
        plan = LogicalPlan.from_json(self.plan_json)
        plan.validate()
        return plan


class QueryService:
    """Concurrent Luna query serving over one shared context.

    Usage::

        service = QueryService(ctx, ServiceConfig(max_workers=8))
        session = service.open_session(tenant="alice")
        ticket = service.submit("How many incidents were caused by wind?",
                                index="ntsb", session=session)
        served = ticket.result(timeout=30)
        service.close()          # graceful drain

    Thread-safety: ``submit`` may be called from any thread; each worker
    thread owns a private :class:`Luna` facade (the planner/executor pair
    keeps per-query scratch state) while the context, catalog, LLM
    client, caches and tracer are shared.
    """

    def __init__(
        self,
        context: SycamoreContext,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.context = context
        self.config = config or ServiceConfig()
        self.tracer: Tracer = context.tracer
        self.registry = registry if registry is not None else context.registry
        self.plan_cache = SingleFlightCache(PLAN_CACHE_ENTRIES)
        self.result_cache = SingleFlightCache(RESULT_CACHE_ENTRIES)
        reg = self.registry
        self._m_submitted = reg.counter("serving.submitted")
        self._m_admitted = reg.counter("serving.admitted")
        self._m_rejected = reg.counter("serving.rejected")
        self._m_completed = reg.counter("serving.completed")
        self._m_failed = reg.counter("serving.failed")
        self._m_cancelled = reg.counter("serving.cancelled")
        self._m_deadline_exceeded = reg.counter("serving.deadline_exceeded")
        self._m_plans_computed = reg.counter("serving.plans_computed")
        self._m_executions = reg.counter("serving.executions")
        self._m_plan_hits = reg.counter("serving.plan_cache_hits")
        self._m_plan_coalesced = reg.counter("serving.plan_cache_coalesced")
        self._m_plan_misses = reg.counter("serving.plan_cache_misses")
        self._m_result_hits = reg.counter("serving.result_cache_hits")
        self._m_result_coalesced = reg.counter("serving.result_cache_coalesced")
        self._m_result_misses = reg.counter("serving.result_cache_misses")
        self._m_saved_usd = reg.counter("serving.saved_usd")
        self._g_queue_depth = reg.gauge("serving.queue_depth")
        self._g_active = reg.gauge("serving.active_queries")
        self._h_latency = reg.histogram("serving.latency_ms")
        self._cond = threading.Condition()
        self._queue: List[QueryTicket] = []
        self._tenants: Dict[str, Tenant] = {}
        self._accounts_lock = threading.Lock()
        self._active = 0
        self._closed = False
        self._query_counter = 0
        self._session_counter = 0
        self._peak_queue_depth = 0
        #: EMA of recent per-query latency, feeding Overloaded.retry_after_s.
        self._latency_ema_s = 0.0
        # Adaptive optimizer state. Every execution feeds observed
        # operator statistics into the live store, but decisions are made
        # against a *frozen* snapshot pinned per epoch: identical
        # questions within an epoch optimize identically, so the epoch's
        # fingerprint can key the plan/result caches without destroying
        # hit rates. ``refresh_optimizer`` rolls the epoch.
        self.stats_store = StatsStore(
            path=self.config.optimizer_stats_path, registry=self.registry
        )
        self._optimizer_lock = threading.Lock()
        self._optimizer_epoch = 0
        self._stats_snapshot = self.stats_store.snapshot()
        #: The epoch's Luna facade, shared by every worker; built on first
        #: use and dropped when the epoch rolls.
        self._epoch_luna: Optional[Luna] = None
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.config.max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Tenants and sessions
    # ------------------------------------------------------------------

    def _tenant_locked(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(
                name=name,
                quota=TenantQuota(
                    max_inflight=self.config.default_tenant_inflight
                ),
            )
            self._tenants[name] = tenant
        return tenant

    def tenant(self, name: str) -> Tenant:
        """The (auto-created) tenant record for ``name``."""
        with self._cond:
            return self._tenant_locked(name)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install an admission quota for one tenant."""
        with self._cond:
            self._tenant_locked(tenant).quota = quota

    def tenant_account(self, name: str) -> CostAccount:
        """The tenant's long-lived cost ledger (spend and savings)."""
        return self.tenant(name).account

    def open_session(
        self, tenant: str = "default", index: Optional[str] = None
    ) -> Session:
        """Start a conversation for a tenant (``index`` becomes its
        default target index)."""
        with self._cond:
            self._tenant_locked(tenant)
            self._session_counter += 1
            session_id = f"sess{self._session_counter:04d}"
        return Session(session_id=session_id, tenant=tenant, default_index=index)

    # ------------------------------------------------------------------
    # Submission / admission control
    # ------------------------------------------------------------------

    def submit(
        self,
        question: str,
        index: Optional[str] = None,
        *,
        tenant: Optional[str] = None,
        session: Optional[Session] = None,
        secondary: Sequence[str] = (),
        follow_up: bool = False,
        deadline_s: Optional[float] = None,
        request_id: str = "",
    ) -> QueryTicket:
        """Admit one query; returns a ticket whose future resolves to a
        :class:`ServedResult`.

        Raises :class:`Overloaded` when the queue or the tenant quota is
        full (load shedding — retry with backoff; ``retry_after_s`` on
        the exception is a machine-readable hint), :class:`ServiceClosed`
        after shutdown. ``follow_up=True`` plans against the session's
        previous answer's documents and bypasses both caches.
        ``deadline_s`` is an end-to-end wall-clock budget measured from
        admission: queue time, planning, and execution all count, and an
        expired query yields a typed partial result (or a typed
        :class:`~repro.lifecycle.DeadlineExceeded` if it never started).
        """
        if session is not None:
            tenant = session.tenant
            index = index or session.default_index
        tenant = tenant or "default"
        if index is None:
            raise ValueError("submit() needs an index (or a session with one)")
        if follow_up and session is None:
            raise ValueError("follow_up queries need a session")
        with self._cond:
            record = self._tenant_locked(tenant)
            record.submitted += 1
            self._m_submitted.inc()
            if self._closed:
                raise ServiceClosed("service is closed")
            if len(self._queue) >= self.config.max_queue_depth:
                record.rejected += 1
                self._m_rejected.inc()
                raise Overloaded(
                    f"queue full ({self.config.max_queue_depth} queries)",
                    reason="queue_full",
                    retry_after_s=self._retry_after_locked(),
                    queue_depth=len(self._queue),
                )
            if record.inflight >= record.quota.max_inflight:
                record.rejected += 1
                self._m_rejected.inc()
                raise Overloaded(
                    f"tenant {tenant!r} is at its quota "
                    f"({record.quota.max_inflight} inflight queries)",
                    reason="tenant_quota",
                    retry_after_s=self._retry_after_locked(),
                    tenant=tenant,
                )
            self._query_counter += 1
            ticket = QueryTicket(
                query_id=f"q{self._query_counter:06d}",
                question=question,
                index=index,
                tenant=tenant,
                session=session,
                secondary=tuple(secondary),
                follow_up=follow_up,
                deadline_s=deadline_s,
                request_id=request_id,
            )
            ticket._service = self
            record.inflight += 1
            self._queue.append(ticket)
            self._m_admitted.inc()
            depth = len(self._queue)
            if depth > self._peak_queue_depth:
                self._peak_queue_depth = depth
            self._g_queue_depth.set(depth)
            self._cond.notify()
        ticket._emit("admitted", queue_depth=depth)
        return ticket

    def query(
        self,
        question: str,
        index: Optional[str] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> ServedResult:
        """Submit and block for the served result (convenience wrapper)."""
        return self.submit(question, index, **kwargs).result(timeout=timeout)

    def _retry_after_locked(self) -> float:
        """Backoff hint for shed queries: how long until a slot plausibly
        frees up, from the backlog ahead of the caller and the recent
        per-query latency EMA (0.5s floor before any query completes).
        Caller holds ``self._cond``."""
        backlog = len(self._queue) + self._active
        per_query = self._latency_ema_s or 0.5
        return round(max(0.05, backlog * per_query / self.config.max_workers), 3)

    def _cancel_queued(self, ticket: QueryTicket, reason: str) -> None:
        """Complete a cancelled ticket that is still waiting in the
        admission queue: remove it, release its slot, fail it typed.
        Running tickets are untouched — they observe their scope at the
        next cooperative checkpoint."""
        removed = False
        with self._cond:
            if ticket in self._queue:
                self._queue.remove(ticket)
                self._tenants[ticket.tenant].inflight -= 1
                self._g_queue_depth.set(len(self._queue))
                removed = True
                self._cond.notify_all()
        if removed:
            self._m_cancelled.inc()
            ticket._emit("cancelled", reason=reason)
            ticket.future.set_exception(
                QueryCancelled(
                    f"query {ticket.query_id} cancelled before it started"
                    + (f": {reason}" if reason else ""),
                    query_id=ticket.query_id,
                    reason=reason,
                )
            )

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _luna(self) -> Luna:
        """The current optimizer epoch's Luna facade, shared by all workers.

        Its optimizer is pinned to the epoch's frozen statistics
        snapshot, while the live store keeps accumulating observations.
        A query in flight across an epoch roll keeps the facade it took.
        """
        with self._optimizer_lock:
            if self._epoch_luna is None:
                self._epoch_luna = Luna(
                    self.context,
                    policy=self.config.policy,
                    error_policy=self.config.error_policy,
                    stats_store=self.stats_store,
                    optimizer=CostBasedOptimizer(
                        self.config.policy,
                        stats=self._stats_snapshot,
                        registry=self.registry,
                    ),
                )
            return self._epoch_luna

    def optimizer_fingerprint(self) -> str:
        """The cache-key component carrying this epoch's optimizer
        decisions: policy name + frozen statistics fingerprint."""
        with self._optimizer_lock:
            return f"{self.config.policy}:{self._stats_snapshot.fingerprint()}"

    def refresh_optimizer(self) -> str:
        """Roll the optimizer epoch: re-snapshot the live statistics.

        Queries served after the refresh optimize against everything
        learned so far (and cache under the new fingerprint); queries
        in flight keep their epoch's snapshot. Returns the new
        fingerprint.
        """
        snapshot = self.stats_store.snapshot()
        with self._optimizer_lock:
            self._optimizer_epoch += 1
            self._stats_snapshot = snapshot
            self._epoch_luna = None
            return f"{self.config.policy}:{snapshot.fingerprint()}"

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    # Bounded wait: a missed notify (or a cancellation
                    # racing shutdown) can't wedge a worker forever.
                    self._cond.wait(timeout=0.5)
                if not self._queue:
                    return  # closed and drained
                ticket = self._queue.pop(0)
                self._active += 1
                self._g_queue_depth.set(len(self._queue))
                self._g_active.set(self._active)
            try:
                self._process(ticket)
            finally:
                with self._cond:
                    self._active -= 1
                    self._tenants[ticket.tenant].inflight -= 1
                    self._g_active.set(self._active)
                    self._cond.notify_all()

    def _process(self, ticket: QueryTicket) -> None:
        """Run one admitted query end to end; never raises."""
        started = time.perf_counter()
        scope = ticket.scope
        # Pre-start lifecycle check: queue time counts against the
        # budget, so a query whose deadline expired (or that was
        # cancelled) while queued fails typed without burning a worker.
        try:
            scope.check()
        except QueryCancelled as exc:
            self._m_cancelled.inc()
            ticket._emit("cancelled", reason=scope.cancel_reason)
            ticket.future.set_exception(exc)
            return
        except DeadlineExceeded as exc:
            self._fail_deadline(ticket, exc)
            return
        tracer = self.tracer
        serve_span = tracer.start_span(
            "serve:query",
            kind="serve",
            parent=None,
            tenant=ticket.tenant,
            session=ticket.session_id or "",
            question=ticket.question,
            index=ticket.index,
            query_id=ticket.query_id,
            request_id=ticket.request_id,
        )
        try:
            with attach_scope(scope), tracer.attach(serve_span):
                served = self._serve(ticket, started)
        except BaseException as exc:  # noqa: BLE001 - fail the ticket, not the worker
            tracer.finish(
                serve_span, status="error", error=f"{type(exc).__name__}: {exc}"
            )
            if isinstance(exc, QueryCancelled):
                self._m_cancelled.inc()
                ticket._emit("cancelled", reason=scope.cancel_reason)
                ticket.future.set_exception(exc)
                return
            if isinstance(exc, DeadlineExceeded):
                self._fail_deadline(ticket, exc)
                return
            with self._accounts_lock:
                self.tenant(ticket.tenant).failed += 1
            self._m_failed.inc()
            ticket._emit("failed", error=f"{type(exc).__name__}: {exc}")
            ticket.future.set_exception(exc)
            return
        # A deadline that expired mid-execution under a non-fatal error
        # policy degrades operators instead of raising; surface that as a
        # typed-partial completion so callers and metrics can tell.
        if any("DeadlineExceeded" in err for err in served.result.trace.errors):
            served.deadline_exceeded = True
            self._m_deadline_exceeded.inc()
            ticket._emit(
                "deadline_degraded",
                budget_s=scope.deadline.budget_s if scope.deadline else 0.0,
            )
        serve_span.set_attributes(
            plan_cache=served.plan_cache,
            result_cache=served.result_cache,
            cost_usd=served.cost_usd,
            saved_usd=served.saved_usd,
        )
        tracer.finish(serve_span)
        served.serve_trace_id = serve_span.trace_id
        with self._accounts_lock:
            self.tenant(ticket.tenant).completed += 1
        self._m_completed.inc()
        self._h_latency.observe(served.latency_s * 1000.0)
        with self._cond:
            self._latency_ema_s = (
                served.latency_s
                if self._latency_ema_s == 0.0
                else 0.8 * self._latency_ema_s + 0.2 * served.latency_s
            )
        if ticket.session is not None:
            preview = repr(served.answer)
            ticket.session.record(
                SessionEntry(
                    question=ticket.question,
                    index=ticket.index,
                    answer_preview=preview[:64] + ("..." if len(preview) > 64 else ""),
                    plan_cache=served.plan_cache,
                    result_cache=served.result_cache,
                    cost_usd=served.cost_usd,
                    saved_usd=served.saved_usd,
                    trace_id=served.serve_trace_id,
                    supporting_documents=served.result.trace.supporting_documents(),
                )
            )
        ticket._emit("completed", answer=repr(served.answer)[:64])
        ticket.future.set_result(served)

    def _fail_deadline(self, ticket: QueryTicket, exc: DeadlineExceeded) -> None:
        """Terminal handling for a query whose budget ran out before any
        partial answer could be assembled."""
        if exc.retry_after_s <= 0.0:
            with self._cond:
                exc.retry_after_s = self._retry_after_locked()
        self._m_deadline_exceeded.inc()
        with self._accounts_lock:
            self.tenant(ticket.tenant).failed += 1
        self._m_failed.inc()
        ticket._emit(
            "failed",
            error=f"DeadlineExceeded: {exc}",
            retry_after_s=exc.retry_after_s,
        )
        ticket.future.set_exception(exc)

    # ------------------------------------------------------------------

    def _serve(self, ticket: QueryTicket, started: float) -> ServedResult:
        luna = self._luna()
        catalog = self.context.catalog
        index_obj = catalog.get(ticket.index)
        secondary_objs = [catalog.get(name) for name in ticket.secondary]
        charges = {"cost": 0.0, "saved": 0.0}

        if ticket.follow_up:
            result = self._serve_follow_up(luna, ticket, index_obj, charges)
            plan_outcome = result_outcome = "bypass"
        else:
            plan_state = {"outcome": None}

            def compute_result() -> LunaResult:
                entry = self._obtain_plan(
                    luna, ticket, index_obj, secondary_objs, plan_state, charges
                )
                ticket._emit("executing")
                self._m_executions.inc()
                result = luna.execute_plan(
                    ticket.question, ticket.index, entry.hydrate()
                )
                self._charge_execution(ticket.tenant, result, charges)
                return result

            rkey = result_cache_key(
                ticket.question,
                index_obj,
                secondary_objs,
                optimizer_fingerprint=self.optimizer_fingerprint(),
            )
            # reelect_on: if the single-flight leader's query is
            # cancelled, surviving followers re-elect a new leader
            # instead of inheriting a cancellation that isn't theirs.
            result, result_outcome = self.result_cache.get_or_compute(
                rkey, compute_result, reelect_on=(QueryCancelled,)
            )
            if result_outcome == HIT:
                self._m_result_hits.inc()
                self._credit_result_reuse(ticket, result, charges)
            elif result_outcome == COALESCED:
                self._m_result_coalesced.inc()
                self._credit_result_reuse(ticket, result, charges)
            else:
                self._m_result_misses.inc()
            # On result reuse the plan phase never ran: the cached answer
            # implicitly reused the cached plan.
            plan_outcome = plan_state["outcome"] or result_outcome

        latency = time.perf_counter() - started
        return ServedResult(
            query_id=ticket.query_id,
            question=ticket.question,
            index=ticket.index,
            tenant=ticket.tenant,
            session_id=ticket.session_id,
            result=result,
            plan_cache=plan_outcome,
            result_cache=result_outcome,
            cost_usd=charges["cost"],
            saved_usd=charges["saved"],
            latency_s=latency,
            request_id=ticket.request_id,
        )

    def _obtain_plan(
        self,
        luna: Luna,
        ticket: QueryTicket,
        index_obj: Any,
        secondary_objs: List[Any],
        plan_state: Dict[str, Any],
        charges: Dict[str, float],
    ) -> _PlanEntry:
        """Plan-cache lookup with single-flight planning on a miss."""
        ticket._emit("planning")

        def plan_checked() -> LogicalPlan:
            plan = luna.planner.plan(
                ticket.question, index_obj, secondary=secondary_objs
            )
            # The plan cache only admits plans that pass the static
            # checks: a planner bypassed or stubbed out upstream cannot
            # poison the cache with a plan that explodes at execution.
            known = {index_obj.name: index_obj.schema}
            known.update({s.name: s.schema for s in secondary_objs})
            ensure_valid_plan(plan, schema=index_obj.schema, known_indexes=known)
            return plan

        def compute_plan() -> _PlanEntry:
            self._m_plans_computed.inc()
            tracer = self.tracer
            # Planning runs in its own trace: with single-flight, one
            # planner run serves many queries, so its spans can't belong
            # to any single query's trace. The serve span links to it.
            plan_span = tracer.start_span(
                "plan:serve",
                kind="plan",
                parent=None,
                question=ticket.question,
                index=ticket.index,
            )
            try:
                with tracer.attach(plan_span):
                    plan = plan_checked()
            except BaseException as exc:
                tracer.finish(
                    plan_span, status="error", error=f"{type(exc).__name__}: {exc}"
                )
                raise
            tracer.finish(plan_span)
            plan_cost = CostAccount.from_spans(
                tracer.trace_spans(plan_span.trace_id)
            )
            return _PlanEntry(
                plan_json=plan.to_json(),
                cost_usd=plan_cost.cost_usd,
                llm_calls=plan_cost.llm_calls,
                plan_trace_id=plan_span.trace_id,
            )

        pkey = plan_cache_key(
            ticket.question,
            index_obj,
            secondary_objs,
            optimizer_fingerprint=self.optimizer_fingerprint(),
        )
        entry, outcome = self.plan_cache.get_or_compute(
            pkey, compute_plan, reelect_on=(QueryCancelled,)
        )
        plan_state["outcome"] = outcome
        if outcome == MISS:
            self._m_plan_misses.inc()
            charges["cost"] += entry.cost_usd
            with self._accounts_lock:
                self.tenant(ticket.tenant).account.operator(
                    "(planning)"
                ).cost_usd += entry.cost_usd
        else:
            if outcome == HIT:
                self._m_plan_hits.inc()
            else:
                self._m_plan_coalesced.inc()
            ticket._emit("plan_cache_hit", outcome=outcome)
            if entry.cost_usd > 0:
                charges["saved"] += entry.cost_usd
                self._m_saved_usd.inc(entry.cost_usd)
                with self._accounts_lock:
                    self.tenant(ticket.tenant).account.record_saving(
                        "(plan-cache)", entry.cost_usd
                    )
        return entry

    def _charge_execution(
        self, tenant: str, result: LunaResult, charges: Dict[str, float]
    ) -> None:
        """Book an executed query's cost account to its tenant."""
        account = result.trace.cost
        charges["cost"] += account.cost_usd
        with self._accounts_lock:
            self.tenant(tenant).account.merge(account)

    def _credit_result_reuse(
        self, ticket: QueryTicket, result: LunaResult, charges: Dict[str, float]
    ) -> None:
        """Book a result-cache hit as dollars saved, not spent."""
        ticket._emit("result_cache_hit")
        saved = result.trace.cost.cost_usd
        if saved > 0:
            charges["saved"] += saved
            self._m_saved_usd.inc(saved)
            with self._accounts_lock:
                self.tenant(ticket.tenant).account.record_saving(
                    "(result-cache)", saved
                )

    def _serve_follow_up(
        self,
        luna: Luna,
        ticket: QueryTicket,
        index_obj: Any,
        charges: Dict[str, float],
    ) -> LunaResult:
        """Plan against the session's previous answer's documents.

        Follow-ups are conversation-specific (their source is the prior
        answer's provenance), so they bypass both caches.
        """
        assert ticket.session is not None
        doc_ids = ticket.session.last_supporting_documents()
        if not doc_ids:
            raise ServingError(
                "follow-up needs a previous answer with document provenance"
            )
        ticket._emit("planning")
        self._m_plans_computed.inc()
        plan = luna.planner.plan(ticket.question, index_obj)
        for node in plan.nodes:
            if node.operation == "QueryIndex":
                node.operation = "FromDocuments"
                node.params = {"index": ticket.index, "doc_ids": list(doc_ids)}
                node.description = (
                    f"Start from the {len(doc_ids)} records of the previous answer"
                )
        plan.validate()
        ticket._emit("executing")
        self._m_executions.inc()
        result = luna.execute_plan(ticket.question, ticket.index, plan)
        self._charge_execution(ticket.tenant, result, charges)
        return result

    # ------------------------------------------------------------------
    # Lifecycle and status
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted query has finished. Returns False
        on timeout (queries keep running)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
        return True

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down. ``drain=True`` completes every admitted query
        first; ``drain=False`` fails queued-but-unstarted queries with
        :class:`ServiceClosed`. Either way no ticket's future is lost."""
        cancelled: List[QueryTicket] = []
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    cancelled = self._queue[:]
                    self._queue.clear()
                    for ticket in cancelled:
                        self._tenants[ticket.tenant].inflight -= 1
                        self._m_cancelled.inc()
                    self._g_queue_depth.set(0)
                self._cond.notify_all()
        for ticket in cancelled:
            ticket.scope.cancel("service closed")
            ticket._emit("cancelled")
            ticket.future.set_exception(
                ServiceClosed("service closed before this query started")
            )
        for worker in self._workers:
            worker.join(timeout=timeout)
        if self.config.optimizer_stats_path is not None:
            # Persist learned operator statistics across restarts.
            self.stats_store.save()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Point-in-time service status: traffic, caches, tenants."""
        with self._cond:
            queue_depth = len(self._queue)
            active = self._active
            peak = self._peak_queue_depth
            tenants = {name: t.as_dict() for name, t in sorted(self._tenants.items())}
        payload: Dict[str, Any] = {
            "submitted": int(self._m_submitted.value()),
            "admitted": int(self._m_admitted.value()),
            "rejected": int(self._m_rejected.value()),
            "completed": int(self._m_completed.value()),
            "failed": int(self._m_failed.value()),
            "cancelled": int(self._m_cancelled.value()),
            "deadline_exceeded": int(self._m_deadline_exceeded.value()),
            "queue_depth": queue_depth,
            "peak_queue_depth": peak,
            "active_queries": active,
            "plans_computed": int(self._m_plans_computed.value()),
            "executions": int(self._m_executions.value()),
            "plan_cache": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
            "saved_usd": round(self._m_saved_usd.value(), 6),
            "tenants": tenants,
            "optimizer": {
                "policy": self.config.policy,
                "epoch": self._optimizer_epoch,
                "fingerprint": self.optimizer_fingerprint(),
                "stats_entries": len(self.stats_store),
            },
        }
        cluster = getattr(self.context, "cluster", None)
        if cluster is not None:
            payload["cluster"] = cluster.stats()
        return payload
