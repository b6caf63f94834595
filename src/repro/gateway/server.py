"""The HTTP/JSON gateway: a real network front end for `QueryService`.

:class:`Gateway` binds a stdlib :class:`~http.server.ThreadingHTTPServer`
(one thread per connection, no third-party framework) in front of a
:class:`~repro.serving.QueryService` and exposes the serving layer's
whole surface over HTTP:

========================== ==========================================
``POST /v1/query``          submit + wait (``?stream=1`` switches to
                            chunked SSE delivery of the ticket's
                            progress events, then the terminal result)
``GET /v1/query/<id>``      status: events so far, result when done
``DELETE /v1/query/<id>``   cooperative cancellation
``POST /v1/session``        open a conversation
``GET /v1/session/<id>``    conversation transcript
``POST /v1/ingest``         trigger a corpus build into an index
``GET /ops/health``         liveness (503 while draining)
``GET /ops/metrics``        MetricsRegistry dump (``?prefix=``)
``GET /ops/traces/<id>``    a served query's trace JSON (by query id
                            *or* request id)
``GET /ops/costs``          per-tenant cost ledgers
``GET /ops/stats``          service + gateway + scheduler counters
``GET /ops/accesslog``      recent structured access-log records
========================== ==========================================

Typed serving failures map onto typed HTTP statuses — the overload
contract the load benchmark proves under burst:

* :class:`~repro.serving.Overloaded` → **429** with ``Retry-After``
  (from the service's load-aware ``retry_after_s`` hint);
* :class:`~repro.lifecycle.DeadlineExceeded` → **504** with
  ``Retry-After``;
* :class:`~repro.lifecycle.QueryCancelled` → **499** (client closed /
  cancelled);
* :class:`~repro.serving.ServiceClosed` → **503**.

Shutdown is graceful by default: :meth:`Gateway.close` stops accepting
new connections, then reuses ``QueryService.close(drain=True)`` so every
admitted query completes (``drain=False`` is the hard-cancel path). The
CLI wires SIGTERM/SIGINT to exactly this.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from ..lifecycle import DeadlineExceeded, QueryCancelled
from ..observability.export import trace_to_dict
from ..serving import (
    Overloaded,
    QueryService,
    QueryTicket,
    ServedResult,
    ServiceClosed,
    ServingError,
    Session,
)
from .middleware import (
    AccessLogMiddleware,
    BearerAuthMiddleware,
    Middleware,
    RateLimitMiddleware,
    RequestContext,
    RequestIdMiddleware,
    Response,
)

__all__ = ["Gateway", "GatewayConfig", "error_response", "format_sse"]

#: Datasets the ingest-trigger route can build, with their extraction
#: schemas (the same fields the CLI and benchmarks use).
INGEST_DATASETS: Dict[str, Dict[str, str]] = {
    "ntsb": {
        "state": "string",
        "incident_year": "int",
        "weather_related": "bool",
        "injuries_fatal": "int",
        "cause": "string",
    },
    "earnings": {
        "company": "string",
        "sector": "string",
        "revenue_musd": "float",
        "revenue_growth_pct": "float",
        "ceo_changed": "bool",
    },
}

#: How long a synchronous POST /v1/query waits before 504.
SYNC_TIMEOUT_S = 300.0
#: Request bodies past this size are refused with 413.
MAX_BODY_BYTES = 1 << 20
#: Ticket retention for status and trace lookups; the oldest evict.
MAX_TICKETS = 2048


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for a :class:`Gateway`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``Gateway.port``).
    port: int = 0
    #: Bearer-token credential table (token -> tenant); None disables
    #: auth and tenants come from the request body / X-Tenant header.
    tokens: Optional[Dict[str, str]] = None
    #: Per-tenant request rate (tokens/second); 0 disables edge rate
    #: limiting. Distinct from TenantQuota concurrency admission.
    rate_per_s: float = 0.0
    rate_burst: Optional[float] = None
    #: Event-poll granularity and keep-alive cadence for SSE streams.
    stream_poll_s: float = 0.1
    stream_heartbeat_s: float = 5.0
    #: Optional sink for rendered access-log lines (e.g. print).
    log_sink: Optional[Callable[[str], None]] = None


def _dumps(payload: Any) -> bytes:
    """Canonical JSON bytes (answers may hold exotic types -> repr)."""
    return json.dumps(payload, default=repr).encode("utf-8")


def format_sse(event: str, payload: Dict[str, Any]) -> bytes:
    """One server-sent-events frame: ``event:`` + single-line ``data:``."""
    return b"event: %s\ndata: %s\n\n" % (
        event.encode("utf-8"),
        _dumps(payload),
    )


def _retry_after_headers(retry_after_s: float) -> Dict[str, str]:
    """HTTP Retry-After wants integer seconds and the gate wants it
    nonzero; the machine-precision float rides in the body."""
    return {"Retry-After": str(max(1, int(retry_after_s + 0.999)))}


def error_response(exc: BaseException) -> Response:
    """Map a typed failure onto a typed HTTP response."""
    if isinstance(exc, Overloaded):
        return Response(
            status=429,
            payload={
                "error": "overloaded",
                "reason": exc.reason,
                "message": str(exc),
                "retry_after_s": exc.retry_after_s,
            },
            headers=_retry_after_headers(exc.retry_after_s),
        )
    if isinstance(exc, DeadlineExceeded):
        return Response(
            status=504,
            payload={
                "error": "deadline_exceeded",
                "message": str(exc),
                "budget_s": exc.budget_s,
                "elapsed_s": round(exc.elapsed_s, 3),
                "retry_after_s": exc.retry_after_s,
            },
            headers=_retry_after_headers(exc.retry_after_s),
        )
    if isinstance(exc, QueryCancelled):
        return Response(
            status=499,
            payload={
                "error": "cancelled",
                "message": str(exc),
                "query_id": exc.query_id,
                "reason": exc.reason,
            },
        )
    if isinstance(exc, ServiceClosed):
        return Response(
            status=503, payload={"error": "service_closed", "message": str(exc)}
        )
    if isinstance(exc, TimeoutError):
        # concurrent.futures.TimeoutError: the gateway's own sync-wait
        # bound, not the query's deadline — the query is still running.
        return Response(
            status=504,
            payload={
                "error": "sync_timeout",
                "message": "query still running; poll GET /v1/query/<id>",
            },
        )
    if isinstance(exc, KeyError):
        return Response(
            status=404,
            payload={"error": "not_found", "message": str(exc.args[0]) if exc.args else str(exc)},
        )
    if isinstance(exc, (ValueError, ServingError)):
        return Response(
            status=400, payload={"error": "bad_request", "message": str(exc)}
        )
    return Response(
        status=500,
        payload={"error": type(exc).__name__, "message": str(exc)},
    )


def _served_payload(served: ServedResult) -> Dict[str, Any]:
    """The JSON body for one completed query."""
    return {
        "query_id": served.query_id,
        "request_id": served.request_id,
        "question": served.question,
        "index": served.index,
        "tenant": served.tenant,
        "session": served.session_id,
        "answer": served.answer,
        "partial": served.partial,
        "deadline_exceeded": served.deadline_exceeded,
        "plan_cache": served.plan_cache,
        "result_cache": served.result_cache,
        "cost_usd": round(served.cost_usd, 6),
        "saved_usd": round(served.saved_usd, 6),
        "latency_ms": round(served.latency_s * 1000.0, 1),
        "trace_id": served.serve_trace_id,
    }


class Gateway:
    """The HTTP front end. Owns the listening socket, the middleware
    stack, and the lifecycle of the service behind it.

    Usage::

        service = QueryService(ctx, ServiceConfig(max_workers=8))
        gateway = Gateway(service, GatewayConfig(port=0))
        gateway.start()
        print(f"listening on http://{gateway.host}:{gateway.port}")
        ...
        gateway.close()        # stop accepting, then drain the service
    """

    def __init__(
        self,
        service: QueryService,
        config: Optional[GatewayConfig] = None,
    ):
        self.service = service
        self.config = config or GatewayConfig()
        self.registry = service.registry
        self.access_log = AccessLogMiddleware(sink=self.config.log_sink)
        self.rate_limiter: Optional[RateLimitMiddleware] = None
        #: Middleware order is part of the contract (docs/GATEWAY.md):
        #: request-id first (everything downstream logs it), then auth
        #: (tenant identity), then rate limiting (per-tenant buckets need
        #: the tenant), access log last in `before` order so its `after`
        #: observes the final response of every request, shed or served.
        self.middlewares: List[Middleware] = [RequestIdMiddleware()]
        if self.config.tokens:
            self.middlewares.append(BearerAuthMiddleware(self.config.tokens))
        if self.config.rate_per_s > 0:
            self.rate_limiter = RateLimitMiddleware(
                self.config.rate_per_s, self.config.rate_burst
            )
            self.middlewares.append(self.rate_limiter)
        self.middlewares.append(self.access_log)
        reg = self.registry
        self._m_requests = reg.counter("gateway.requests")
        self._m_responses_2xx = reg.counter("gateway.responses_2xx")
        self._m_responses_4xx = reg.counter("gateway.responses_4xx")
        self._m_responses_5xx = reg.counter("gateway.responses_5xx")
        self._m_shed = reg.counter("gateway.shed_429")
        self._m_deadline = reg.counter("gateway.deadline_504")
        self._m_streams = reg.counter("gateway.streams")
        self._m_stream_events = reg.counter("gateway.stream_events")
        self._m_disconnects = reg.counter("gateway.client_disconnects")
        self._g_active_streams = reg.gauge("gateway.active_streams")
        self._h_latency = reg.histogram("gateway.request_ms")
        self._lock = threading.Lock()
        self._tickets: "OrderedDict[str, QueryTicket]" = OrderedDict()
        self._request_ids: "OrderedDict[str, str]" = OrderedDict()
        self._sessions: Dict[str, Session] = {}
        self._ingest_lock = threading.Lock()
        self._draining = False
        self._started = time.monotonic()
        self._shutdown_requested = threading.Event()
        self._server: Optional[_GatewayServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is not None:
            return int(self._server.server_address[1])
        return self.config.port

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> "Gateway":
        """Bind the socket and serve in a background thread."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = _GatewayServer(
            (self.config.host, self.config.port), _GatewayHandler, self
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-gateway-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting connections, then shut the service down.

        ``drain=True`` (the SIGTERM path) lets every admitted query
        finish; ``drain=False`` fails queued-but-unstarted queries typed.
        Idempotent.
        """
        self._draining = True
        server, thread = self._server, self._thread
        self._server, self._thread = None, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=timeout)
        self.service.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful stop (main thread only).

        The handler only sets a flag — :meth:`wait_for_shutdown` returns
        and the caller runs :meth:`close` outside signal context.
        """
        import signal

        def _request_stop(signum: int, frame: Any) -> None:
            self._draining = True
            self._shutdown_requested.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until a signal (or :meth:`request_shutdown`) asks the
        gateway to stop. Returns False on timeout."""
        return self._shutdown_requested.wait(timeout=timeout)

    def request_shutdown(self) -> None:
        """Programmatic equivalent of SIGTERM."""
        self._draining = True
        self._shutdown_requested.set()

    # ------------------------------------------------------------------
    # Ticket / session registries
    # ------------------------------------------------------------------

    def register_ticket(self, ticket: QueryTicket) -> None:
        with self._lock:
            self._tickets[ticket.query_id] = ticket
            if ticket.request_id:
                self._request_ids[ticket.request_id] = ticket.query_id
            while len(self._tickets) > MAX_TICKETS:
                old_qid, old = self._tickets.popitem(last=False)
                if old.request_id:
                    self._request_ids.pop(old.request_id, None)
            while len(self._request_ids) > MAX_TICKETS:
                self._request_ids.popitem(last=False)

    def ticket(self, ref: str) -> QueryTicket:
        """Look a ticket up by query id or request id (KeyError -> 404)."""
        with self._lock:
            if ref in self._tickets:
                return self._tickets[ref]
            qid = self._request_ids.get(ref)
            if qid is not None and qid in self._tickets:
                return self._tickets[qid]
        raise KeyError(f"unknown query or request id {ref!r}")

    def register_session(self, session: Session) -> None:
        with self._lock:
            self._sessions[session.session_id] = session

    def session(self, session_id: str) -> Session:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(f"unknown session {session_id!r}") from None

    def stats(self) -> Dict[str, Any]:
        """Gateway-side counters for the ops surface."""
        with self._lock:
            tickets = len(self._tickets)
            sessions = len(self._sessions)
        return {
            "requests": int(self._m_requests.value()),
            "responses_2xx": int(self._m_responses_2xx.value()),
            "responses_4xx": int(self._m_responses_4xx.value()),
            "responses_5xx": int(self._m_responses_5xx.value()),
            "shed_429": int(self._m_shed.value()),
            "deadline_504": int(self._m_deadline.value()),
            "streams": int(self._m_streams.value()),
            "stream_events": int(self._m_stream_events.value()),
            "client_disconnects": int(self._m_disconnects.value()),
            "rate_limited": self.rate_limiter.shed if self.rate_limiter else 0,
            "tickets_retained": tickets,
            "sessions": sessions,
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def handle(self, ctx: RequestContext) -> Response:
        """Middleware chain + routing for one request. Never raises."""
        self._m_requests.inc()
        response: Optional[Response] = None
        ran: List[Middleware] = []
        for middleware in self.middlewares:
            ran.append(middleware)
            response = middleware.before(ctx)
            if response is not None:
                break
        if response is None:
            try:
                response = self._route(ctx)
            except BaseException as exc:  # noqa: BLE001 - typed mapping below
                response = error_response(exc)
        for middleware in reversed(ran):
            middleware.after(ctx, response)
        if response.status == 429:
            self._m_shed.inc()
        elif response.status == 504:
            self._m_deadline.inc()
        if 200 <= response.status < 300:
            self._m_responses_2xx.inc()
        elif 400 <= response.status < 500 or response.status == 499:
            self._m_responses_4xx.inc()
        elif response.status >= 500:
            self._m_responses_5xx.inc()
        self._h_latency.observe((time.monotonic() - ctx.started) * 1000.0)
        return response

    def _route(self, ctx: RequestContext) -> Response:
        method, path = ctx.method, ctx.path
        if path == "/v1/query" and method == "POST":
            return self._route_query(ctx)
        if path.startswith("/v1/query/"):
            ref = unquote(path[len("/v1/query/") :])
            if method == "GET":
                return self._route_query_status(ctx, ref)
            if method == "DELETE":
                return self._route_query_cancel(ctx, ref)
        if path == "/v1/session" and method == "POST":
            return self._route_session_open(ctx)
        if path.startswith("/v1/session/") and method == "GET":
            return self._route_session_get(ctx, unquote(path[len("/v1/session/") :]))
        if path == "/v1/ingest" and method == "POST":
            return self._route_ingest(ctx)
        if path == "/ops/health" and method == "GET":
            return self._route_health(ctx)
        if path == "/ops/metrics" and method == "GET":
            return Response(
                payload={"metrics": self.registry.snapshot(ctx.params.get("prefix", ""))}
            )
        if path.startswith("/ops/traces/") and method == "GET":
            return self._route_trace(ctx, unquote(path[len("/ops/traces/") :]))
        if path == "/ops/costs" and method == "GET":
            return self._route_costs(ctx)
        if path == "/ops/stats" and method == "GET":
            return self._route_stats(ctx)
        if path == "/ops/accesslog" and method == "GET":
            records = self.access_log.records()
            try:
                limit = int(ctx.params.get("n", "100"))
            except ValueError:
                raise ValueError("n must be an integer") from None
            return Response(
                payload={"records": [r.as_dict() for r in records[-limit:]]}
            )
        return Response(
            status=404,
            payload={"error": "not_found", "message": f"no route {method} {path}"},
        )

    # -- queries -------------------------------------------------------

    def _resolve_tenant(self, ctx: RequestContext, body: Dict[str, Any]) -> str:
        """Auth wins; otherwise the body, then the X-Tenant header."""
        if ctx.tenant:
            return ctx.tenant
        tenant = body.get("tenant") or ctx.headers.get("x-tenant") or "default"
        ctx.tenant = str(tenant)
        return ctx.tenant

    def _route_query(self, ctx: RequestContext) -> Response:
        body = ctx.json()
        question = body.get("question")
        if not question or not isinstance(question, str):
            raise ValueError("body must carry a 'question' string")
        session: Optional[Session] = None
        session_id = body.get("session")
        if session_id:
            session = self.session(str(session_id))
            # An authenticated tenant cannot borrow another tenant's
            # session; without auth the session defines the tenant (same
            # convention as QueryService.submit).
            if ctx.tenant and session.tenant != ctx.tenant:
                return Response(
                    status=403,
                    payload={
                        "error": "forbidden",
                        "message": f"session {session.session_id!r} belongs "
                        f"to tenant {session.tenant!r}",
                    },
                )
            ctx.tenant = session.tenant
        tenant = self._resolve_tenant(ctx, body)
        deadline_s = body.get("deadline_s")
        ticket = self.service.submit(
            question,
            index=body.get("index"),
            tenant=tenant,
            session=session,
            secondary=tuple(body.get("secondary") or ()),
            follow_up=bool(body.get("follow_up", False)),
            deadline_s=float(deadline_s) if deadline_s is not None else None,
            request_id=ctx.request_id,
        )
        ctx.query_id = ticket.query_id
        self.register_ticket(ticket)
        if ctx.params.get("stream", "") in ("1", "true", "yes"):
            self._m_streams.inc()
            return Response(
                status=200,
                headers={
                    "Content-Type": "text/event-stream",
                    "Cache-Control": "no-cache",
                },
                stream=self._sse_frames(ticket),
            )
        served = ticket.result(timeout=SYNC_TIMEOUT_S)
        return Response(payload=_served_payload(served))

    def _sse_frames(self, ticket: QueryTicket) -> Iterator[bytes]:
        """The SSE frame sequence for one query: an ``open`` frame, each
        progress event as its own frame, keep-alive comments over quiet
        windows, then exactly one terminal ``result``/``error`` frame."""
        config = self.config
        yield format_sse(
            "open",
            {"query_id": ticket.query_id, "request_id": ticket.request_id},
        )
        last_beat = time.monotonic()
        events = ticket.stream(timeout=config.stream_poll_s, heartbeat=True)
        try:
            for event in events:
                if event is None:
                    now = time.monotonic()
                    if now - last_beat >= config.stream_heartbeat_s:
                        last_beat = now
                        # An SSE comment: ignored by clients, but the
                        # write is what surfaces a dead connection.
                        yield b": keep-alive\n\n"
                    continue
                self._m_stream_events.inc()
                yield format_sse(
                    event.stage,
                    {
                        "stage": event.stage,
                        "query_id": ticket.query_id,
                        "detail": event.detail,
                    },
                )
        finally:
            events.close()
        try:
            served = ticket.result(timeout=SYNC_TIMEOUT_S)
        except BaseException as exc:  # noqa: BLE001 - typed terminal frame
            mapped = error_response(exc)
            payload = dict(mapped.payload or {})
            payload["status"] = mapped.status
            yield format_sse("error", payload)
            return
        yield format_sse("result", _served_payload(served))

    def _route_query_status(self, ctx: RequestContext, ref: str) -> Response:
        ticket = self.ticket(ref)
        ctx.query_id = ticket.query_id
        first_at = None
        events: List[Dict[str, Any]] = []
        for event in ticket.events():
            if first_at is None:
                first_at = event.at
            events.append(
                {
                    "stage": event.stage,
                    "t_s": round(event.at - first_at, 3),
                    "detail": event.detail,
                }
            )
        payload: Dict[str, Any] = {
            "query_id": ticket.query_id,
            "request_id": ticket.request_id,
            "tenant": ticket.tenant,
            "question": ticket.question,
            "index": ticket.index,
            "done": ticket.done(),
            "cancel_requested": ticket.cancelled,
            "events": events,
        }
        if ticket.done():
            try:
                payload["result"] = _served_payload(
                    ticket.result(timeout=SYNC_TIMEOUT_S)
                )
            except BaseException as exc:  # noqa: BLE001 - report, not raise
                mapped = error_response(exc)
                failure = dict(mapped.payload or {})
                failure["status"] = mapped.status
                payload["failure"] = failure
        return Response(payload=payload)

    def _route_query_cancel(self, ctx: RequestContext, ref: str) -> Response:
        ticket = self.ticket(ref)
        ctx.query_id = ticket.query_id
        first = ticket.cancel("cancelled over HTTP")
        return Response(
            payload={
                "query_id": ticket.query_id,
                "cancel_requested": True,
                "first_request": first,
                "done": ticket.done(),
            }
        )

    # -- sessions ------------------------------------------------------

    def _route_session_open(self, ctx: RequestContext) -> Response:
        body = ctx.json()
        tenant = self._resolve_tenant(ctx, body)
        session = self.service.open_session(
            tenant=tenant, index=body.get("index")
        )
        self.register_session(session)
        return Response(
            status=201,
            payload={
                "session": session.session_id,
                "tenant": session.tenant,
                "index": session.default_index,
            },
        )

    def _route_session_get(self, ctx: RequestContext, session_id: str) -> Response:
        session = self.session(session_id)
        return Response(
            payload={
                "session": session.session_id,
                "tenant": session.tenant,
                "index": session.default_index,
                "entries": [
                    {
                        "question": e.question,
                        "index": e.index,
                        "answer_preview": e.answer_preview,
                        "plan_cache": e.plan_cache,
                        "result_cache": e.result_cache,
                        "cost_usd": round(e.cost_usd, 6),
                        "saved_usd": round(e.saved_usd, 6),
                        "trace_id": e.trace_id,
                    }
                    for e in session.entries()
                ],
            }
        )

    # -- ingest --------------------------------------------------------

    def _route_ingest(self, ctx: RequestContext) -> Response:
        from ..datagen import generate_earnings_corpus, generate_ntsb_corpus
        from ..partitioner import ArynPartitioner

        body = ctx.json()
        dataset = str(body.get("dataset", "ntsb"))
        if dataset not in INGEST_DATASETS:
            raise ValueError(
                f"unknown dataset {dataset!r} (have {sorted(INGEST_DATASETS)})"
            )
        index = str(body.get("index") or dataset)
        docs = int(body.get("docs", 8))
        seed = int(body.get("seed", 0))
        if not 1 <= docs <= 10_000:
            raise ValueError("docs must be between 1 and 10000")
        generate = (
            generate_ntsb_corpus if dataset == "ntsb" else generate_earnings_corpus
        )
        context = self.service.context
        # One ingest at a time: ETL shares the context's executor and the
        # catalog bump must be atomic with respect to other ingests.
        with self._ingest_lock:
            _, raws = generate(docs, seed=seed)
            written = (
                context.read.raw(raws)
                .partition(ArynPartitioner(seed=seed))
                .extract_properties(INGEST_DATASETS[dataset], model="sim-large")
                .write.index(index)
            )
        return Response(
            status=201,
            payload={
                "index": index,
                "dataset": dataset,
                "documents_ingested": written,
                "index_version": context.catalog.get(index).version,
                "catalog_version": context.catalog.version(),
            },
        )

    # -- ops -----------------------------------------------------------

    def _route_health(self, ctx: RequestContext) -> Response:
        service_stats = self.service.stats()
        status = "draining" if self._draining else "ok"
        return Response(
            status=503 if self._draining else 200,
            payload={
                "status": status,
                "queue_depth": service_stats["queue_depth"],
                "active_queries": service_stats["active_queries"],
                "workers": self.service.config.max_workers,
                "uptime_s": round(time.monotonic() - self._started, 3),
            },
        )

    def _route_trace(self, ctx: RequestContext, ref: str) -> Response:
        ticket = self.ticket(ref)
        ctx.query_id = ticket.query_id
        if not ticket.done():
            return Response(
                status=409,
                payload={
                    "error": "not_finished",
                    "message": f"query {ticket.query_id} is still running",
                },
            )
        try:
            served = ticket.result(timeout=SYNC_TIMEOUT_S)
        except BaseException as exc:  # noqa: BLE001 - failed queries: no trace doc
            mapped = error_response(exc)
            failure = dict(mapped.payload or {})
            failure["message"] = (
                f"query {ticket.query_id} failed; no trace document "
                f"({failure.get('error', 'error')})"
            )
            return Response(status=404, payload=failure)
        spans = self.service.tracer.trace_spans(served.serve_trace_id)
        if not spans:
            return Response(
                status=404,
                payload={
                    "error": "not_found",
                    "message": f"no retained trace for {ticket.query_id}",
                },
            )
        return Response(payload=trace_to_dict(spans, served.result.trace.cost))

    def _route_costs(self, ctx: RequestContext) -> Response:
        stats = self.service.stats()
        ledgers = {
            name: self.service.tenant_account(name).as_dict()
            for name in sorted(stats["tenants"])
        }
        return Response(payload={"tenants": ledgers})

    def _route_stats(self, ctx: RequestContext) -> Response:
        payload: Dict[str, Any] = {
            "service": self.service.stats(),
            "gateway": self.stats(),
        }
        scheduler = getattr(self.service.context, "scheduler", None)
        if scheduler is not None:
            payload["scheduler"] = scheduler.metrics()
        return Response(payload=payload)


# ----------------------------------------------------------------------
# The stdlib HTTP plumbing
# ----------------------------------------------------------------------


class _GatewayServer(ThreadingHTTPServer):
    """One thread per connection; daemonic so a hung client can never
    block interpreter exit (the gateway's own close() is the clean path)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        handler: type,
        gateway: Gateway,
    ):
        self.gateway = gateway
        super().__init__(address, handler)


class _GatewayHandler(BaseHTTPRequestHandler):
    """Parses HTTP, builds a RequestContext, delegates to Gateway.handle,
    writes the response (JSON with Content-Length, or chunked SSE)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway/1.0"
    #: Socket timeout: a silent peer cannot pin a connection thread
    #: forever between requests.
    timeout = 60.0

    server: _GatewayServer  # narrowed for mypy

    # The structured access log (middleware) replaces stderr chatter.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway
        split = urlsplit(self.path)
        params = dict(parse_qsl(split.query))
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            self._send_json(
                Response(
                    status=413,
                    payload={
                        "error": "payload_too_large",
                        "message": f"body over {MAX_BODY_BYTES} bytes",
                    },
                )
            )
            return
        body = self.rfile.read(length) if length > 0 else b""
        ctx = RequestContext(
            method=method,
            path=split.path,
            params=params,
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
            remote=self.client_address[0] if self.client_address else "",
        )
        response = gateway.handle(ctx)
        if response.stream is not None:
            self._send_stream(ctx, response)
        else:
            self._send_json(response)

    def _send_json(self, response: Response) -> None:
        body = _dumps(response.payload if response.payload is not None else {})
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True

    def _send_stream(self, ctx: RequestContext, response: Response) -> None:
        """Chunked transfer of an SSE frame iterator. A failed write
        means the client went away: stop pumping, cancel the query, and
        let the handler thread exit."""
        gateway = self.server.gateway
        frames = response.stream
        gateway._g_active_streams.inc()
        self.close_connection = True
        try:
            self.send_response(response.status)
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            self.end_headers()
            for frame in frames:
                self._write_chunk(frame)
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            gateway._m_disconnects.inc()
            if ctx.query_id:
                try:
                    gateway.ticket(ctx.query_id).cancel("client disconnected")
                except KeyError:
                    pass
        finally:
            close = getattr(frames, "close", None)
            if close is not None:
                close()
            gateway._g_active_streams.inc(-1)

    def _write_chunk(self, data: bytes) -> None:
        if not data:
            return
        self.wfile.write(b"%x\r\n" % len(data))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()
