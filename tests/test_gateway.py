"""Tests for repro.gateway: middleware, routes, streaming, overload.

The contracts under test (docs/GATEWAY.md):

* middleware composes: request ids are assigned (or honored) and echoed,
  bearer tokens map to tenants, the token bucket sheds 429 with a
  Retry-After, and every request (including shed ones) is access-logged;
* typed serving failures map to typed HTTP statuses (429/504/499/503)
  with machine-readable bodies;
* ``?stream=1`` delivers the ticket's progress events as SSE over a real
  socket, ending in exactly one terminal ``result``/``error`` frame;
* a client that disconnects mid-stream cancels its query and leaks
  nothing (the module-wide leak sanitizer enforces the thread half);
* the request id a client supplies is reachable end-to-end: access log,
  progress events, ``GET /v1/query/<request-id>``, and the serve trace.
"""

import json
import threading
import time

import pytest

from repro.datagen import generate_ntsb_corpus
from repro.lifecycle import DeadlineExceeded, QueryCancelled
from repro.llm import ReliableLLM, SimulatedLLM
from repro.observability import MetricsRegistry, Tracer
from repro.partitioner import ArynPartitioner
from repro.gateway import (
    AccessLogMiddleware,
    BearerAuthMiddleware,
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    RateLimitMiddleware,
    RequestContext,
    RequestIdMiddleware,
    Response,
    TokenBucket,
    error_response,
)
from repro.gateway.server import MAX_BODY_BYTES
from repro.serving import Overloaded, QueryService, ServiceClosed, ServiceConfig
from repro.sycamore import SycamoreContext

SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
}


def build_ctx(n_docs=10, seed=13, latency_scale=0.0):
    registry = MetricsRegistry()
    tracer = Tracer()
    llm = ReliableLLM(
        SimulatedLLM(seed=seed, real_latency_scale=latency_scale),
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
def fast_ctx():
    return build_ctx()


@pytest.fixture(scope="module")
def slow_ctx():
    # Real (scaled) LLM latency, so queries stay in flight long enough
    # for streaming/cancel/disconnect tests to act mid-query.
    return build_ctx(n_docs=8, latency_scale=0.05)


def make_gateway(ctx, service_config=None, gateway_config=None):
    service = QueryService(
        ctx, service_config or ServiceConfig(max_workers=2), registry=MetricsRegistry()
    )
    return Gateway(service, gateway_config).start()


@pytest.fixture()
def gateway(fast_ctx):
    gw = make_gateway(fast_ctx)
    yield gw
    gw.close()


@pytest.fixture()
def client(gateway):
    return GatewayClient("127.0.0.1", gateway.port, timeout_s=30.0)


def _ctx_for(path="/v1/query", method="POST", headers=None, tenant=""):
    return RequestContext(
        method=method, path=path, headers=headers or {}, tenant=tenant
    )


# ----------------------------------------------------------------------
# Middleware units
# ----------------------------------------------------------------------


class TestRequestIdMiddleware:
    def test_generates_and_echoes(self):
        mw = RequestIdMiddleware()
        ctx = _ctx_for()
        assert mw.before(ctx) is None
        assert ctx.request_id.startswith("req-")
        response = Response()
        mw.after(ctx, response)
        assert response.headers["X-Request-Id"] == ctx.request_id

    def test_client_supplied_id_wins(self):
        mw = RequestIdMiddleware()
        ctx = _ctx_for(headers={"x-request-id": "trace-me-7"})
        mw.before(ctx)
        assert ctx.request_id == "trace-me-7"

    def test_ids_are_unique(self):
        mw = RequestIdMiddleware()
        seen = set()
        for _ in range(5):
            ctx = _ctx_for()
            mw.before(ctx)
            seen.add(ctx.request_id)
        assert len(seen) == 5


class TestBearerAuthMiddleware:
    def test_valid_token_maps_tenant(self):
        mw = BearerAuthMiddleware({"s3cret": "acme"})
        ctx = _ctx_for(headers={"authorization": "Bearer s3cret"})
        assert mw.before(ctx) is None
        assert ctx.tenant == "acme"

    def test_missing_or_unknown_token_is_401(self):
        mw = BearerAuthMiddleware({"s3cret": "acme"})
        denied = mw.before(_ctx_for())
        assert denied is not None and denied.status == 401
        assert denied.headers["WWW-Authenticate"] == "Bearer"
        wrong = mw.before(_ctx_for(headers={"authorization": "Bearer nope"}))
        assert wrong is not None and wrong.status == 401

    def test_ops_routes_stay_open_unless_protected(self):
        mw = BearerAuthMiddleware({"s3cret": "acme"})
        assert mw.before(_ctx_for(path="/ops/health", method="GET")) is None
        strict = BearerAuthMiddleware({"s3cret": "acme"}, protect_ops=True)
        denied = strict.before(_ctx_for(path="/ops/health", method="GET"))
        assert denied is not None and denied.status == 401


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire()[0]
        assert bucket.try_acquire()[0]
        granted, retry_after = bucket.try_acquire()
        assert not granted
        assert retry_after == pytest.approx(1.0)
        clock[0] = 1.0
        assert bucket.try_acquire()[0]

    def test_rejects_nonpositive_config(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestRateLimitMiddleware:
    def test_per_tenant_isolation_and_429(self):
        clock = [0.0]
        mw = RateLimitMiddleware(rate_per_s=1.0, burst=1.0, clock=lambda: clock[0])
        assert mw.before(_ctx_for(tenant="a")) is None
        shed = mw.before(_ctx_for(tenant="a"))
        assert shed is not None and shed.status == 429
        assert shed.payload["error"] == "rate_limited"
        assert shed.payload["retry_after_s"] > 0
        assert int(shed.headers["Retry-After"]) >= 1
        # Tenant b has its own bucket.
        assert mw.before(_ctx_for(tenant="b")) is None
        assert mw.shed == 1

    def test_ops_exempt(self):
        mw = RateLimitMiddleware(rate_per_s=1.0, burst=1.0)
        for _ in range(5):
            assert mw.before(_ctx_for(path="/ops/metrics", method="GET")) is None


class TestAccessLog:
    def test_records_are_bounded_and_structured(self):
        mw = AccessLogMiddleware(max_records=3)
        for i in range(5):
            ctx = _ctx_for()
            ctx.request_id = f"req-{i}"
            mw.after(ctx, Response(status=200))
        records = mw.records()
        assert len(records) == 3
        assert records[-1].request_id == "req-4"
        line = records[-1].render()
        assert "request_id=req-4" in line and "POST /v1/query 200" in line

    def test_sink_errors_never_propagate(self):
        def bad_sink(line):
            raise RuntimeError("boom")

        mw = AccessLogMiddleware(sink=bad_sink)
        mw.after(_ctx_for(), Response())  # must not raise
        assert len(mw.records()) == 1


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------


class TestErrorMapping:
    def test_overloaded_is_429_with_retry_after(self):
        response = error_response(
            Overloaded("queue full", reason="queue_full", retry_after_s=2.5)
        )
        assert response.status == 429
        assert response.payload["error"] == "overloaded"
        assert response.payload["retry_after_s"] == 2.5
        assert response.headers["Retry-After"] == "3"

    def test_deadline_exceeded_is_504(self):
        response = error_response(
            DeadlineExceeded(
                "budget spent", budget_s=1.0, elapsed_s=1.2, retry_after_s=0.4
            )
        )
        assert response.status == 504
        assert response.payload["error"] == "deadline_exceeded"
        assert int(response.headers["Retry-After"]) >= 1

    def test_cancelled_closed_timeout_and_defaults(self):
        assert error_response(QueryCancelled("gone", query_id="q1")).status == 499
        assert error_response(ServiceClosed("closed")).status == 503
        import concurrent.futures

        sync = error_response(concurrent.futures.TimeoutError())
        assert sync.status == 504 and sync.payload["error"] == "sync_timeout"
        assert error_response(KeyError("missing")).status == 404
        assert error_response(ValueError("bad")).status == 400
        assert error_response(RuntimeError("boom")).status == 500


# ----------------------------------------------------------------------
# Routes over real sockets
# ----------------------------------------------------------------------


class TestQueryRoutes:
    def test_sync_query_and_cache_hit(self, gateway, client):
        first = client.query(
            "How many incidents were caused by wind?", index="ntsb", tenant="acme"
        )
        assert first["result_cache"] == "miss"
        assert first["query_id"].startswith("q")
        again = client.query(
            "How many incidents were caused by wind?", index="ntsb", tenant="acme"
        )
        assert again["result_cache"] == "hit"
        assert again["answer"] == first["answer"]
        assert again["saved_usd"] > 0
        # Another tenant's repeat is a hit too, credited to its own ledger.
        other = client.query(
            "How many incidents were caused by wind?", index="ntsb", tenant="globex"
        )
        assert other["result_cache"] == "hit"
        assert other["answer"] == first["answer"]
        assert client.costs()["globex"]["totals"]["saved_usd"] > 0

    def test_request_id_round_trip(self, gateway, client):
        served = client.query(
            "How many incidents had fatal injuries?",
            index="ntsb",
            request_id="my-req-1",
        )
        assert served["request_id"] == "my-req-1"
        # Status lookup works by request id, not just query id.
        status = client.status("my-req-1")
        assert status["query_id"] == served["query_id"]
        # Every progress event carries the request id.
        assert all(
            event["detail"].get("request_id") == "my-req-1"
            for event in status["events"]
        )
        # And the access log links request id to query id.
        records = client.accesslog()
        mine = [r for r in records if r["request_id"] == "my-req-1"]
        assert mine and mine[0]["query_id"] == served["query_id"]

    def test_request_id_reaches_trace_json(self, gateway, client):
        served = client.query(
            "How many incidents happened in 2023?",
            index="ntsb",
            request_id="traced-9",
        )
        trace = client.trace("traced-9")
        root = trace["spans"][0]
        assert root["name"] == "serve:query"
        assert root["attributes"]["request_id"] == "traced-9"
        assert root["attributes"]["query_id"] == served["query_id"]
        assert trace["trace_id"] == served["trace_id"]

    def test_bad_requests_are_typed_400s(self, gateway, client):
        with pytest.raises(GatewayError) as excinfo:
            client.query("", index="ntsb")
        assert excinfo.value.status == 400
        with pytest.raises(GatewayError) as excinfo:
            client._call("POST", "/v1/query", {"question": "hi"})  # no index
        assert excinfo.value.status == 400

    def test_malformed_json_is_400(self, gateway):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/query",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            length = int(response.getheader("Content-Length") or "0")
            payload = json.loads(response.read(length))
            assert response.status == 400
            assert payload["error"] in ("bad_request", "JSONDecodeError")
        finally:
            connection.close()

    def test_oversized_body_is_413_before_it_is_read(self, gateway):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            # Headers only: the limit is checked on Content-Length, so the
            # gateway answers without waiting for a body it would refuse.
            connection.putrequest("POST", "/v1/query")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read(int(response.getheader("Content-Length"))))
            assert response.status == 413
            assert payload["error"] == "payload_too_large"
        finally:
            connection.close()

    def test_unknown_route_and_unknown_query_are_404(self, gateway, client):
        with pytest.raises(GatewayError) as excinfo:
            client._call("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            client.status("q999999")
        assert excinfo.value.status == 404

    def test_streaming_delivers_events_then_single_result(self, gateway, client):
        handle = client.query_stream(
            "How many incidents were caused by icing?", index="ntsb"
        )
        frames = list(handle.events())
        names = [name for name, _ in frames]
        assert names[0] == "open"
        assert "admitted" in names and "completed" in names
        assert names[-1] == "result"
        # Exactly one terminal progress frame and one result frame.
        assert names.count("completed") == 1
        assert names.count("result") == 1
        result = frames[-1][1]
        assert result["answer"] is not None
        # Stage frames carry the request id (access-log correlation).
        stage_frames = [p for n, p in frames if n == "admitted"]
        assert stage_frames[0]["detail"]["request_id"]

    def test_session_and_follow_up_over_http(self, gateway, client):
        opened = client.open_session(index="ntsb", tenant="acme")
        session_id = opened["session"]
        first = client.query(
            "How many incidents had fatal injuries?", session=session_id
        )
        assert first["session"] == session_id
        follow = client.query(
            "Of those, how many were weather related?",
            session=session_id,
            follow_up=True,
        )
        assert follow["session"] == session_id
        transcript = client.session(session_id)
        assert len(transcript["entries"]) == 2
        assert transcript["tenant"] == "acme"
        with pytest.raises(GatewayError) as excinfo:
            client.session("sess-unknown")
        assert excinfo.value.status == 404

    def test_ingest_then_query_new_index(self, gateway, client):
        ingested = client.ingest(dataset="earnings", index="earn", docs=3, seed=7)
        assert ingested["documents_ingested"] == 3
        served = client.query("How many companies raised guidance?", index="earn")
        assert served["answer"] is not None and served["query_id"]
        with pytest.raises(GatewayError) as excinfo:
            client.ingest(dataset="nope")
        assert excinfo.value.status == 400


class TestAuthAndRateLimitOverSockets:
    def test_bearer_auth_maps_tenant_and_rejects(self, fast_ctx):
        gw = make_gateway(
            fast_ctx,
            gateway_config=GatewayConfig(tokens={"tok-a": "acme"}),
        )
        try:
            no_token = GatewayClient("127.0.0.1", gw.port)
            with pytest.raises(GatewayError) as excinfo:
                no_token.query("How many incidents?", index="ntsb")
            assert excinfo.value.status == 401
            # /ops stays open for probes.
            assert no_token.health()["status"] == "ok"
            authed = GatewayClient("127.0.0.1", gw.port, token="tok-a")
            served = authed.query(
                "How many incidents were caused by wind?",
                index="ntsb",
                tenant="spoofed",  # body cannot override the token's tenant
            )
            assert served["tenant"] == "acme"
        finally:
            gw.close()

    def test_rate_limit_sheds_429_with_retry_after(self, fast_ctx):
        gw = make_gateway(
            fast_ctx,
            gateway_config=GatewayConfig(rate_per_s=0.5, rate_burst=1.0),
        )
        try:
            client = GatewayClient("127.0.0.1", gw.port)
            client.query(
                "How many incidents were caused by wind?", index="ntsb"
            )
            with pytest.raises(GatewayError) as excinfo:
                client.query(
                    "How many incidents were caused by wind?", index="ntsb"
                )
            err = excinfo.value
            assert err.status == 429
            assert err.payload["error"] == "rate_limited"
            assert err.retry_after_s and err.retry_after_s > 0
            # Ops surface stays reachable while the tenant is limited.
            assert client.health()["status"] == "ok"
            assert gw.stats()["rate_limited"] == 1
        finally:
            gw.close()


class TestOverloadAndDeadlines:
    def test_burst_sheds_typed_429_over_socket(self, slow_ctx):
        gw = make_gateway(
            slow_ctx,
            service_config=ServiceConfig(max_workers=1, max_queue_depth=1),
        )
        try:
            statuses = []
            lock = threading.Lock()

            def fire(i):
                client = GatewayClient("127.0.0.1", gw.port, timeout_s=60.0)
                try:
                    served = client.query(
                        f"How many incidents happened in {2021 + i}?",
                        index="ntsb",
                    )
                    outcome = (200, served)
                except GatewayError as exc:
                    outcome = (exc.status, exc)
                with lock:
                    statuses.append(outcome)

            threads = [
                threading.Thread(target=fire, args=(i,), daemon=True)
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            sheds = [exc for status, exc in statuses if status == 429]
            oks = [served for status, served in statuses if status == 200]
            assert sheds, "2x burst over capacity must shed 429s"
            assert oks, "admitted queries must still complete"
            assert len(sheds) + len(oks) == 6
            for exc in sheds:
                assert exc.payload["error"] == "overloaded"
                assert exc.retry_after_s and exc.retry_after_s > 0
            # No admitted query was dropped: each 200 carries an answer,
            # and the service counted exactly those, with no failure.
            assert all(served["answer"] is not None for served in oks)
            stats = gw.service.stats()
            assert stats["completed"] == len(oks)
            assert stats["failed"] == 0
        finally:
            gw.close()

    def test_expired_queue_deadline_maps_to_504(self, slow_ctx):
        gw = make_gateway(
            slow_ctx, service_config=ServiceConfig(max_workers=1)
        )
        try:
            client = GatewayClient("127.0.0.1", gw.port, timeout_s=60.0)
            # Occupy the single worker...
            blocker = threading.Thread(
                target=lambda: client.query(
                    "How many incidents were caused by wind?", index="ntsb"
                ),
                daemon=True,
            )
            blocker.start()
            time.sleep(0.05)
            # ...so this one expires in the queue.
            with pytest.raises(GatewayError) as excinfo:
                client.query(
                    "How many incidents happened in 2023?",
                    index="ntsb",
                    deadline_s=0.01,
                )
            blocker.join()
            assert excinfo.value.status == 504
            assert excinfo.value.payload["error"] == "deadline_exceeded"
            assert excinfo.value.retry_after_s is not None
        finally:
            gw.close()

    def test_cancel_route_and_single_terminal_event(self, slow_ctx):
        gw = make_gateway(slow_ctx, service_config=ServiceConfig(max_workers=1))
        try:
            client = GatewayClient("127.0.0.1", gw.port, timeout_s=60.0)
            done = []

            def blocker():
                client.query(
                    "How many incidents were caused by icing?", index="ntsb"
                )
                done.append(True)

            thread = threading.Thread(target=blocker, daemon=True)
            thread.start()
            time.sleep(0.05)
            # The second query sits in the queue; cancel it over HTTP.
            handle = client.query_stream(
                "How many incidents happened in 2022?", index="ntsb"
            )
            frames = []
            events = handle.events()
            name, payload = next(events)
            assert name == "open"
            cancel = client.cancel(payload["query_id"])
            assert cancel["cancel_requested"]
            frames = [(name, payload)] + list(events)
            names = [n for n, _ in frames]
            # One cancelled progress frame, one terminal error frame, no
            # double-terminal.
            assert names.count("cancelled") == 1
            assert names[-1] == "error"
            assert frames[-1][1]["status"] == 499
            thread.join()
            # Cancelling an already-finished query never re-emits a
            # terminal event (double-terminal regression).
            status = client.status(cancel["query_id"])
            terminal = [
                e
                for e in status["events"]
                if e["stage"] in ("completed", "failed", "cancelled")
            ]
            assert len(terminal) == 1
            client.cancel(cancel["query_id"])
            status_after = client.status(cancel["query_id"])
            assert len(status_after["events"]) == len(status["events"])
        finally:
            gw.close()


class TestClientDisconnect:
    def test_disconnect_cancels_query_and_stream_terminates(self, slow_ctx):
        gw = make_gateway(
            slow_ctx,
            service_config=ServiceConfig(max_workers=1),
            gateway_config=GatewayConfig(
                stream_poll_s=0.02, stream_heartbeat_s=0.02
            ),
        )
        try:
            client = GatewayClient("127.0.0.1", gw.port, timeout_s=60.0)
            handle = client.query_stream(
                "How many incidents were caused by wind?", index="ntsb"
            )
            events = handle.events()
            name, opened = next(events)
            assert name == "open"
            query_id = opened["query_id"]
            # Drop the connection mid-query.
            handle.abort()
            # The server must notice (heartbeat write fails), cancel the
            # query, and tear the stream down.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if gw.stats()["client_disconnects"] >= 1:
                    break
                time.sleep(0.02)
            assert gw.stats()["client_disconnects"] >= 1
            ticket = gw.ticket(query_id)
            assert ticket.cancelled
            # The ticket reaches a terminal state and the SSE pump exits
            # (active_streams returns to zero).
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    ticket.done()
                    and gw.registry.gauge("gateway.active_streams").value() == 0
                ):
                    break
                time.sleep(0.02)
            assert ticket.done()
            assert gw.registry.gauge("gateway.active_streams").value() == 0
        finally:
            gw.close()
        # Leaked threads are caught by the module-wide leak sanitizer.


class TestOpsSurface:
    def test_health_metrics_costs_stats(self, gateway, client):
        client.query(
            "How many incidents were caused by wind?", index="ntsb", tenant="acme"
        )
        health = client.health()
        assert health["status"] == "ok" and health["http_status"] == 200
        metrics = client.metrics("gateway.")
        assert metrics["gateway.requests"] >= 1
        assert "gateway.request_ms" in metrics
        serving_metrics = client.metrics("serving.")
        assert serving_metrics["serving.completed"] >= 1
        costs = client.costs()
        assert "acme" in costs and costs["acme"]["totals"]["cost_usd"] > 0
        stats = client.stats()
        assert stats["service"]["completed"] >= 1
        assert stats["gateway"]["responses_2xx"] >= 1
        assert "optimizer" in stats["service"]

    def test_draining_health_is_503(self, fast_ctx):
        gw = make_gateway(fast_ctx)
        try:
            client = GatewayClient("127.0.0.1", gw.port)
            assert client.health()["http_status"] == 200
            gw.request_shutdown()
            health = client.health()
            assert health["http_status"] == 503
            assert health["status"] == "draining"
            assert gw.wait_for_shutdown(timeout=1.0)
        finally:
            gw.close()

    def test_trace_of_unknown_or_unfinished_query_is_typed(self, gateway, client):
        with pytest.raises(GatewayError) as excinfo:
            client.trace("q424242")
        assert excinfo.value.status == 404


class TestLifecycleAndDrain:
    def test_close_is_idempotent_and_drains(self, fast_ctx):
        gw = make_gateway(fast_ctx)
        client = GatewayClient("127.0.0.1", gw.port)
        served = client.query(
            "How many incidents were caused by wind?", index="ntsb"
        )
        assert served["answer"] is not None
        gw.close()
        gw.close()  # idempotent
        # The socket is gone after close.
        with pytest.raises(OSError):
            client.health()

    def test_service_closed_maps_to_503(self, fast_ctx):
        gw = make_gateway(fast_ctx)
        try:
            client = GatewayClient("127.0.0.1", gw.port)
            gw.service.close()
            with pytest.raises(GatewayError) as excinfo:
                client.query("How many incidents?", index="ntsb")
            assert excinfo.value.status == 503
            assert excinfo.value.payload["error"] == "service_closed"
        finally:
            gw.close()
