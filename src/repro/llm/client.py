"""Reliability layer over any LLM backend.

Sycamore "handles retries and model-specific details like parsing the
output as JSON" (§5.2). This module is that layer: exponential-backoff
retry (with a per-run retry budget and per-request timeouts) for
transient failures, a circuit breaker that fails fast during backend
brownouts, JSON-mode completion with output repair, a bounded LRU
response cache, and a batch API used by the execution engine to
parallelize per-document LLM transforms.
"""

from __future__ import annotations

import contextvars
import json
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..lifecycle.deadline import check_scope, remaining_budget
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Span, Tracer
from .base import LLMClient, LLMResponse, get_model_spec
from .cost import CostTracker
from .errors import (
    CircuitOpenError,
    LLMTimeoutError,
    MalformedOutputError,
    RateLimitError,
    TransientLLMError,
    UnknownModelError,
)

#: Threads of the pool one client shares among its parallel
#: :meth:`ReliableLLM.complete_many` calls.
BATCH_POOL_WORKERS = 16


def repair_json(text: str) -> Any:
    """Parse model output as JSON, tolerating the usual LLM damage.

    Tries, in order: direct parse; stripping Markdown code fences;
    extracting the outermost ``{...}`` or ``[...]`` span; removing
    trailing commas; and closing unbalanced brackets/braces on truncated
    output. Raises :class:`MalformedOutputError` when nothing works.
    """
    for candidate in _repair_candidates(text):
        try:
            return json.loads(candidate)
        except (json.JSONDecodeError, ValueError):
            continue
    raise MalformedOutputError("could not parse output as JSON", raw_output=text)


def _repair_candidates(text: str) -> Iterator[str]:
    """The strings worth parsing, in the order above and built on demand:
    well-formed output (nearly all of it) parses before any repair runs."""

    def with_and_without_trailing_commas(span: str) -> Iterator[str]:
        yield span
        yield re.sub(r",\s*([}\]])", r"\1", span)

    yield from with_and_without_trailing_commas(text)
    fenced = re.search(r"```(?:json)?\s*(.*?)```", text, re.DOTALL)
    if fenced:
        yield from with_and_without_trailing_commas(fenced.group(1))
    for opener, closer in (("{", "}"), ("[", "]")):
        start = text.find(opener)
        end = text.rfind(closer)
        if start != -1 and end > start:
            yield from with_and_without_trailing_commas(text[start : end + 1])
        if start != -1:
            yield from with_and_without_trailing_commas(_close_brackets(text[start:]))


def _close_brackets(fragment: str) -> str:
    """Best-effort completion of a truncated JSON fragment."""
    stack: List[str] = []
    in_string = False
    escaped = False
    string_start = -1
    for position, ch in enumerate(fragment):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
            continue
        if ch == '"':
            in_string = not in_string
            if in_string:
                string_start = position
            continue
        if in_string:
            continue
        if ch in "{[":
            stack.append("}" if ch == "{" else "]")
        elif ch in "}]" and stack:
            stack.pop()
    repaired = fragment
    if in_string:
        # The cut fell inside a string. If that string is an object *key*
        # (preceded by '{' or ','), drop it — a quote-closed key with no
        # value is still invalid. A cut *value* (preceded by ':') can be
        # closed in place. Inside an array, closing in place is valid too.
        before = fragment[:string_start].rstrip()
        if before.endswith(("{", ",")) and (stack and stack[-1] == "}"):
            repaired = before
        else:
            repaired += '"'
    # Drop a dangling comma/colon left at the end.
    repaired = re.sub(r"[,:]\s*$", "", repaired)
    return repaired + "".join(reversed(stack))


class CircuitBreaker:
    """Failure-rate circuit breaker: closed → open → half-open → closed.

    *Closed*: requests flow; ``failure_threshold`` consecutive failures
    trip the breaker. *Open*: requests are rejected instantly (no backend
    call, no backoff) until ``recovery_time_s`` has elapsed. *Half-open*:
    one probe request is let through; success closes the breaker, failure
    re-opens it for another recovery window.

    Thread-safe; the clock is injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        # Counters surfaced for observability.
        self.times_opened = 0
        self.rejections = 0

    def allow(self) -> bool:
        """Whether a request may proceed right now (claims the half-open
        probe slot when applicable)."""
        with self._lock:
            if self.state == self.OPEN:
                if self._clock() - self._opened_at >= self.recovery_time_s:
                    self.state = self.HALF_OPEN
                    self._probe_in_flight = False
                else:
                    self.rejections += 1
                    return False
            if self.state == self.HALF_OPEN:
                if self._probe_in_flight:
                    self.rejections += 1
                    return False
                self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """Note a successful backend call."""
        with self._lock:
            self.state = self.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """Note a failed backend call; may trip the breaker."""
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self.state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.times_opened += 1


class ReliableLLM(LLMClient):
    """Retry + circuit-breaker + cache + JSON-mode wrapper around a backend.

    All LLM-powered transforms talk to the backend through this class so
    that retries and caching behave uniformly.

    Parameters
    ----------
    max_retries:
        Retries per request for transient failures.
    backoff_base_s:
        Exponential backoff base: attempt ``n`` sleeps ``base * 2**n``.
    retry_budget:
        Optional cap on *total* retries across the life of this client —
        a run-level budget so a brownout cannot multiply per-request
        retries across thousands of documents. When exhausted, transient
        failures are raised immediately.
    request_timeout_s:
        Optional per-request deadline. A backend call whose wall-clock
        duration exceeds it raises :class:`LLMTimeoutError` (retryable).
    total_timeout_s:
        Optional *overall* wall-clock budget for one logical request
        across **all** attempts and backoff sleeps. Without it, the
        worst case is ``attempts × (request_timeout_s + backoff)`` —
        per-attempt timeouts silently compound. With it, backoff sleeps
        are clamped to the remaining budget and a request whose budget
        is exhausted raises :class:`LLMTimeoutError` instead of starting
        another attempt (counted separately as ``overall_timeouts``).
    circuit_breaker:
        Optional :class:`CircuitBreaker`. Consecutive backend failures
        open it; while open, calls fail fast with
        :class:`CircuitOpenError` instead of burning retries.
    cache_max_entries:
        LRU bound on the response cache (default 4096 entries).
    tracker:
        Optional :class:`~repro.llm.cost.CostTracker`. Cache hits are
        recorded into it (``cached=True`` — zero dollars, full tokens)
        so per-query accounting stays conservative; real backend calls
        are recorded by the backend itself. Defaults to the backend's
        own ``tracker`` attribute when it has one.
    tracer:
        Optional :class:`~repro.observability.Tracer`. When set, every
        ``complete`` call runs inside an ``llm_request`` span carrying
        model, token, dollar and retry attributes.
    registry:
        :class:`~repro.observability.MetricsRegistry` to publish
        reliability counters into (default: the process registry).
    """

    def __init__(
        self,
        backend: LLMClient,
        max_retries: int = 4,
        backoff_base_s: float = 0.05,
        cache_enabled: bool = True,
        cache_max_entries: int = 4096,
        retry_budget: Optional[int] = None,
        request_timeout_s: Optional[float] = None,
        total_timeout_s: Optional[float] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        sleeper: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        tracker: Optional[CostTracker] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if cache_max_entries < 1:
            raise ValueError("cache_max_entries must be >= 1")
        self.backend = backend
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.cache_enabled = cache_enabled
        self.cache_max_entries = cache_max_entries
        self.retry_budget = retry_budget
        self.request_timeout_s = request_timeout_s
        self.total_timeout_s = total_timeout_s
        self.circuit_breaker = circuit_breaker
        self._sleeper = sleeper
        self._clock = clock
        self._cache: "OrderedDict[Tuple[str, str, Optional[int]], LLMResponse]" = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self.retries_performed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.timeouts = 0
        self.overall_timeouts = 0
        self.budget_exhaustions = 0
        self.tracker = tracker if tracker is not None else getattr(
            backend, "tracker", None
        )
        self.tracer = tracer
        self.registry = registry if registry is not None else get_registry()
        reg = self.registry
        self._m_requests = reg.counter("llm.requests")
        self._m_retries = reg.counter("llm.retries")
        self._m_cache_hits = reg.counter("llm.cache_hits")
        self._m_cache_misses = reg.counter("llm.cache_misses")
        self._m_cache_evictions = reg.counter("llm.cache_evictions")
        self._m_timeouts = reg.counter("llm.timeouts")
        self._m_overall_timeouts = reg.counter("llm.overall_timeouts")
        self._m_budget_exhaustions = reg.counter("llm.budget_exhaustions")
        self._m_circuit_rejections = reg.counter("llm.circuit_rejections")
        self._m_input_tokens = reg.counter("llm.input_tokens")
        self._m_output_tokens = reg.counter("llm.output_tokens")
        self._m_cost_usd = reg.counter("llm.cost_usd")
        self._m_saved_usd = reg.counter("llm.saved_usd")
        self._m_latency = reg.histogram("llm.virtual_latency_s")

    def metrics(self) -> Dict[str, int]:
        """Reliability counters (retries, cache traffic, breaker state)."""
        with self._counter_lock:
            counters = {
                "retries_performed": self.retries_performed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "timeouts": self.timeouts,
                "overall_timeouts": self.overall_timeouts,
                "budget_exhaustions": self.budget_exhaustions,
            }
        counters["cache_size"] = self.cache_size()
        if self.circuit_breaker is not None:
            counters["circuit_rejections"] = self.circuit_breaker.rejections
            counters["circuit_times_opened"] = self.circuit_breaker.times_opened
        return counters

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Generate a completion for the prompt (see LLMClient)."""
        if self.tracer is None:
            return self._complete(prompt, model, max_output_tokens, temperature, None)
        with self.tracer.span(
            f"llm:{model}", kind="llm_request", model=model
        ) as span:
            return self._complete(prompt, model, max_output_tokens, temperature, span)

    def _complete(
        self,
        prompt: str,
        model: str,
        max_output_tokens: Optional[int],
        temperature: float,
        span: Optional[Span],
    ) -> LLMResponse:
        key = (model, prompt, max_output_tokens)
        cacheable = self.cache_enabled and temperature == 0.0
        if cacheable:
            with self._cache_lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
            with self._counter_lock:
                if hit is not None:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
            if hit is not None:
                replay = LLMResponse(
                    text=hit.text,
                    model=hit.model,
                    usage=hit.usage,
                    latency_s=0.0,
                    cached=True,
                    price_usd=hit.price_usd,
                )
                # A cache hit is still a request the query paid tokens
                # for: record it (at zero simulated dollars) so per-query
                # accounting is conservative and savings are reportable.
                if self.tracker is not None:
                    self.tracker.record_response(replay)
                self._account(span, replay, retries=0)
                return replay
            self._m_cache_misses.inc()

        last_error: Optional[Exception] = None
        retries_used = 0
        overall_started = self._clock()
        for attempt in range(self.max_retries + 1):
            # Cooperative lifecycle checkpoint: a cancelled or expired
            # query stops retrying here with its typed error instead of
            # burning the remaining attempts.
            check_scope()
            if attempt > 0:
                self._check_overall(overall_started, last_error)
            if self.circuit_breaker is not None and not self.circuit_breaker.allow():
                self._m_circuit_rejections.inc()
                raise CircuitOpenError(
                    "circuit breaker is open; request rejected without retry"
                ) from last_error
            started = self._clock()
            try:
                response = self.backend.complete(
                    prompt,
                    model=model,
                    max_output_tokens=max_output_tokens,
                    temperature=temperature,
                )
                self._enforce_timeout(started)
            except RateLimitError as exc:
                last_error = exc
                self._note_failure()
                self._spend_retry(exc)
                retries_used += 1
                self._sleep_backoff(
                    max(exc.retry_after_s, self._backoff(attempt)), overall_started
                )
            except TransientLLMError as exc:
                last_error = exc
                self._note_failure()
                self._spend_retry(exc)
                retries_used += 1
                self._sleep_backoff(self._backoff(attempt), overall_started)
            else:
                if self.circuit_breaker is not None:
                    self.circuit_breaker.record_success()
                break
        else:
            raise TransientLLMError(
                f"giving up after {self.max_retries + 1} attempts"
            ) from last_error

        if response.price_usd is None:
            # A backend with no price card of its own: priced here, once,
            # before the response can be cached, replayed or booked.
            usage = response.usage
            try:
                response.price_usd = get_model_spec(response.model).cost_usd(
                    usage.input_tokens, usage.output_tokens
                )
            except UnknownModelError:
                response.price_usd = 0.0
        if cacheable:
            evicted = 0
            with self._cache_lock:
                self._cache[key] = response
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_max_entries:
                    self._cache.popitem(last=False)
                    evicted += 1
            if evicted:
                # Counters have their own lock; updating them after the
                # cache lock is released avoids nested lock acquisition.
                with self._counter_lock:
                    self.cache_evictions += evicted
                self._m_cache_evictions.inc(evicted)
        self._account(span, response, retries=retries_used)
        return response

    def _account(
        self, span: Optional[Span], response: LLMResponse, retries: int
    ) -> None:
        """Publish one served response into the registry (and its span)."""
        usage = response.usage
        cost, saved = response.cost_usd, response.saved_usd
        updates = [
            (self._m_requests, 1),
            (self._m_input_tokens, usage.input_tokens),
            (self._m_output_tokens, usage.output_tokens),
            (self._m_cost_usd, cost),
            (self._m_latency, response.latency_s),
        ]
        if response.cached:
            updates += [(self._m_cache_hits, 1), (self._m_saved_usd, saved)]
        self.registry.add_all(updates)
        if span is not None:
            span.set_attributes(
                input_tokens=usage.input_tokens,
                output_tokens=usage.output_tokens,
                cost_usd=cost,
                saved_usd=saved,
                cached=response.cached,
                retries=retries,
            )

    def complete_json(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        json_retries: int = 2,
    ) -> Any:
        """Complete and parse the output as JSON, retrying malformed output.

        Retries bypass the response cache (a cached malformed answer would
        never heal) and nudge the temperature so a stochastic backend can
        produce different output. :class:`~repro.runtime.ScheduledLLM`
        runs this same loop through the scheduler.
        """
        last_error: Optional[MalformedOutputError] = None
        for attempt in range(json_retries + 1):
            temperature = 0.0 if attempt == 0 else 0.1
            response = self.complete(
                prompt,
                model=model,
                max_output_tokens=max_output_tokens,
                temperature=temperature,
            )
            try:
                return repair_json(response.text)
            except MalformedOutputError as exc:
                last_error = exc
                self._drop_cached(model, prompt, max_output_tokens)
        assert last_error is not None
        raise last_error

    def complete_many(
        self,
        prompts: List[str],
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        parallelism: int = 8,
        return_exceptions: bool = False,
    ) -> "List[LLMResponse | Exception]":
        """Batch completion preserving input order.

        Duplicate prompts within the batch are collapsed into one
        upstream call whose response is fanned back out to every
        position. Parallel batches share one long-lived thread pool
        (:data:`BATCH_POOL_WORKERS` threads) instead of constructing and
        tearing down an executor per call; ``parallelism <= 1`` keeps the
        fully sequential path. With ``return_exceptions`` a failed
        completion occupies its slot as the exception instance instead of
        aborting the whole batch.
        """
        if not prompts:
            return []

        def one(prompt: str) -> "LLMResponse | Exception":
            try:
                return self.complete(
                    prompt, model=model, max_output_tokens=max_output_tokens
                )
            except Exception as exc:  # noqa: BLE001 - isolate per prompt
                if return_exceptions:
                    return exc
                raise

        unique: List[str] = []
        slot_of: Dict[str, int] = {}
        for prompt in prompts:
            if prompt not in slot_of:
                slot_of[prompt] = len(unique)
                unique.append(prompt)
        if parallelism <= 1 or len(unique) == 1:
            unique_results = [one(prompt) for prompt in unique]
        else:
            # Carry the caller's contextvars (the ambient trace span)
            # into the pool — one Context copy per task, because a single
            # Context cannot be entered concurrently.
            pool = self._batch_pool()
            futures = [
                pool.submit(contextvars.copy_context().run, one, prompt)
                for prompt in unique
            ]
            unique_results = [future.result() for future in futures]
        return [unique_results[slot_of[prompt]] for prompt in prompts]

    def _batch_pool(self) -> ThreadPoolExecutor:
        """The shared executor behind parallel ``complete_many`` calls."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=BATCH_POOL_WORKERS,
                    thread_name_prefix="repro-llm-batch",
                )
            return self._pool

    def close(self) -> None:
        """Release the shared batch pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def cache_size(self) -> int:
        """Number of cached responses."""
        with self._cache_lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all cached responses."""
        with self._cache_lock:
            self._cache.clear()

    # ------------------------------------------------------------------

    def _enforce_timeout(self, started: float) -> None:
        if self.request_timeout_s is None:
            return
        elapsed = self._clock() - started
        if elapsed > self.request_timeout_s:
            with self._counter_lock:
                self.timeouts += 1
            self._m_timeouts.inc()
            raise LLMTimeoutError(
                f"request took {elapsed:.3f}s (deadline {self.request_timeout_s}s)",
                timeout_s=self.request_timeout_s,
            )

    def _overall_remaining(self, overall_started: float) -> Optional[float]:
        """Wall-clock budget left for this logical request (all attempts)."""
        if self.total_timeout_s is None:
            return None
        return self.total_timeout_s - (self._clock() - overall_started)

    def _check_overall(
        self, overall_started: float, cause: Optional[Exception]
    ) -> None:
        """Refuse to start another attempt past the overall budget."""
        remaining = self._overall_remaining(overall_started)
        if remaining is not None and remaining <= 0:
            with self._counter_lock:
                self.overall_timeouts += 1
            self._m_overall_timeouts.inc()
            elapsed = self._clock() - overall_started
            raise LLMTimeoutError(
                f"overall budget of {self.total_timeout_s}s exhausted "
                f"({elapsed:.3f}s across attempts)",
                timeout_s=float(self.total_timeout_s or 0.0),
            ) from cause

    def _sleep_backoff(self, delay: float, overall_started: float) -> None:
        """Backoff clamped so sleeps never outlive the overall budget or
        the ambient query deadline (the compounding-timeout fix)."""
        remaining = self._overall_remaining(overall_started)
        if remaining is not None:
            delay = min(delay, max(remaining, 0.0))
        budget = remaining_budget()
        if budget is not None:
            delay = min(delay, budget)
        if delay > 0:
            self._sleeper(delay)

    def _note_failure(self) -> None:
        if self.circuit_breaker is not None:
            self.circuit_breaker.record_failure()

    def _spend_retry(self, cause: Exception) -> None:
        """Charge one retry against the run budget, or give up."""
        with self._counter_lock:
            if (
                self.retry_budget is not None
                and self.retries_performed >= self.retry_budget
            ):
                self.budget_exhaustions += 1
                self._m_budget_exhaustions.inc()
                raise TransientLLMError(
                    f"retry budget of {self.retry_budget} exhausted"
                ) from cause
            self.retries_performed += 1
        self._m_retries.inc()

    def _drop_cached(self, model: str, prompt: str, max_output_tokens: Optional[int]) -> None:
        with self._cache_lock:
            self._cache.pop((model, prompt, max_output_tokens), None)

    def _backoff(self, attempt: int) -> float:
        return self.backoff_base_s * (2**attempt)
