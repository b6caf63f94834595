"""Fault injection: wrap LLM clients with a schedule.

The :class:`FaultInjector` assigns each intercepted call the next call
index (thread-safe) and consults its :class:`FaultSchedule` for what to
inject. Everything injected is logged, so a chaos run ends with an exact,
replayable account of the weather it survived.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..llm.base import LLMClient, LLMResponse
from ..llm.errors import LLMTimeoutError, RateLimitError, TransientLLMError
from ..observability.metrics import MetricsRegistry, get_registry
from .schedule import BROWNOUT, RATE_LIMIT_RETRY_AFTER_S, FaultDecision, FaultSchedule


class FaultInjector:
    """Hands out fault decisions and keeps the injection ledger.

    One injector can wrap several clients; they share the call
    counter, so the schedule's indexes cover the whole run.

    ``registry`` (default: the process registry) receives aggregate
    ``faults.intercepted_calls`` / ``faults.injected.<kind>`` counters;
    the per-instance ``injected`` dict and ``log`` stay the exact,
    replayable ledger.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        sleeper: Callable[[float], None] = time.sleep,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.schedule = schedule
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._calls = 0
        self.registry = registry if registry is not None else get_registry()
        self._m_calls = self.registry.counter("faults.intercepted_calls")
        #: Injected-fault counts by kind.
        self.injected: Dict[str, int] = {}
        #: Every injected decision, in call order.
        self.log: List[FaultDecision] = []

    @property
    def calls(self) -> int:
        """Total calls intercepted so far."""
        with self._lock:
            return self._calls

    def next_decision(self) -> FaultDecision:
        """Claim the next call index and return its fault decision."""
        with self._lock:
            index = self._calls
            self._calls += 1
        self._m_calls.inc()
        decision = self.schedule.decision(index)
        if decision.is_fault:
            with self._lock:
                self.injected[decision.kind] = self.injected.get(decision.kind, 0) + 1
                self.log.append(decision)
            self.registry.counter(f"faults.injected.{decision.kind}").inc()
        return decision

    def report(self) -> str:
        """One-line human-readable injection summary."""
        with self._lock:
            total = sum(self.injected.values())
            parts = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.injected.items())
            )
        return f"{total} faults injected over {self.calls} calls ({parts or 'none'})"

    # ------------------------------------------------------------------

    def wrap_llm(self, client: LLMClient) -> "FaultyLLM":
        """An LLMClient that injects this schedule in front of ``client``."""
        return FaultyLLM(client, self, sleeper=self._sleeper)


class FaultyLLM(LLMClient):
    """LLMClient decorator that injects scheduled faults.

    Failures are raised *before* the backend is consulted (the request
    never "arrived"); latency spikes and output corruption happen after,
    on an otherwise-successful response.
    """

    def __init__(
        self,
        backend: LLMClient,
        injector: FaultInjector,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        self.injector = injector
        self._sleeper = sleeper

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Complete via the backend, subject to the fault schedule."""
        decision = self.injector.next_decision()
        if decision.kind in ("transient", BROWNOUT):
            raise TransientLLMError(
                f"injected {decision.kind} failure (call {decision.index})"
            )
        if decision.kind == "rate_limit":
            raise RateLimitError(
                f"injected rate limit (call {decision.index})",
                retry_after_s=RATE_LIMIT_RETRY_AFTER_S,
            )
        if decision.kind == "timeout":
            raise LLMTimeoutError(f"injected timeout (call {decision.index})")

        response = self.backend.complete(
            prompt,
            model=model,
            max_output_tokens=max_output_tokens,
            temperature=temperature,
        )
        if decision.kind == "latency":
            self._sleeper(decision.latency_s)
            return replace(response, latency_s=response.latency_s + decision.latency_s)
        if decision.kind == "malformed":
            return replace(response, text=_corrupt(response.text))
        return response


def _corrupt(text: str) -> str:
    """Damage a completion the way truncation in flight does: cut it and
    leave an unterminated fragment behind."""
    if not text:
        return '{"truncat'
    cut = max(1, (len(text) * 2) // 3)
    return text[:cut]
