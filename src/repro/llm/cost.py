"""Cost and virtual-latency accounting across LLM calls.

Luna's optimizer (paper §6.1) "makes trade-offs based on cost vs
efficiency". The :class:`CostTracker` is the ledger those trade-offs are
measured against: every call is recorded with its model, token usage,
dollar cost and virtual latency, and benches report the aggregates.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .base import LLMResponse, ModelSpec, Usage, get_model_spec


@dataclass(slots=True)
class CallRecord:
    """One completion call as seen by the ledger."""

    model: str
    input_tokens: int
    output_tokens: int
    cost_usd: float
    latency_s: float
    cached: bool = False
    tag: str = ""


@dataclass
class CostSummary:
    """Aggregate view over a set of call records."""

    calls: int = 0
    cached_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    latency_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens

    def add(self, other: "CostSummary") -> None:
        """Fold another summary into this one."""
        self.calls += other.calls
        self.cached_calls += other.cached_calls
        self.input_tokens += other.input_tokens
        self.output_tokens += other.output_tokens
        self.cost_usd += other.cost_usd
        self.latency_s += other.latency_s


#: How many of the most recent calls :meth:`CostTracker.records` keeps.
#: The totals cover every call ever recorded; only the per-call detail
#: is a window, so a long-lived context's ledger stays a fixed size.
RECENT_RECORDS = 1024


class CostTracker:
    """Thread-safe ledger of LLM usage.

    Calls may be tagged (e.g. with the query-plan operator that issued
    them) so per-operator traces can show where the money went. Totals
    are kept running, overall and per ``(tag, model)``: reading them
    costs the number of distinct tags and models, never the number of
    calls made.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recent: Deque[CallRecord] = deque(maxlen=RECENT_RECORDS)
        self._overall = CostSummary()
        self._totals: Dict[Tuple[str, str], CostSummary] = {}

    def record(
        self,
        model: str,
        usage: Usage,
        latency_s: float,
        cached: bool = False,
        tag: str = "",
        spec: Optional[ModelSpec] = None,
    ) -> CallRecord:
        """Record one call by hand, priced here from its tokens. Cached
        calls cost nothing and take no time."""
        spec = spec or get_model_spec(model)
        price = spec.cost_usd(usage.input_tokens, usage.output_tokens)
        return self.record_response(LLMResponse("", model, usage, latency_s, cached, price), tag)

    def record_response(self, response: LLMResponse, tag: str = "") -> CallRecord:
        """Record one served response at the price it carries."""
        usage = response.usage
        record = CallRecord(
            model=response.model,
            input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens,
            cost_usd=response.cost_usd,
            latency_s=0.0 if response.cached else response.latency_s,
            cached=response.cached,
            tag=tag,
        )
        with self._lock:
            self._recent.append(record)
            key = (tag, response.model)
            total = self._totals.get(key)
            if total is None:
                total = self._totals[key] = CostSummary()
            for summary in (self._overall, total):
                summary.calls += 1
                summary.cached_calls += int(record.cached)
                summary.input_tokens += record.input_tokens
                summary.output_tokens += record.output_tokens
                summary.cost_usd += record.cost_usd
                summary.latency_s += record.latency_s
        return record

    def records(self) -> List[CallRecord]:
        """A snapshot list of the most recent ``RECENT_RECORDS`` entries."""
        with self._lock:
            return list(self._recent)

    def reset(self) -> None:
        """Discard all recorded entries and totals."""
        with self._lock:
            self._recent.clear()
            self._overall = CostSummary()
            self._totals.clear()

    def summary(self, tag: Optional[str] = None, model: Optional[str] = None) -> CostSummary:
        """Aggregate, optionally filtered by tag and/or model."""
        result = CostSummary()
        with self._lock:
            if tag is None and model is None:
                # Summed in call order, as a scan of every record would.
                matching = [self._overall]
            else:
                matching = [
                    total
                    for (each_tag, each_model), total in self._totals.items()
                    if tag in (None, each_tag) and model in (None, each_model)
                ]
            for total in matching:
                result.add(total)
        return result

    def by_model(self) -> Dict[str, CostSummary]:
        """Per-model aggregate summaries."""
        with self._lock:
            models = {model for _, model in self._totals}
        return {name: self.summary(model=name) for name in sorted(models)}

    def by_tag(self) -> Dict[str, CostSummary]:
        """Per-tag aggregate summaries."""
        with self._lock:
            tags = {tag for tag, _ in self._totals}
        return {name: self.summary(tag=name) for name in sorted(tags)}
