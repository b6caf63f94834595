"""Deterministic fault schedules.

A :class:`FaultSchedule` is a pure function from a call index to a
:class:`FaultDecision`. Every decision is derived from ``(seed, index)``
alone, so the same seed always yields the same injected-fault sequence —
the property that makes chaos tests reproducible: a failure observed
under seed 42 can be replayed exactly, regardless of thread timing.

Fault kinds model the weather a hosted-LLM client actually sees:

``transient``
    A 5xx / connection-reset style error (retryable).
``rate_limit``
    HTTP 429 with a retry-after hint.
``latency``
    The call succeeds but only after a latency spike.
``malformed``
    The call succeeds but the output is corrupted (truncated JSON).
``timeout``
    The request exceeds its deadline (retryable).
``brownout``
    A timed window of call indexes during which *every* call fails
    transiently — a backend outage in miniature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

#: All injectable fault kinds, in the order rates are applied.
FAULT_KINDS: Tuple[str, ...] = (
    "transient",
    "rate_limit",
    "latency",
    "malformed",
    "timeout",
)

BROWNOUT = "brownout"

#: The retry-after hint an injected 429 carries, in seconds.
RATE_LIMIT_RETRY_AFTER_S = 0.01


@dataclass(frozen=True)
class BrownoutWindow:
    """A half-open ``[start, end)`` range of call indexes that all fail."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid brownout window [{self.start}, {self.end})")

    def covers(self, index: int) -> bool:
        """Whether the call index falls inside the window."""
        return self.start <= index < self.end


@dataclass(frozen=True)
class FaultDecision:
    """What (if anything) to inject for one call.

    ``kind`` is one of :data:`FAULT_KINDS`, :data:`BROWNOUT`, or ``None``
    for a clean call. ``latency_s`` is only meaningful for ``latency``
    decisions.
    """

    index: int
    kind: Optional[str] = None
    latency_s: float = 0.0

    @property
    def is_fault(self) -> bool:
        """Whether any fault is injected for this call."""
        return self.kind is not None


def _index_rng(seed: int, index: int) -> random.Random:
    # Mix the seed and index into one 64-bit stream id. splitmix64-style
    # scrambling keeps neighbouring indexes decorrelated.
    x = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return random.Random(x)


@dataclass(frozen=True)
class FaultSchedule:
    """Seeded, order-independent fault plan.

    Rates are per-call probabilities applied in :data:`FAULT_KINDS`
    order; at most one fault fires per call. Brownout windows override
    the probabilistic draw entirely.
    """

    seed: int = 0
    transient_rate: float = 0.0
    rate_limit_rate: float = 0.0
    latency_rate: float = 0.0
    malformed_rate: float = 0.0
    timeout_rate: float = 0.0
    latency_spike_s: float = 0.25
    brownouts: Tuple[BrownoutWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in (
            "transient_rate",
            "rate_limit_rate",
            "latency_rate",
            "malformed_rate",
            "timeout_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        # Accept plain (start, end) tuples for convenience.
        windows = tuple(
            w if isinstance(w, BrownoutWindow) else BrownoutWindow(*w)
            for w in self.brownouts
        )
        object.__setattr__(self, "brownouts", windows)

    def decision(self, index: int) -> FaultDecision:
        """The (deterministic) fault decision for one call index."""
        for window in self.brownouts:
            if window.covers(index):
                return FaultDecision(index=index, kind=BROWNOUT)
        rng = _index_rng(self.seed, index)
        draw = rng.random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += getattr(self, f"{kind}_rate")
            if draw < cumulative:
                latency = self.latency_spike_s if kind == "latency" else 0.0
                return FaultDecision(index=index, kind=kind, latency_s=latency)
        return FaultDecision(index=index)

    def decisions(self, count: int) -> Sequence[FaultDecision]:
        """The first ``count`` decisions (useful for audits and tests)."""
        return [self.decision(i) for i in range(count)]
