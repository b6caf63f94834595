"""Core LLM abstractions: model specs, responses, and the client protocol.

The paper's optimizer (§6.1) chooses between models of different cost and
quality — "GPT-4 versus Llama 7B". We model that axis explicitly with
:class:`ModelSpec`: each registered model has a quality score, per-token
pricing, latency characteristics and a context window. The simulated
models degrade output fidelity according to their quality score, so the
cost/quality trade-off the optimizer navigates is real.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import UnknownModelError


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one model offering.

    ``quality`` in [0, 1] drives the simulated error rate (1.0 = oracle).
    Prices are dollars per million tokens, the unit hosted APIs bill in.
    ``latency_base_s`` + ``latency_per_1k_tokens_s`` define the virtual
    latency model used by the cost tracker.
    """

    name: str
    quality: float
    input_price_per_mtok: float
    output_price_per_mtok: float
    context_window: int
    latency_base_s: float = 0.2
    latency_per_1k_tokens_s: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")
        if self.context_window <= 0:
            raise ValueError("context_window must be positive")

    def cost_usd(self, input_tokens: int, output_tokens: int) -> float:
        """Dollar cost of one call at this model's prices."""
        return (
            input_tokens * self.input_price_per_mtok
            + output_tokens * self.output_price_per_mtok
        ) / 1_000_000.0

    def latency_s(self, input_tokens: int, output_tokens: int) -> float:
        """Virtual wall-clock latency of one call."""
        return (
            self.latency_base_s
            + (input_tokens + output_tokens) / 1000.0 * self.latency_per_1k_tokens_s
        )


#: The built-in model tiers. ``sim-large`` stands in for a frontier model
#: (GPT-4-class pricing and quality), ``sim-small`` for a cheap open model
#: (Llama-7B-class), ``sim-medium`` in between. ``sim-oracle`` is a
#: zero-noise tier used by tests that need deterministic perfection.
DEFAULT_MODELS: Dict[str, ModelSpec] = {
    "sim-large": ModelSpec(
        name="sim-large",
        quality=0.95,
        input_price_per_mtok=10.0,
        output_price_per_mtok=30.0,
        context_window=128_000,
        latency_base_s=0.6,
        latency_per_1k_tokens_s=1.2,
    ),
    "sim-medium": ModelSpec(
        name="sim-medium",
        quality=0.85,
        input_price_per_mtok=1.0,
        output_price_per_mtok=3.0,
        context_window=32_000,
        latency_base_s=0.3,
        latency_per_1k_tokens_s=0.6,
    ),
    "sim-small": ModelSpec(
        name="sim-small",
        quality=0.70,
        input_price_per_mtok=0.1,
        output_price_per_mtok=0.3,
        context_window=8_000,
        latency_base_s=0.1,
        latency_per_1k_tokens_s=0.2,
    ),
    "sim-oracle": ModelSpec(
        name="sim-oracle",
        quality=1.0,
        input_price_per_mtok=10.0,
        output_price_per_mtok=30.0,
        context_window=1_000_000,
        latency_base_s=0.6,
        latency_per_1k_tokens_s=1.2,
    ),
}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a built-in model spec by name."""
    try:
        return DEFAULT_MODELS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; known: {sorted(DEFAULT_MODELS)}"
        ) from None


@dataclass
class Usage:
    """Token usage of one or more calls (additive)."""

    input_tokens: int = 0
    output_tokens: int = 0
    calls: int = 0

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens

    def add(self, other: "Usage") -> None:
        """Accumulate another usage record into this one."""
        self.input_tokens += other.input_tokens
        self.output_tokens += other.output_tokens
        self.calls += other.calls


@dataclass
class LLMResponse:
    """The result of one completion call.

    ``price_usd`` is what its tokens cost at the model's prices. Whoever
    makes the response sets it, once, and the ledger, the ``llm_request``
    span and the ``llm.*`` counters read it here. None: not priced yet
    (a backend with no price card; ``ReliableLLM`` prices it).
    """

    text: str
    model: str
    usage: Usage = field(default_factory=Usage)
    latency_s: float = 0.0
    cached: bool = False
    price_usd: Optional[float] = None

    @property
    def cost_usd(self) -> float:
        """Dollars charged: the price, or nothing for a cached response."""
        return 0.0 if self.cached else (self.price_usd or 0.0)

    @property
    def saved_usd(self) -> float:
        """Dollars a cached response avoided: its price."""
        return (self.price_usd or 0.0) if self.cached else 0.0


class LLMClient(abc.ABC):
    """Protocol every LLM backend implements.

    ``complete`` is synchronous; batching and parallelism are layered on
    top by :class:`repro.llm.client.ReliableLLM` and the execution engine.
    """

    @abc.abstractmethod
    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Generate a completion for ``prompt`` using ``model``."""
