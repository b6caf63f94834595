"""The simulated LLM backend.

This is the repository's substitute for hosted models (see DESIGN.md §1).
It is a *deterministic* language model: the same (model, prompt, seed)
triple always yields the same completion. Competence comes from the task
skills in :mod:`repro.llm.skills`; fallibility comes from a per-call
noise channel scaled by the model tier's quality score, plus optional
transport-level failure injection (rate limits, transient errors,
malformed output) so the retry stack sees realistic weather.

Why this preserves the paper's behaviour: every system-level mechanism —
prompt assembly, context windows, retries, JSON repair, caching, batching,
cost accounting, and the quality/cost trade-off between model tiers — is
exercised by real code; only the internals of "the model" are synthetic.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from typing import Optional

from .base import LLMClient, LLMResponse, Usage, get_model_spec
from .cost import CostTracker
from .errors import (
    ContextWindowExceededError,
    MalformedOutputError,
    RateLimitError,
    TransientLLMError,
)
from .prompts import ParsedPrompt, parse_task_prompt_counted
from .skills import SKILLS, Noise
from .skills.summarize import summarize_text
from .tokens import count_tokens, tokens_from_counts, truncate_to_tokens


def _stable_seed(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SimulatedLLM(LLMClient):
    """Deterministic multi-tier simulated language model.

    Parameters
    ----------
    seed:
        Global seed mixed into every per-call RNG.
    failure_rate:
        Probability that a call fails with a transient transport error
        (drawn per *attempt*, so retries eventually succeed).
    rate_limit_every:
        If set, every Nth call raises :class:`RateLimitError` (a blunt but
        deterministic way to exercise backoff logic).
    malformed_rate:
        Probability that a structurally-valid completion is truncated into
        malformed output (also per-attempt, so JSON-repair retries work).
    tracker:
        Optional :class:`CostTracker` ledger to record usage into.
    real_latency_scale:
        Fraction of the model's *virtual* latency to actually sleep per
        call (default 0: calls return immediately). Scale-out experiments
        set a small value so calls are network-bound the way hosted-API
        calls are, letting pipeline parallelism genuinely overlap them.
    """

    def __init__(
        self,
        seed: int = 0,
        failure_rate: float = 0.0,
        rate_limit_every: Optional[int] = None,
        malformed_rate: float = 0.0,
        tracker: Optional[CostTracker] = None,
        real_latency_scale: float = 0.0,
    ):
        self.seed = seed
        self.failure_rate = failure_rate
        self.rate_limit_every = rate_limit_every
        self.malformed_rate = malformed_rate
        self.tracker = tracker
        self.real_latency_scale = real_latency_scale
        self._lock = threading.Lock()
        self._calls = 0
        self._attempt_rng = random.Random(seed ^ 0x5EED)

    @property
    def calls(self) -> int:
        """Total completion calls served so far."""
        return self._calls

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Generate a completion for the prompt (see LLMClient)."""
        spec = get_model_spec(model)
        # One pass takes the prompt apart and counts its words; the
        # count is the same ``count_tokens(prompt)`` would make.
        try:
            parsed: Optional[ParsedPrompt] = parse_task_prompt_counted(prompt)
        except MalformedOutputError:
            parsed = None  # free-form prompt
        words = parsed.words if parsed is not None else len(prompt.split())
        input_tokens = tokens_from_counts(words, len(prompt))
        if input_tokens > spec.context_window:
            raise ContextWindowExceededError(input_tokens, spec.context_window)

        with self._lock:
            self._calls += 1
            call_number = self._calls
            transport_draw = self._attempt_rng.random()
            malformed_draw = self._attempt_rng.random()

        if self.rate_limit_every and call_number % self.rate_limit_every == 0:
            raise RateLimitError(retry_after_s=0.01)
        if transport_draw < self.failure_rate:
            raise TransientLLMError("simulated upstream failure")

        text = self._generate(prompt, parsed, model, spec.quality, temperature)
        if malformed_draw < self.malformed_rate and text:
            text = text[: max(1, len(text) * 2 // 3)]
        if max_output_tokens is not None:
            text = truncate_to_tokens(text, max_output_tokens)

        usage = Usage(
            input_tokens=input_tokens,
            output_tokens=count_tokens(text),
            calls=1,
        )
        latency = spec.latency_s(usage.input_tokens, usage.output_tokens)
        if self.real_latency_scale > 0.0:
            time.sleep(latency * self.real_latency_scale)
        response = LLMResponse(
            text=text,
            model=model,
            usage=usage,
            latency_s=latency,
            price_usd=spec.cost_usd(usage.input_tokens, usage.output_tokens),
        )
        if self.tracker is not None:
            self.tracker.record_response(response)
        return response

    def _generate(
        self,
        prompt: str,
        parsed: Optional[ParsedPrompt],
        model: str,
        quality: float,
        temperature: float,
    ) -> str:
        """Produce the completion text for one prompt."""
        seed_parts = [str(self.seed), model, prompt]
        if temperature > 0.0:
            # Non-zero temperature de-correlates repeated sampling.
            with self._lock:
                seed_parts.append(str(self._calls))
        rng = random.Random(_stable_seed(*seed_parts))
        noise = Noise(quality=quality, rng=rng)
        if parsed is None:
            # Free-form prompt: behave like a generic instruct model and
            # return a concise restatement of the prompt's content.
            return summarize_text(prompt, max_sentences=2) or prompt[:200]
        skill = SKILLS.get(parsed.task)
        if skill is None:
            return summarize_text(parsed.sections.get("document", prompt), max_sentences=2)
        return skill(parsed.sections, noise)
