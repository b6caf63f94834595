"""repro.runtime — the shared LLM serving substrate.

A process-wide :class:`RequestScheduler` that all LLM call sites submit
:class:`LLMRequest`\\ s to: dynamic micro-batching per model, in-flight
deduplication, two-level priority admission control with backpressure,
and a :class:`SchedulerStats` snapshot for observability. See
:mod:`repro.runtime.scheduler` for the design rationale.

Invariants call sites must preserve:

* **Dedup-key alignment.** The in-flight dedup key is the byte-exact
  ``(model, prompt, max_output_tokens)`` triple at temperature 0, and
  ``ReliableLLM``'s response cache keys on the same bytes. Transform
  factories therefore render the static prefix once and append the
  document (:func:`repro.llm.prompts.append_section`) so identical logical
  requests produce identical prompt bytes — any formatting drift
  (whitespace, key ordering, f-string variation) silently defeats both
  dedup and caching without breaking correctness.
* **No lost futures.** Every admitted request's future resolves exactly
  once — with a result, the upstream exception, or
  :class:`SchedulerClosedError` on a drainless close. Waiters sharing a
  deduped future observe the same outcome, including failure.
* **Tracing hand-off.** Request spans are created at submit time under
  the caller's ambient span (so they land in the caller's trace) and
  finished by the dispatcher; batch spans are separate trace roots that
  member spans reference by id via the ``batch_span`` attribute, never
  by parentage (one batch serves many queries). See ``DESIGN.md`` §9.
"""

from .client import ScheduledLLM
from .scheduler import (
    LLMRequest,
    Priority,
    RequestScheduler,
    SchedulerClosedError,
    SchedulerError,
    SchedulerSaturatedError,
    SchedulerStats,
)

__all__ = [
    "LLMRequest",
    "Priority",
    "RequestScheduler",
    "ScheduledLLM",
    "SchedulerClosedError",
    "SchedulerError",
    "SchedulerSaturatedError",
    "SchedulerStats",
]
