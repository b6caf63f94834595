"""LLM runtime: model specs, simulated backend, reliability layer, cost ledger.

Typical wiring::

    from repro.llm import CostTracker, ReliableLLM, SimulatedLLM

    tracker = CostTracker()
    llm = ReliableLLM(SimulatedLLM(seed=7, tracker=tracker))
    response = llm.complete(prompt, model="sim-large")

All Sycamore LLM transforms and Luna operators accept any
:class:`LLMClient`, so a hosted backend can be dropped in by implementing
``complete``.
"""

from .base import DEFAULT_MODELS, LLMClient, LLMResponse, ModelSpec, Usage, get_model_spec
from .client import CircuitBreaker, ReliableLLM, repair_json
from .cost import CallRecord, CostSummary, CostTracker
from .errors import (
    CircuitOpenError,
    ContextWindowExceededError,
    LLMError,
    LLMTimeoutError,
    MalformedOutputError,
    RateLimitError,
    TransientLLMError,
    UnknownModelError,
)
from .prompts import (
    ANSWER_QUESTION,
    CLASSIFY_TEXT,
    EXTRACT_ENTITIES,
    EXTRACT_PROPERTIES,
    FILTER_DOCUMENT,
    PLAN_QUERY,
    PromptTemplate,
    SUMMARIZE_COLLECTION,
    SUMMARIZE_DOCUMENT,
    append_section,
    parse_task_prompt,
    render_task_prompt,
    split_into_chunks,
)
from .simulated import SimulatedLLM
from .tokens import count_tokens, truncate_to_tokens

__all__ = [
    "ANSWER_QUESTION",
    "CLASSIFY_TEXT",
    "CallRecord",
    "CircuitBreaker",
    "CircuitOpenError",
    "ContextWindowExceededError",
    "CostSummary",
    "CostTracker",
    "DEFAULT_MODELS",
    "EXTRACT_ENTITIES",
    "EXTRACT_PROPERTIES",
    "FILTER_DOCUMENT",
    "LLMClient",
    "LLMError",
    "LLMResponse",
    "LLMTimeoutError",
    "MalformedOutputError",
    "ModelSpec",
    "PLAN_QUERY",
    "PromptTemplate",
    "RateLimitError",
    "ReliableLLM",
    "SUMMARIZE_COLLECTION",
    "SUMMARIZE_DOCUMENT",
    "SimulatedLLM",
    "TransientLLMError",
    "UnknownModelError",
    "Usage",
    "append_section",
    "count_tokens",
    "get_model_spec",
    "parse_task_prompt",
    "render_task_prompt",
    "repair_json",
    "split_into_chunks",
    "truncate_to_tokens",
]
