"""A client-shaped adapter over the scheduler.

Call sites written against :class:`repro.llm.base.LLMClient` (transform
factories, the Luna planner, the RAG generator) do not need to know about
futures or priorities: :class:`ScheduledLLM` binds a scheduler and a
priority class and exposes the familiar ``complete`` / ``complete_json``
/ ``complete_many`` surface, routing every call through the shared queue.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..lifecycle.deadline import wait_future
from ..llm.base import LLMClient, LLMResponse
from ..llm.client import ReliableLLM
from .scheduler import Priority, RequestScheduler


class ScheduledLLM(LLMClient):
    """LLMClient facade that submits through a :class:`RequestScheduler`.

    Parameters
    ----------
    scheduler:
        The shared scheduler to submit to.
    priority:
        Admission class for every call made through this adapter.

    A caller blocks until the scheduler resolves its future (the
    scheduler never loses one) or its own lifecycle scope ends the wait.
    """

    def __init__(
        self,
        scheduler: RequestScheduler,
        priority: "Priority | int | str" = Priority.BULK,
    ):
        self.scheduler = scheduler
        self.priority = priority

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Submit through the scheduler and block for the response."""
        return self.scheduler.complete(
            prompt,
            model=model,
            max_output_tokens=max_output_tokens,
            temperature=temperature,
            priority=self.priority,
        )

    #: The reliability layer's malformed-output retry loop, run through
    #: this adapter's ``complete`` and ``_drop_cached``: a retry nudges the
    #: temperature, which also takes it out of the dedup/batch pool, so it
    #: is never collapsed onto the in-flight request that produced garbage.
    complete_json = ReliableLLM.complete_json

    def _drop_cached(
        self, model: str, prompt: str, max_output_tokens: Optional[int]
    ) -> None:
        """Drop a poisoned response from the scheduler client's cache, so
        the retry reaches the backend."""
        client = self.scheduler.client
        if isinstance(client, ReliableLLM):
            client._drop_cached(model, prompt, max_output_tokens)

    def complete_many(
        self,
        prompts: List[str],
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        parallelism: int = 8,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Submit all prompts at once and gather in input order.

        The scheduler does the batching; ``parallelism`` is accepted for
        interface compatibility but concurrency is governed by the
        scheduler's dispatch configuration.
        """
        del parallelism
        futures = [
            self.scheduler.submit(
                prompt,
                model=model,
                max_output_tokens=max_output_tokens,
                priority=self.priority,
            )
            for prompt in prompts
        ]
        results: List[Any] = []
        for future in futures:
            try:
                # Scope-aware gather: a cancelled/expired query stops
                # waiting here with its typed error instead of riding
                # shared futures to completion.
                results.append(wait_future(future))
            except Exception as exc:  # noqa: BLE001 - isolate per request
                if not return_exceptions:
                    raise
                results.append(exc)
        return results
