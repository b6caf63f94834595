"""Timing wrappers for the traced run, and the span accounting.

The wrappers sit at seams the program's constructors already offer: the
LLM backend handed to ``ReliableLLM``, the ``embedder=`` argument and the
partitioner object. Each records a span into the context's own
``Tracer``, so bench spans nest under the program's spans through the
ambient-span context variable. End-to-end runs use none of them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.llm.base import LLMClient, LLMResponse
from repro.observability.tracing import Span, Tracer

#: Span kinds the program emits; any other program kind is summed as
#: ``other`` (the cluster coordinator's spans are ``internal``).
PROGRAM_KINDS = ("serve", "query", "plan", "operator", "transform", "llm_request", "batch")
BENCH_KINDS = ("bench.request", "bench.backend", "bench.embed", "bench.partition")


class TimedBackend(LLMClient):
    """An LLM backend that times every call into the real one."""

    def __init__(self, inner: LLMClient, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        # ReliableLLM adopts its backend's ledger through this attribute.
        self.tracker = getattr(inner, "tracker", None)
        self._lock = threading.Lock()
        self.busy_s = 0.0

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        started = time.perf_counter()
        try:
            with self.tracer.span("bench:backend", kind="bench.backend"):
                return self.inner.complete(prompt, model, max_output_tokens, temperature)
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.busy_s += elapsed


class TimedEmbedder:
    """An embedder that times every ``embed`` call."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.dimensions = inner.dimensions

    def embed(self, text: str) -> Any:
        with self.tracer.span("bench:embed", kind="bench.embed"):
            return self.inner.embed(text)

    def embed_many(self, texts: Iterable[str]) -> List[Any]:
        return [self.embed(text) for text in texts]


class TimedPartitioner:
    """A partitioner that times every ``partition`` call."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def partition(self, source: Any) -> Any:
        with self.tracer.span("bench:partition", kind="bench.partition"):
            return self.inner.partition(source)


def span_rows(spans: List[Span], prefix: str = "") -> List[Dict[str, Any]]:
    """The rows of ``trace_<workload>.json``: name, start, end, parent and
    the identifier the spans of one request share. ``prefix`` keeps ids
    of different tracers apart."""
    rows = []
    for span in spans:
        if span.end_s is None:
            continue
        rows.append(
            {
                "id": prefix + span.span_id,
                "parent": prefix + span.parent_id if span.parent_id else None,
                "trace": prefix + span.trace_id,
                "request_id": span.attributes.get("request_id", ""),
                "name": span.name,
                "kind": span.kind,
                "start_s": span.start_s,
                "end_s": span.end_s,
            }
        )
    return rows


def adopt_serve_spans(rows: List[Dict[str, Any]]) -> None:
    """Hang each ``serve`` root under the client request that caused it.

    The HTTP hop breaks the ambient-span chain, but the client's
    ``X-Request-Id`` is echoed into the serve span's attributes.
    """
    requests = {
        row["request_id"]: row["id"]
        for row in rows
        if row["kind"] == "bench.request" and row["request_id"]
    }
    for row in rows:
        if row["kind"] == "serve" and row["parent"] is None:
            row["parent"] = requests.get(row["request_id"])


def self_times(
    rows: List[Dict[str, Any]], window_start: float, window_end: float
) -> Dict[str, float]:
    """Wall-normalised self time per span kind inside a window.

    A span's self time is its duration minus the part its children
    cover. Under parallelism plain self times add up to thread-seconds,
    not wall, so each instant of the window is instead shared equally
    among the spans that are open and have no open child. The kinds then
    sum, with ``unattributed`` (no span open), to the window exactly.
    """
    events = []
    for row in rows:
        start = max(row["start_s"], window_start)
        end = min(row["end_s"], window_end)
        if end > start:
            events.append((start, 1, row["id"]))
            events.append((end, 0, row["id"]))
    # At equal times ends sort before starts, so back-to-back siblings
    # never overlap, and a parent (lower id) starts before its child.
    events.sort()
    by_id = {row["id"]: row for row in rows}
    open_children: Dict[str, int] = {}
    leaves: Dict[str, int] = {}
    totals: Dict[str, float] = {"unattributed": 0.0}
    cursor = window_start

    def shift(kind: str, delta: int) -> None:
        leaves[kind] = leaves.get(kind, 0) + delta

    for at, is_start, span_id in events:
        elapsed = at - cursor
        if elapsed > 0:
            n_leaves = sum(leaves.values())
            if n_leaves == 0:
                totals["unattributed"] += elapsed
            else:
                for kind, count in leaves.items():
                    if count:
                        totals[kind] = totals.get(kind, 0.0) + elapsed * count / n_leaves
        cursor = at
        row = by_id[span_id]
        parent = row["parent"]
        parent_open = parent in open_children
        if is_start:
            open_children[span_id] = 0
            shift(row["kind"], 1)
            if parent_open:
                if open_children[parent] == 0:
                    shift(by_id[parent]["kind"], -1)
                open_children[parent] += 1
        else:
            if open_children.pop(span_id) == 0:
                shift(row["kind"], -1)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    shift(by_id[parent]["kind"], 1)
    totals["unattributed"] += max(0.0, window_end - cursor)
    return totals
