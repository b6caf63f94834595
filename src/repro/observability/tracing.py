"""Hierarchical query tracing with cross-thread span propagation.

A :class:`Tracer` produces :class:`Span`\\ s with stable, sequential ids
(``s000001``) grouped into traces (``t0001``). The hierarchy for a Luna
query is::

    query                         (root — one per query)
    ├── plan                      (LLM planning)
    ├── optimize / codegen
    └── op[i]:<Operation>         (one per plan node)
        └── transform:<node>      (one per record, executor task)
            └── llm:<model>       (one per LLM request)

Span-propagation rules (the invariants instrumented code relies on):

* The *current* span lives in a :mod:`contextvars` ``ContextVar`` shared
  by every tracer in the process; ``start_span`` parents new spans to it
  unless an explicit parent is given.
* Crossing a thread pool requires carrying the submitter's context:
  the execution engine and ``ReliableLLM.complete_many`` submit tasks
  via ``contextvars.copy_context().run`` so a worker thread sees the
  submitting thread's current span (one Context copy per task — a
  single Context object cannot be entered concurrently).
* The scheduler's dispatch thread has no caller context by design: a
  batch serves requests from *many* queries. Request spans are created
  at submit time (under the submitter's context) and *linked* to the
  batch span via the ``batch_span`` attribute instead of being
  reparented; the batch span lives in its own trace.
* Spans are recorded at start (open spans are visible in snapshots) and
  immutable-by-convention after :meth:`Tracer.finish`.
* Retention is by trace: once more than ``max_spans`` spans are held,
  the oldest traces whose root span has finished are evicted whole.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional

#: The ambient span, shared process-wide so parent discovery works across
#: component boundaries regardless of which Tracer instance records.
_CURRENT_SPAN: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_current_span", default=None
)

#: Sentinel meaning "parent from the ambient context var".
_AMBIENT = object()


#: Default retention bound of a :class:`Tracer`, in spans. A Luna scan
#: query holds about one span per document, so this keeps the last few
#: hundred queries over a 200-document index in some 10 MB.
MAX_RETAINED_SPANS = 16_000


@dataclass(slots=True)
class Span:
    """One timed operation in a trace."""

    span_id: str
    trace_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    start_s: float
    end_s: Optional[float] = None
    status: str = "ok"
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """Whether :meth:`Tracer.finish` has been called on this span."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attributes(self, **attributes: Any) -> None:
        """Merge attributes into the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-exportable view of the span."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": round(self.start_s, 6),
            "end_s": round(self.end_s, 6) if self.end_s is not None else None,
            "duration_s": round(self.duration_s, 6),
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }


class _Ambient:
    """``with`` scope in which a span is the ambient one; with an
    ``owner`` the span is also finished on the way out. A class, not a
    generator: a scope is entered per LLM call and per record."""

    __slots__ = ("_span", "_owner", "_token")

    def __init__(self, span: Optional[Span], owner: "Optional[Tracer]"):
        self._span = span
        self._owner = owner

    def __enter__(self) -> Any:  # the span, typed by span() and attach()
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Optional[BaseException], traceback: Any) -> None:
        _CURRENT_SPAN.reset(self._token)
        if self._owner is None or self._span is None:
            return
        if exc is None:
            self._owner.finish(self._span)
        else:
            self._owner.finish(self._span, "error", f"{type(exc).__name__}: {exc}")


class Tracer:
    """Creates, records and snapshots spans.

    Thread-safe. Ids are sequential under a lock, so a single-threaded
    run is fully deterministic and a concurrent run is stable enough to
    diff. ``max_spans`` bounds memory by keeping recent traces: past it,
    the oldest trace whose root has finished is evicted with all its
    spans, so the trace of the query that just ran is always complete.
    A trace whose root is still open is never evicted, which lets one
    huge query exceed the bound rather than lose its own spans.
    ``dropped_spans`` counts spans that could not be retained when they
    were created: late children of a trace that was already evicted.
    """

    def __init__(self, max_spans: int = MAX_RETAINED_SPANS):
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: Dict[str, Span] = {}
        self._traces: Dict[str, List[str]] = {}
        self._span_counter = 0
        self._trace_counter = 0
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    # Creation / completion
    # ------------------------------------------------------------------

    @staticmethod
    def current() -> Optional[Span]:
        """The ambient span of the calling context (or None)."""
        return _CURRENT_SPAN.get()

    def start_span(
        self,
        name: str,
        kind: str = "internal",
        parent: "Span | None | object" = _AMBIENT,
        **attributes: Any,
    ) -> Span:
        """Create (and record) a new span.

        ``parent`` defaults to the ambient span; pass ``None`` to force a
        new root (which starts a new trace).
        """
        if parent is _AMBIENT:
            parent = _CURRENT_SPAN.get()
        now = time.monotonic()
        with self._lock:
            self._span_counter += 1
            span_id = f"s{self._span_counter:06d}"
            if parent is not None:
                trace_id = parent.trace_id
                parent_id = parent.span_id
            else:
                self._trace_counter += 1
                trace_id = f"t{self._trace_counter:04d}"
                parent_id = None
            span = Span(
                span_id=span_id,
                trace_id=trace_id,
                parent_id=parent_id,
                name=name,
                kind=kind,
                start_s=now,
                attributes=dict(attributes),
            )
            if parent is None:
                self._traces[trace_id] = [span_id]
            elif trace_id in self._traces:
                self._traces[trace_id].append(span_id)
            else:
                self.dropped_spans += 1
                return span
            self._spans[span_id] = span
            if len(self._spans) > self.max_spans:
                self._evict_finished_locked()
        return span

    def _evict_finished_locked(self) -> None:
        """Evict the oldest traces whose root has finished, down to the bound."""
        excess = len(self._spans) - self.max_spans
        finished = []
        for trace_id, span_ids in self._traces.items():
            if excess <= 0:
                break
            if self._spans[span_ids[0]].end_s is not None:
                finished.append(trace_id)
                excess -= len(span_ids)
        for trace_id in finished:
            for span_id in self._traces.pop(trace_id):
                del self._spans[span_id]

    def finish(
        self, span: Span, status: str = "ok", error: Optional[str] = None
    ) -> Span:
        """Close the span (idempotent — the first finish wins)."""
        if span.end_s is None:
            span.end_s = time.monotonic()
            span.status = status
            span.error = error
        return span

    def span(
        self,
        name: str,
        kind: str = "internal",
        parent: "Span | None | object" = _AMBIENT,
        **attributes: Any,
    ) -> ContextManager[Span]:
        """Context manager: start a span, make it ambient, finish on exit.

        An escaping exception marks the span ``error`` and re-raises.
        """
        return _Ambient(self.start_span(name, kind=kind, parent=parent, **attributes), self)

    def attach(self, span: Optional[Span]) -> ContextManager[Optional[Span]]:
        """Make an existing span ambient without owning its lifetime.

        Used to re-establish a parent inside a worker thread or to nest
        work under the scheduler's batch span.
        """
        return _Ambient(span, None)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def get(self, span_id: str) -> Optional[Span]:
        """The retained span with this id, if any."""
        with self._lock:
            return self._spans.get(span_id)

    def spans(self) -> List[Span]:
        """Every retained span, in creation order."""
        with self._lock:
            return list(self._spans.values())

    def trace_ids(self) -> List[str]:
        """All trace ids, in creation order."""
        with self._lock:
            return list(self._traces)

    def trace_spans(self, trace_id: str) -> List[Span]:
        """The spans of one trace, in creation order."""
        with self._lock:
            return [self._spans[sid] for sid in self._traces.get(trace_id, [])]

    def last_trace(self, kind: Optional[str] = None) -> Optional[str]:
        """The most recent trace id (optionally: whose root has ``kind``)."""
        with self._lock:
            for trace_id in reversed(self._traces):
                if kind is None:
                    return trace_id
                root_id = self._traces[trace_id][0]
                if self._spans[root_id].kind == kind:
                    return trace_id
        return None

    def reset(self) -> None:
        """Drop every retained span and trace (counters keep advancing,
        so ids stay unique across the tracer's lifetime)."""
        with self._lock:
            self._spans.clear()
            self._traces.clear()
            self.dropped_spans = 0
