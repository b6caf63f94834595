"""End-to-end deadlines and cooperative cancellation.

A served query is admitted with a wall-clock *budget*; everything it does
afterwards — queue waits, micro-batch windows, retry backoff, LLM calls —
must fit inside that budget. The primitives here make that a single
discipline instead of N ad-hoc timeouts:

* :class:`Deadline` — an absolute expiry on the monotonic clock. Every
  blocking point asks it for :meth:`Deadline.remaining` and waits for *at
  most* that long; nobody stores a relative timeout that silently
  compounds across layers (the bug fixed in ``ReliableLLM``: per-attempt
  timeouts multiplied by retries).
* :class:`CancelScope` — a cancellation token optionally carrying a
  deadline. ``cancel()`` is cooperative: in-flight work observes it at
  the next checkpoint (:meth:`CancelScope.check`), raising a typed
  :class:`QueryCancelled`. Deadline expiry raises a typed
  :class:`DeadlineExceeded` from the same checkpoint.
* A :mod:`contextvars` carrier — :func:`attach_scope` installs the scope
  for the current logical thread of control, and the deep layers
  (executor record loops, the LLM reliability layer, future waits)
  consult :func:`current_scope` without any parameter plumbing. The
  execution engine already copies contexts into its worker pools, so the
  scope rides along into parallel per-record tasks for free.

The scope is advisory, never preemptive: a checkpoint that is never
reached cannot interrupt anything. The system therefore places
checkpoints at every queue pop, batch formation, retry sleep, record
boundary and future wait — the places where a long query actually spends
its time.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class LifecycleError(RuntimeError):
    """Base class for query-lifecycle failures."""


class DeadlineExceeded(LifecycleError):
    """The query's end-to-end budget ran out.

    Carries machine-readable context: the configured budget, how far past
    it the query was when the expiry was observed, and a ``retry_after_s``
    hint (how long a caller should wait before retrying — the serving
    layer fills it from queue depth and recent latency).
    """

    def __init__(
        self,
        message: str,
        budget_s: float = 0.0,
        elapsed_s: float = 0.0,
        retry_after_s: float = 0.0,
    ):
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.retry_after_s = retry_after_s


class QueryCancelled(LifecycleError):
    """The query was cancelled by its submitter (or a service teardown)."""

    def __init__(self, message: str, query_id: str = "", reason: str = ""):
        super().__init__(message)
        self.query_id = query_id
        self.reason = reason


class Deadline:
    """An absolute expiry on an injectable monotonic clock.

    Created once at admission; every layer below derives its timeout from
    :meth:`remaining` so waits never outlive the end-to-end budget.
    """

    def __init__(
        self, budget_s: float, clock: Callable[[], float] = time.monotonic
    ):
        if budget_s <= 0:
            raise ValueError("budget_s must be > 0")
        self.budget_s = budget_s
        self._clock = clock
        self.started_at = clock()

    @classmethod
    def after(
        cls, budget_s: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        return cls(budget_s, clock=clock)

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self._clock() - self.started_at

    def remaining(self) -> float:
        """Budget left, floored at zero."""
        return max(0.0, self.budget_s - self.elapsed())

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.elapsed() >= self.budget_s

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when the budget has run out."""
        elapsed = self.elapsed()
        if elapsed >= self.budget_s:
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exceeded "
                f"({elapsed:.3f}s elapsed)",
                budget_s=self.budget_s,
                elapsed_s=elapsed,
            )

    def __repr__(self) -> str:
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.3f})"


class CancelScope:
    """A cooperative cancellation token, optionally deadline-bounded.

    One scope travels with one query. :meth:`check` is the universal
    checkpoint: it raises :class:`QueryCancelled` after :meth:`cancel`,
    or :class:`DeadlineExceeded` once the attached deadline expires.
    Thread-safe: any thread may cancel; any thread may check.
    """

    def __init__(self, deadline: Optional[Deadline] = None, query_id: str = ""):
        self.deadline = deadline
        self.query_id = query_id
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "") -> bool:
        """Request cancellation; returns True the first time."""
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self._reason = reason
            return True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        with self._lock:
            return self._cancelled

    @property
    def cancel_reason(self) -> str:
        """The reason recorded by the first :meth:`cancel` call."""
        with self._lock:
            return self._reason

    def check(self) -> None:
        """The cooperative checkpoint: raise the scope's typed failure."""
        with self._lock:
            if self._cancelled:
                raise QueryCancelled(
                    f"query {self.query_id or '<anonymous>'} cancelled"
                    + (f": {self._reason}" if self._reason else ""),
                    query_id=self.query_id,
                    reason=self._reason,
                )
        if self.deadline is not None:
            self.deadline.check()

    def remaining(self) -> Optional[float]:
        """Budget left (None when no deadline is attached)."""
        if self.deadline is None:
            return None
        return self.deadline.remaining()

    def timeout(self, default: Optional[float] = None) -> Optional[float]:
        """The timeout a blocking call under this scope should use: the
        smaller of ``default`` and the remaining budget."""
        remaining = self.remaining()
        if remaining is None:
            return default
        if default is None:
            return remaining
        return min(default, remaining)


#: The ambient scope for the current logical thread of control. Worker
#: pools that carry contextvars (the executor's per-record tasks, the
#: LLM batch pool) propagate it automatically.
_SCOPE: "contextvars.ContextVar[Optional[CancelScope]]" = contextvars.ContextVar(
    "repro_cancel_scope", default=None
)


def current_scope() -> Optional[CancelScope]:
    """The ambient :class:`CancelScope`, or None outside any query."""
    return _SCOPE.get()


@contextmanager
def attach_scope(scope: Optional[CancelScope]) -> Iterator[Optional[CancelScope]]:
    """Install ``scope`` as the ambient scope for the ``with`` body."""
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def check_scope() -> None:
    """Checkpoint against the ambient scope (no-op outside any query)."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.check()


def remaining_budget() -> Optional[float]:
    """Remaining end-to-end budget of the ambient scope (None: unbounded)."""
    scope = _SCOPE.get()
    if scope is None:
        return None
    return scope.remaining()


def effective_timeout(default: Optional[float] = None) -> Optional[float]:
    """The timeout a blocking call should use right now: the caller's
    ``default`` capped by the ambient scope's remaining budget."""
    scope = _SCOPE.get()
    if scope is None:
        return default
    return scope.timeout(default)


#: Granularity of cooperative future waits: how often a blocked caller
#: re-checks its own scope while waiting on shared work.
WAIT_POLL_S = 0.05


def wait_future(
    future: "Future[Any]",
    timeout: Optional[float] = None,
    poll_s: float = WAIT_POLL_S,
) -> Any:
    """Scope-aware ``future.result()``.

    Waits in short slices, re-checking the ambient scope between slices —
    so a caller blocked on *shared* work (a single-flight leader's
    future) observes its *own* cancellation or deadline
    instead of riding the shared call to completion. ``timeout`` bounds
    the total wait (on top of the scope's own deadline); when it elapses
    first, :class:`concurrent.futures.TimeoutError` is raised, matching
    ``Future.result``.
    """
    scope = _SCOPE.get()
    deadline_at = None if timeout is None else time.monotonic() + timeout
    while True:
        if scope is not None:
            scope.check()
        slice_s = poll_s
        if scope is not None:
            remaining = scope.remaining()
            if remaining is not None:
                slice_s = min(slice_s, max(remaining, 0.001))
        if deadline_at is not None:
            until_timeout = deadline_at - time.monotonic()
            if until_timeout <= 0:
                raise FutureTimeoutError()
            slice_s = min(slice_s, until_timeout)
        try:
            return future.result(timeout=slice_s)
        except FutureTimeoutError:
            continue
