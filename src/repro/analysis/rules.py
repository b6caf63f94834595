"""The project lint rules.

Each rule encodes a bug class this codebase has actually hit (or is one
refactor away from hitting): the RateLimiter sleep-under-lock fixed by
hand in PR 1, dispatch futures dropped on the floor, executors that
outlive their owners. The heuristics are deliberately narrow — a small
number of high-confidence checks with inline suppressions for the
legitimate exceptions — rather than a general-purpose linter.

Rule catalog (ids):

* ``blocking-call-under-lock`` — sleeps, ``Future.result()``,
  thread joins, LLM ``.complete*()`` calls, ``add_done_callback``
  (may run the callback inline), or acquiring a *different* lock,
  inside a ``with <lock>:`` body.
* ``bare-lock-acquire`` — ``lock.acquire()`` outside both a ``with``
  statement and a ``try/finally`` that releases it.
* ``executor-never-shutdown`` — a ``ThreadPoolExecutor`` stored on
  ``self`` (or module/function state) with no ``.shutdown()`` call in
  the same scope.
* ``thread-never-joined`` — a ``threading.Thread`` stored on ``self``
  with no ``.join()`` call in the class.
* ``swallowed-future`` — the future returned by ``.submit()``
  discarded as a bare expression statement.
* ``metric-name-drift`` — a metric name outside the documented
  namespaces (see :data:`METRIC_NAMESPACES`).
* ``naive-wall-clock`` — ``time.time()`` / naive ``datetime.now()``
  where spans and durations require monotonic clocks.
* ``timeout-not-propagated`` — unbounded blocking waits
  (``Future.result()``, ``Queue.get()``, ``Condition.wait()``,
  ``Event.wait()`` with no timeout) inside the packages a served query
  runs through (``repro.serving`` / ``repro.runtime`` /
  ``repro.execution`` / ``repro.cluster`` / ``repro.gateway``), where
  every wait must be bounded, by the query's remaining deadline budget
  or by the gateway's connection timeout.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from .engine import FileContext, Finding, Rule, register

__all__ = ["METRIC_NAMESPACES"]

#: Documented metric namespaces (DESIGN.md §9): every metric registered
#: with the process registry must live under one of these prefixes.
METRIC_NAMESPACES: Tuple[str, ...] = (
    "llm.",
    "scheduler.",
    "executor.",
    "serving.",
    "partitioner.",
    "faults.",
    "rag.",
    "analysis.",
    "lifecycle.",
    "cluster.",
    "optimizer.",
    "gateway.",
)

#: Terminal-name heuristic for "this expression is a lock-like object".
_LOCKISH_RE = re.compile(
    r"(?:^|_)(?:lock|locks|cond|condition|mutex|cv|sem|sema|semaphore|slot|slots)$"
)

#: Method names that perform an LLM round-trip.
_LLM_CALLS = {"complete", "complete_json", "complete_many"}

#: Scope boundaries: code inside these runs later, not under the lock.
_DEFERRED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _terminal_name(expr: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain, else None."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_lockish(expr: ast.AST) -> bool:
    name = _terminal_name(expr)
    if name is None:
        return False
    return bool(_LOCKISH_RE.search(name.strip("_").lower()))


def _expr_key(expr: ast.AST) -> str:
    """Structural identity for comparing lock expressions."""
    return ast.dump(expr)


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


# ----------------------------------------------------------------------
# blocking-call-under-lock
# ----------------------------------------------------------------------


@register
class BlockingCallUnderLock(Rule):
    id = "blocking-call-under-lock"
    description = (
        "A blocking operation (sleep, Future.result, thread join, LLM "
        "call, inline done-callback, second lock) inside a with-lock body "
        "stalls every other thread contending for that lock."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, held=[], findings=findings)
        return iter(findings)

    # The walk tracks the stack of currently held lock expressions and
    # stops at function/class boundaries (deferred execution).
    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        held: List[str],
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFERRED_SCOPES):
                # A nested def/lambda/class body does not run under the
                # lock; restart lock tracking inside it.
                self._walk(ctx, child, held=[], findings=findings)
                continue
            if isinstance(child, ast.With):
                self._visit_with(ctx, child, held, findings)
                continue
            if held and isinstance(child, ast.Call):
                self._classify_call(ctx, child, held, findings)
            self._walk(ctx, child, held, findings)

    def _visit_with(
        self,
        ctx: FileContext,
        node: ast.With,
        held: List[str],
        findings: List[Finding],
    ) -> None:
        acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            if not _is_lockish(expr):
                continue
            key = _expr_key(expr)
            if held and key not in held:
                findings.append(
                    self.finding(
                        ctx,
                        expr,
                        f"acquires '{ast.unparse(expr)}' while already "
                        f"holding a lock (nested locking: hold-time and "
                        f"lock-order hazard)",
                    )
                )
            acquired.append(key)
        for item in node.items:
            # Non-lock context managers may still contain calls to check.
            if held and isinstance(item.context_expr, ast.Call):
                self._classify_call(ctx, item.context_expr, held, findings)
        self._walk(ctx, ast.Module(body=node.body, type_ignores=[]),
                   held + acquired, findings)

    def _classify_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        held: List[str],
        findings: List[Finding],
    ) -> None:
        func = call.func
        name = _terminal_name(func)
        if name is None:
            return
        receiver = func.value if isinstance(func, ast.Attribute) else None

        def flag(reason: str) -> None:
            findings.append(
                self.finding(ctx, call, f"{reason} while holding a lock")
            )

        if name in ("sleep", "_sleeper", "sleeper"):
            flag(f"blocking sleep '{ast.unparse(func)}(...)'")
        elif name == "result" and receiver is not None:
            flag("Future.result() blocks")
        elif name == "join" and receiver is not None:
            if self._looks_like_thread_join(receiver, call):
                flag("thread join blocks")
        elif name == "acquire" and receiver is not None:
            if _expr_key(receiver) not in held:
                flag(f"acquiring '{ast.unparse(receiver)}'")
        elif name == "wait" and receiver is not None:
            # Condition.wait on the held lock *releases* it: allowed.
            if _expr_key(receiver) not in held:
                flag(f"waiting on '{ast.unparse(receiver)}'")
        elif name in _LLM_CALLS and receiver is not None:
            flag(f"LLM call '.{name}()' (network/model latency)")
        elif name == "add_done_callback" and receiver is not None:
            flag("add_done_callback may run the callback inline")

    @staticmethod
    def _looks_like_thread_join(receiver: ast.AST, call: ast.Call) -> bool:
        """Distinguish ``worker.join(timeout)`` from ``sep.join(parts)``."""
        if isinstance(receiver, ast.Constant):
            return False  # "...".join(parts)
        if any(kw.arg == "timeout" for kw in call.keywords):
            return True
        if not call.args and not call.keywords:
            return True  # t.join()
        return len(call.args) == 1 and _is_number(call.args[0])


# ----------------------------------------------------------------------
# bare-lock-acquire
# ----------------------------------------------------------------------


@register
class BareLockAcquire(Rule):
    id = "bare-lock-acquire"
    description = (
        "lock.acquire() without a with-statement or try/finally release "
        "leaks the lock if anything in between raises."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
                continue
            if not _is_lockish(func.value):
                continue
            if self._released_in_finally(ctx.tree, call, func.value):
                continue
            yield self.finding(
                ctx,
                call,
                f"'{ast.unparse(func.value)}.acquire()' without a "
                f"with-statement or try/finally release",
            )

    @staticmethod
    def _released_in_finally(
        tree: ast.AST, call: ast.Call, lock_expr: ast.AST
    ) -> bool:
        """True when a try/finally in scope releases the same lock at or
        after the acquire (both 'acquire inside try body' and 'acquire
        immediately before try' idioms)."""
        key = _expr_key(lock_expr)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            releases = any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "release"
                and _expr_key(inner.func.value) == key
                for stmt in node.finalbody
                for inner in ast.walk(stmt)
            )
            if not releases:
                continue
            if node.lineno >= call.lineno - 2:
                in_try = any(
                    inner is call
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                )
                if in_try or node.lineno >= call.lineno:
                    return True
        return False


# ----------------------------------------------------------------------
# executor-never-shutdown / thread-never-joined
# ----------------------------------------------------------------------


def _call_names_in(node: ast.AST) -> Set[str]:
    """All ``x.<attr>()`` attribute names called anywhere under node."""
    names: Set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
            names.add(inner.func.attr)
    return names


def _creates(call: ast.Call, type_names: Set[str]) -> bool:
    name = _terminal_name(call.func)
    return name in type_names


@register
class ExecutorNeverShutdown(Rule):
    id = "executor-never-shutdown"
    description = (
        "A pool executor stored on an object or module with no "
        ".shutdown() in the same scope leaks its worker threads."
    )

    _TYPES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in ast.walk(ctx.tree):
            if isinstance(scope, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, scope)
        yield from self._check_module(ctx)

    def _assignments(self, scope: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _creates(node.value, self._TYPES):
                    yield node.value

    def _check_scope(self, ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
        creations = list(self._assignments(scope))
        if not creations:
            return
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Assignments to self.* belong to the class's lifecycle, not
            # the method's; the enclosing ClassDef pass covers them.
            creations = [
                c
                for c in creations
                if not self._assigned_to_self(scope, c)
            ]
            if not creations:
                return
        if "shutdown" in _call_names_in(scope):
            return
        for creation in creations:
            yield self.finding(
                ctx,
                creation,
                "executor created but never .shutdown() in this scope",
            )

    @staticmethod
    def _assigned_to_self(scope: ast.AST, call: ast.Call) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and node.value is call:
                return any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                )
        return False

    def _check_module(self, ctx: FileContext) -> Iterator[Finding]:
        module_assigns = [
            node.value
            for node in ctx.tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _creates(node.value, self._TYPES)
        ]
        if module_assigns and "shutdown" not in _call_names_in(ctx.tree):
            for creation in module_assigns:
                yield self.finding(
                    ctx,
                    creation,
                    "module-level executor never .shutdown()",
                )


@register
class ThreadNeverJoined(Rule):
    id = "thread-never-joined"
    description = (
        "A Thread stored on self with no .join() in the class outlives "
        "its owner; shutdown order becomes undefined."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, ast.ClassDef):
                continue
            creations = [
                node.value
                for node in ast.walk(scope)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _creates(node.value, {"Thread"})
                and any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                )
            ]
            if creations and "join" not in _call_names_in(scope):
                for creation in creations:
                    yield self.finding(
                        ctx,
                        creation,
                        "thread stored on self but never .join() in this class",
                    )


# ----------------------------------------------------------------------
# swallowed-future
# ----------------------------------------------------------------------


@register
class SwallowedFuture(Rule):
    id = "swallowed-future"
    description = (
        "The future returned by .submit() is discarded: failures vanish "
        "and nothing observes completion."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "submit"
            ):
                yield self.finding(
                    ctx,
                    call,
                    f"result of '{ast.unparse(call.func)}(...)' discarded; "
                    f"exceptions in the task are silently lost",
                )


# ----------------------------------------------------------------------
# metric-name-drift
# ----------------------------------------------------------------------


@register
class MetricNameDrift(Rule):
    id = "metric-name-drift"
    description = (
        "Metric names must live under the documented namespaces so "
        "dashboards and tests can rely on them."
    )

    _FACTORIES = {"counter", "gauge", "histogram"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._FACTORIES
                and call.args
            ):
                continue
            name = self._literal_head(call.args[0])
            if name is None:
                continue
            if not name.startswith(METRIC_NAMESPACES):
                yield self.finding(
                    ctx,
                    call,
                    f"metric name {name!r} outside documented namespaces "
                    f"{'/'.join(ns.rstrip('.') for ns in METRIC_NAMESPACES)}",
                )

    @staticmethod
    def _literal_head(arg: ast.AST) -> Optional[str]:
        """The constant (or constant-prefixed f-string) metric name."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return head.value
        return None


# ----------------------------------------------------------------------
# timeout-not-propagated
# ----------------------------------------------------------------------


@register
class TimeoutNotPropagated(Rule):
    id = "timeout-not-propagated"
    description = (
        "An unbounded blocking wait in a hot-path package ignores the "
        "query's deadline: a wedged dependency wedges the caller forever "
        "instead of failing typed when the budget runs out."
    )

    #: Only the packages on a served query's critical path: every wait
    #: there must be bounded (gateway connection threads included).
    _HOT_PATHS = (
        "repro/serving",
        "repro/runtime",
        "repro/execution",
        "repro/cluster",
        "repro/gateway",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if not any(fragment in normalized for fragment in self._HOT_PATHS):
            return
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            # Bare wait(...) is concurrent.futures.wait — it takes an
            # explicit timeout parameter and is checked separately below;
            # only attribute calls (obj.wait/obj.result/obj.get) are the
            # Condition/Event/Future/Queue shapes this rule targets.
            if not isinstance(func, ast.Attribute):
                continue
            if self._has_timeout(call):
                continue
            receiver = ast.unparse(func.value)
            if func.attr == "result":
                yield self.finding(
                    ctx,
                    call,
                    f"'{receiver}.result()' without a timeout blocks "
                    f"forever; bound it by the remaining deadline budget "
                    f"(lifecycle.wait_future)",
                )
            elif func.attr == "wait" and _is_waitable(func.value):
                yield self.finding(
                    ctx,
                    call,
                    f"'{receiver}.wait()' without a timeout never observes "
                    f"cancellation or deadline expiry",
                )
            elif func.attr == "get" and not call.args and not call.keywords:
                # Zero-arg .get() only: dict.get(key) and queue.get(block,
                # timeout) both carry arguments, a bare q.get() is the
                # unbounded Queue.get shape.
                if _is_queueish(func.value):
                    yield self.finding(
                        ctx,
                        call,
                        f"'{receiver}.get()' without a timeout blocks "
                        f"forever on an empty queue",
                    )

    @staticmethod
    def _has_timeout(call: ast.Call) -> bool:
        """True when any positional arg or a timeout= keyword bounds the
        wait (Future.result(5) and cond.wait(timeout=x) both count)."""
        if call.args:
            return True
        return any(kw.arg == "timeout" for kw in call.keywords)


def _is_waitable(expr: ast.AST) -> bool:
    """Condition/Event-shaped receiver names (cond, event, _cv, done...)."""
    name = _terminal_name(expr)
    if name is None:
        return False
    return bool(
        re.search(
            r"(?:^|_)(?:cond|condition|cv|event|ready|done|stop|stopped|closed|"
            r"shutdown|latch|barrier|gate|flag)s?$",
            name.strip("_").lower(),
        )
    )


def _is_queueish(expr: ast.AST) -> bool:
    """Queue-shaped receiver names (queue, _q, inbox, work_items...)."""
    name = _terminal_name(expr)
    if name is None:
        return False
    return bool(
        re.search(
            r"(?:^|_)(?:q|queue|queues|inbox|outbox|mailbox|work_items|backlog)$",
            name.strip("_").lower(),
        )
    )


# ----------------------------------------------------------------------
# naive-wall-clock
# ----------------------------------------------------------------------


@register
class NaiveWallClock(Rule):
    id = "naive-wall-clock"
    description = (
        "Wall-clock reads go backwards under NTP slew; durations and "
        "span timing must use time.monotonic()/perf_counter(), and "
        "timestamps must be timezone-explicit."
    )

    _DATETIME_CALLS = {"now", "utcnow", "today"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = _terminal_name(func.value)
            if func.attr == "time" and receiver == "time":
                yield self.finding(
                    ctx,
                    call,
                    "time.time() is wall-clock; use time.monotonic() or "
                    "time.perf_counter() for durations",
                )
            elif (
                func.attr in self._DATETIME_CALLS
                and receiver in ("datetime", "date")
                and not call.args
                and not call.keywords
            ):
                yield self.finding(
                    ctx,
                    call,
                    f"naive {receiver}.{func.attr}(); pass an explicit "
                    f"timezone (or use monotonic clocks for durations)",
                )
