"""Plan execution: pipelined, optionally parallel, with task retries.

This is the repository's Ray substitute (DESIGN.md §1): the semantics the
paper relies on — lazy pipelined execution, scale-out across workers for
per-record transforms, automatic retry of failed tasks, and execution
statistics — implemented over a thread pool. Per-record operators stream;
``aggregate`` nodes drain their input (a barrier), matching Spark/Ray
stage semantics.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..lifecycle.deadline import (
    WAIT_POLL_S,
    LifecycleError,
    check_scope,
    current_scope,
)
from ..observability.cost import CostAccount
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Span, Tracer
from .lineage import Lineage
from .plan import Plan, PlanNode


class TaskError(Exception):
    """A task failed after exhausting its retries."""

    def __init__(self, node_name: str, record: Any, cause: Exception):
        super().__init__(f"task in node {node_name!r} failed: {cause}")
        self.node_name = node_name
        self.record = record
        self.cause = cause


#: Valid per-node failure-containment policies. ``fail`` aborts on the
#: first failure (no retries); ``retry`` retries then aborts (the
#: historical default); ``skip`` retries then silently drops the record;
#: ``dead_letter`` retries then captures (record, node, cause) in the
#: run's dead-letter queue and drops the record from the output.
ON_ERROR_POLICIES = ("fail", "retry", "skip", "dead_letter")

#: Sentinel emitted by a contained failure; filtered out before yield.
_DROPPED = object()


@dataclass
class DeadLetter:
    """One record that failed terminally under a ``dead_letter`` policy."""

    node_name: str
    record: Any
    cause: Exception

    def __repr__(self) -> str:  # keep stats reprs readable
        return (
            f"DeadLetter(node={self.node_name!r}, "
            f"record={self.record!r}, cause={self.cause!r})"
        )


@dataclass
class NodeStats:
    """Per-node execution counters."""

    records_in: int = 0
    records_out: int = 0
    retries: int = 0
    skipped: int = 0
    dead_lettered: int = 0
    wall_time_s: float = 0.0


@dataclass
class ExecutionStats:
    """Statistics for one plan execution, keyed by node name."""

    nodes: Dict[str, NodeStats] = field(default_factory=dict)
    #: Records dropped under a ``dead_letter`` policy, in failure order.
    dead_letters: List[DeadLetter] = field(default_factory=list)
    #: Set by a traced executor when the execution ends: rolls its spans up.
    roll_up: Optional[Callable[[], CostAccount]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _cost: Optional[CostAccount] = field(default=None, init=False, repr=False, compare=False)

    @property
    def cost(self) -> Optional[CostAccount]:
        """Cost rollup of this execution's trace spans (traced executors
        only; None until the execution has ended), by the arithmetic of
        the JSON trace export, :meth:`CostAccount.from_spans`. Made on
        first read: a Luna query reads none and rolls up the whole query."""
        if self._cost is None and self.roll_up is not None:
            self._cost = self.roll_up()
        return self._cost

    def node(self, name: str) -> NodeStats:
        """Per-node stats record (created on first access)."""
        return self.nodes.setdefault(name, NodeStats())

    def total_records_out(self, name: str) -> int:
        """Records emitted by the named node."""
        return self.nodes.get(name, NodeStats()).records_out

    def total_dead_lettered(self) -> int:
        """Records captured in the dead-letter queue this run."""
        return len(self.dead_letters)

    def total_skipped(self) -> int:
        """Records silently dropped under a ``skip`` policy this run."""
        return sum(stats.skipped for stats in self.nodes.values())


class Executor:
    """Executes plans.

    Parameters
    ----------
    parallelism:
        Worker threads for per-record operators. 1 = fully sequential.
    max_task_retries:
        How many times a failing per-record task is retried before its
        node's ``on_error`` policy decides the record's fate.
    on_error:
        Default failure-containment policy for nodes that do not carry
        their own (see :data:`ON_ERROR_POLICIES`). ``retry`` preserves
        the historical abort-after-retries behaviour.
    lineage:
        Optional :class:`Lineage` tracker; when given, map/flat_map over
        objects with a ``doc_id`` records derivation edges.
    batch_size:
        Records pulled per scheduling round in parallel mode; bounds
        memory while keeping workers busy.
    tracer:
        Optional :class:`~repro.observability.Tracer`. An execution
        with per-record nodes gets a ``plan`` span with one ``transform``
        span for each (inline filters excepted); a plan of sources and
        barriers alone opens no span.
        Task functions run *under* their node's transform span
        (attached per call; parallel submissions each carry their own
        copied :mod:`contextvars` context), so any LLM request spans
        they open become its descendants. ``ExecutionStats.cost`` is
        rolled up from the execution's spans once it has completed.
    registry:
        :class:`~repro.observability.MetricsRegistry` for aggregate
        record/retry counters (default: the process registry).
        :class:`ExecutionStats` remains the per-run view.
    """

    def __init__(
        self,
        parallelism: int = 1,
        max_task_retries: int = 0,
        lineage: Optional[Lineage] = None,
        batch_size: int = 32,
        on_error: str = "retry",
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {on_error!r}; known: {ON_ERROR_POLICIES}"
            )
        self.parallelism = parallelism
        self.max_task_retries = max_task_retries
        self.lineage = lineage
        self.batch_size = batch_size
        self.on_error = on_error
        self.tracer = tracer
        self.registry = registry if registry is not None else get_registry()
        reg = self.registry
        self._m_executions = reg.counter("executor.executions")
        self._m_records_in = reg.counter("executor.records_in")
        self._m_records_out = reg.counter("executor.records_out")
        self._m_retries = reg.counter("executor.task_retries")
        self._m_skipped = reg.counter("executor.records_skipped")
        self._m_dead_lettered = reg.counter("executor.records_dead_lettered")
        self._m_node_wall_s = reg.histogram("executor.node_wall_s")
        self.last_stats: Optional[ExecutionStats] = None

    # ------------------------------------------------------------------

    def execute(self, plan: Plan) -> Iterator[Any]:
        """Lazily yield the plan's output records."""
        stats = ExecutionStats()
        self.last_stats = stats
        self._m_executions.inc()
        if self.tracer is None or not any(_spanned(node) for node in plan.nodes()):
            # Sources, barriers and inline filters: no transform span for
            # a plan span to parent, no LLM traffic to attribute.
            return self._run_node(plan.node, stats)
        plan_span = self.tracer.start_span(
            f"execute:{plan.node.name}", kind="plan", root=plan.node.name
        )
        with self.tracer.attach(plan_span):
            iterator = self._run_node(plan.node, stats)
        return self._finish_plan_span(iterator, plan_span, stats)

    def _finish_plan_span(
        self, iterator: Iterator[Any], span: Span, stats: ExecutionStats
    ) -> Iterator[Any]:
        """Close the plan span when iteration ends and roll up its cost."""
        assert self.tracer is not None
        try:
            yield from iterator
        except GeneratorExit:  # consumer stopped early: not an error
            self.tracer.finish(span)
            raise
        except BaseException as exc:
            self.tracer.finish(
                span, status="error", error=f"{type(exc).__name__}: {exc}"
            )
            raise
        else:
            self.tracer.finish(span)
        finally:
            stats.roll_up = lambda: CostAccount.from_spans(self._descendant_spans(span))

    def _descendant_spans(self, root: Span) -> List[Span]:
        """``root`` plus its descendants, from the tracer's span log.

        The plan span may share a trace with a surrounding query span;
        cost accounting for *this* execution only wants its subtree.
        """
        assert self.tracer is not None
        trace = self.tracer.trace_spans(root.trace_id)
        keep = {root.span_id}
        selected = [root]
        for span in trace:  # span log is in creation order: parents first
            if span.span_id in keep:
                continue
            if span.parent_id in keep:
                keep.add(span.span_id)
                selected.append(span)
        return selected

    def take_all(self, plan: Plan) -> List[Any]:
        """Execute and collect every output record."""
        return list(self.execute(plan))

    def count(self, plan: Plan) -> int:
        """Number of matching records."""
        return sum(1 for _ in self.execute(plan))

    # ------------------------------------------------------------------

    def _run_node(self, node: PlanNode, stats: ExecutionStats) -> Iterator[Any]:
        if node.kind == "source":
            return self._run_source(node, stats)
        assert node.parent is not None, f"{node.kind} node without parent"
        upstream = self._run_node(node.parent, stats)
        if node.kind == "map":
            return self._run_per_record(node, upstream, stats, mode="map")
        if node.kind == "filter":
            if node.inline:
                return self._run_inline_filter(node, upstream, stats)
            return self._run_per_record(node, upstream, stats, mode="filter")
        if node.kind == "flat_map":
            return self._run_per_record(node, upstream, stats, mode="flat_map")
        if node.kind == "aggregate":
            return self._run_aggregate(node, upstream, stats)
        if node.kind == "materialize":
            return self._run_materialize(node, upstream, stats)
        raise ValueError(f"unknown plan node kind: {node.kind!r}")

    def _run_source(self, node: PlanNode, stats: ExecutionStats) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        start = time.perf_counter()
        assert node.items_fn is not None
        for record in node.items_fn():
            node_stats.records_out += 1
            yield record
        node_stats.wall_time_s += time.perf_counter() - start

    def _run_inline_filter(
        self, node: PlanNode, upstream: Iterator[Any], stats: ExecutionStats
    ) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        assert node.fn is not None
        try:
            for record in upstream:
                node_stats.records_in += 1
                if node.fn(record):
                    node_stats.records_out += 1
                    yield record
        finally:
            self._m_records_in.inc(node_stats.records_in)
            self._m_records_out.inc(node_stats.records_out)

    def _run_aggregate(
        self, node: PlanNode, upstream: Iterator[Any], stats: ExecutionStats
    ) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        records = list(upstream)
        node_stats.records_in += len(records)
        start = time.perf_counter()
        assert node.fn is not None
        for record in node.fn(records):
            node_stats.records_out += 1
            yield record
        node_stats.wall_time_s += time.perf_counter() - start

    def _run_materialize(
        self, node: PlanNode, upstream: Iterator[Any], stats: ExecutionStats
    ) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        cache = node.cache
        if cache.is_valid():
            for record in cache.read():
                node_stats.records_out += 1
                yield record
            return
        collected = []
        for record in upstream:
            node_stats.records_in += 1
            collected.append(record)
        cache.write(collected)
        for record in collected:
            node_stats.records_out += 1
            yield record

    # ------------------------------------------------------------------
    # Per-record operators
    # ------------------------------------------------------------------

    def _run_per_record(
        self, node: PlanNode, upstream: Iterator[Any], stats: ExecutionStats, mode: str
    ) -> Iterator[Any]:
        span: Optional[Span] = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                f"transform:{node.name}", kind="transform", node=node.name, mode=mode
            )
        if self.parallelism == 1:
            inner = self._per_record_serial(node, upstream, stats, mode, span)
        else:
            inner = self._per_record_parallel(node, upstream, stats, mode, span)
        if span is None:
            return inner
        return self._finish_node_span(inner, span, stats.node(node.name))

    def _finish_node_span(
        self, iterator: Iterator[Any], span: Span, node_stats: NodeStats
    ) -> Iterator[Any]:
        assert self.tracer is not None
        try:
            yield from iterator
        except GeneratorExit:
            span.set_attributes(
                records_in=node_stats.records_in, records_out=node_stats.records_out
            )
            self.tracer.finish(span)
            raise
        except BaseException as exc:
            span.set_attributes(
                records_in=node_stats.records_in, records_out=node_stats.records_out
            )
            self.tracer.finish(
                span, status="error", error=f"{type(exc).__name__}: {exc}"
            )
            raise
        span.set_attributes(
            records_in=node_stats.records_in, records_out=node_stats.records_out
        )
        self.tracer.finish(span)
        self._m_node_wall_s.observe(node_stats.wall_time_s)

    def _per_record_serial(
        self,
        node: PlanNode,
        upstream: Iterator[Any],
        stats: ExecutionStats,
        mode: str,
        span: Optional[Span] = None,
    ) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        for record in upstream:
            node_stats.records_in += 1
            self._m_records_in.inc()
            start = time.perf_counter()
            if span is not None and self.tracer is not None:
                with self.tracer.attach(span):
                    result = self._apply_with_retry(node, record, node_stats, stats)
            else:
                result = self._apply_with_retry(node, record, node_stats, stats)
            node_stats.wall_time_s += time.perf_counter() - start
            yield from self._emit(node, record, result, mode, node_stats)

    def _per_record_parallel(
        self,
        node: PlanNode,
        upstream: Iterator[Any],
        stats: ExecutionStats,
        mode: str,
        span: Optional[Span] = None,
    ) -> Iterator[Any]:
        node_stats = stats.node(node.name)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
            pending: "List[Future]" = []
            results: Dict[int, Any] = {}
            inputs: Dict[int, Any] = {}
            next_to_yield = 0
            submitted = 0
            upstream_iter = iter(upstream)
            exhausted = False
            while not exhausted or next_to_yield < submitted:
                # Keep a bounded window of in-flight tasks.
                while not exhausted and len(pending) < self.parallelism * 2:
                    try:
                        record = next(upstream_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    node_stats.records_in += 1
                    self._m_records_in.inc()
                    index = submitted
                    submitted += 1
                    inputs[index] = record
                    # One copied Context per task (a Context cannot be
                    # entered concurrently); the copy carries the
                    # transform span — and the query's CancelScope — as
                    # the worker's ambient state.
                    if span is not None and self.tracer is not None:
                        with self.tracer.attach(span):
                            task_ctx = contextvars.copy_context()
                    else:
                        task_ctx = contextvars.copy_context()
                    future = pool.submit(
                        task_ctx.run,
                        self._apply_with_retry,
                        node,
                        record,
                        node_stats,
                        stats,
                    )
                    future.index = index  # type: ignore[attr-defined]
                    pending.append(future)
                if pending:
                    # Under a scope, wait in slices so cancellation and
                    # deadline expiry interrupt the gather promptly even
                    # when no task finishes.
                    slice_s = None if current_scope() is None else WAIT_POLL_S
                    done, still_pending = wait(
                        pending, timeout=slice_s, return_when=FIRST_COMPLETED
                    )
                    pending = list(still_pending)
                    if not done:
                        try:
                            check_scope()
                        except BaseException:
                            for other in pending:
                                other.cancel()
                            raise
                    for future in done:
                        try:
                            # Already resolved (came out of wait()'s done set).
                            results[future.index] = future.result()  # type: ignore[attr-defined]  # repro: lint-ignore[timeout-not-propagated]
                        except BaseException:
                            # Abort: don't leave queued work running after
                            # the node is already dead.
                            for other in pending:
                                other.cancel()
                            raise
                # Yield in input order to keep execution deterministic.
                while next_to_yield in results:
                    record = inputs.pop(next_to_yield)
                    result = results.pop(next_to_yield)
                    next_to_yield += 1
                    yield from self._emit(node, record, result, mode, node_stats)
        node_stats.wall_time_s += time.perf_counter() - start

    def _apply_with_retry(
        self, node: PlanNode, record: Any, node_stats: NodeStats, stats: ExecutionStats
    ) -> Any:
        assert node.fn is not None
        policy = node.on_error or self.on_error
        if policy not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {policy!r} on node {node.name!r}"
            )
        retries = node.retries if node.retries is not None else self.max_task_retries
        if policy == "fail":
            retries = 0
        attempts = retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            # Record boundaries are cooperative checkpoints, and an
            # expired/cancelled query must not burn retries.
            check_scope()
            try:
                return node.fn(record)
            except LifecycleError:
                # Deadline expiry and cancellation are query-level
                # verdicts, not task failures: never retried, skipped,
                # or dead-lettered.
                raise
            except Exception as exc:  # noqa: BLE001 - contain any task failure
                last_error = exc
                # Only an attempt that will actually be re-tried counts as
                # a retry; the terminal failure is not one.
                if attempt + 1 < attempts:
                    with _stats_lock:
                        node_stats.retries += 1
                    self._m_retries.inc()
        assert last_error is not None
        if policy in ("fail", "retry"):
            raise TaskError(node.name, record, last_error)
        if policy == "skip":
            with _stats_lock:
                node_stats.skipped += 1
            self._m_skipped.inc()
            return _DROPPED
        with _stats_lock:  # dead_letter
            node_stats.dead_lettered += 1
            stats.dead_letters.append(DeadLetter(node.name, record, last_error))
        self._m_dead_lettered.inc()
        return _DROPPED

    def _emit(
        self, node: PlanNode, record: Any, result: Any, mode: str, node_stats: NodeStats
    ) -> Iterator[Any]:
        if result is _DROPPED:
            return
        if mode == "map":
            node_stats.records_out += 1
            self._m_records_out.inc()
            self._record_lineage(node, record, [result])
            yield result
        elif mode == "filter":
            if result:
                node_stats.records_out += 1
                self._m_records_out.inc()
                yield record
        else:  # flat_map
            outputs = list(result)
            node_stats.records_out += len(outputs)
            self._m_records_out.inc(len(outputs))
            self._record_lineage(node, record, outputs)
            yield from outputs

    def _record_lineage(self, node: PlanNode, record: Any, outputs: List[Any]) -> None:
        if self.lineage is None:
            return
        source_id = getattr(record, "doc_id", None)
        if source_id is None:
            return
        for output in outputs:
            target_id = getattr(output, "doc_id", None)
            if target_id is not None and target_id != source_id:
                self.lineage.record(node.name, source_id, target_id)


def _spanned(node: PlanNode) -> bool:
    """Whether executing ``node`` opens a ``transform`` span."""
    return node.kind in ("map", "filter", "flat_map") and not node.inline


_stats_lock = threading.Lock()
