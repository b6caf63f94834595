"""Luna plan execution with per-operator tracing.

"Query plans are translated into Sycamore code in Python. Execution on
large datasets benefits from distributed processing" (§6.1). The
executor is a DAG walker: each node is lowered to the DocSet call that
defines it (:mod:`repro.luna.lowering`) and run over its materialised
inputs, so per-record LLM operators parallelize and retry exactly like
hand-written DocSet pipelines.

Every node's execution is traced — operation, inputs, record counts,
duration, and LLM spend — giving the "detailed trace of how the answer
was computed" the paper's explainability tenet requires.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..docmodel.document import Document
from ..lifecycle.deadline import QueryCancelled, check_scope
from ..observability.cost import CostAccount
from ..optimizer.report import OptimizerReport
from ..runtime import Priority
from ..sycamore.context import SycamoreContext
from ..sycamore.docset import DocSet
from . import mathops
from .lowering import Scope, lower
from .operators import (
    CASCADE_ELIGIBLE_OPERATIONS,
    LogicalPlan,
    PlanNode,
    PlanValidationError,
)


class PlanExecutionError(RuntimeError):
    """A plan node failed at execution time."""


@dataclass
class TraceEntry:
    """Execution record for one plan node."""

    index: int
    operation: str
    description: str
    records_in: int
    records_out: int = 0
    duration_s: float = 0.0
    llm_cost_usd: float = 0.0
    llm_calls: int = 0
    result_preview: str = ""
    #: Ids of the documents this node emitted (capped) — the provenance
    #: trail from an answer back to its sources.
    document_ids: List[str] = field(default_factory=list)
    #: Records dropped to the dead-letter queue / silently skipped while
    #: running this node's DocSet plan (non-fatal error policies).
    dead_lettered: int = 0
    skipped: int = 0
    #: Set when the whole operator failed and was degraded instead of
    #: aborting the query (non-fatal error policies).
    error: Optional[str] = None
    #: True when this node's output came from a durable journal checkpoint
    #: instead of being re-executed (crash recovery).
    replayed: bool = False

    def render(self) -> str:
        """Render a human-readable text view."""
        line = (
            f"[{self.index}] {self.operation}: {self.description} | "
            f"in={self.records_in} out={self.records_out} "
            f"time={self.duration_s:.3f}s llm_calls={self.llm_calls} "
            f"cost=${self.llm_cost_usd:.4f} -> {self.result_preview}"
        )
        if self.replayed:
            line += " [REPLAYED]"
        if self.dead_lettered or self.skipped:
            line += f" [dropped: dead_lettered={self.dead_lettered} skipped={self.skipped}]"
        if self.error:
            line += f" [DEGRADED: {self.error}]"
        return line


@dataclass
class ExecutionTrace:
    """Trace of a full plan execution, in node order."""

    entries: List[TraceEntry] = field(default_factory=list)
    #: Operator-level failures contained by a non-fatal error policy.
    errors: List[str] = field(default_factory=list)
    #: True when any record or operator was lost along the way — the
    #: answer is computed from an incomplete document stream.
    partial: bool = False
    #: Id of the query's span tree in the context tracer; feed it to
    #: ``Tracer.trace_spans`` or the ``python -m repro trace`` command.
    trace_id: str = ""
    #: Span-derived per-operator cost rollup (tokens, dollars, retries,
    #: cache/dedup savings). Same arithmetic as the JSON trace export.
    cost: CostAccount = field(default_factory=CostAccount)
    #: Nodes freshly executed this run vs. replayed from a journal
    #: checkpoint — the counters the chaos-recovery gate asserts on.
    nodes_executed: int = 0
    nodes_replayed: int = 0
    #: The optimizer's audit (estimated vs actual, rewrites applied) of
    #: the plan this trace ran, rendered by the ``plan-explain`` CLI verb;
    #: None on a resumed query, which replays an already-optimized plan.
    optimizer_report: Optional[OptimizerReport] = None

    def render(self) -> str:
        """Render a human-readable text view."""
        lines = [entry.render() for entry in self.entries]
        if self.partial:
            lines.append(
                f"PARTIAL: {self.total_dead_lettered()} dead-lettered, "
                f"{self.total_skipped()} skipped, {len(self.errors)} degraded operators"
            )
        return "\n".join(lines)

    def attribute_spend(self, account: CostAccount) -> None:
        """Adopt the span rollup of this execution.

        Each executed node is billed the LLM requests under its own
        ``op[i]`` span (never what another query spent on the same
        context meanwhile), on top of the worker-side spend its entry
        already carries.
        """
        self.cost = account
        for entry in self.entries:
            spent = account.operators.get(_op_span_name(entry.index, entry.operation))
            if spent is not None:
                entry.llm_cost_usd += spent.cost_usd
                entry.llm_calls += spent.llm_calls

    def total_dead_lettered(self) -> int:
        """Records dead-lettered across all nodes."""
        return sum(entry.dead_lettered for entry in self.entries)

    def total_skipped(self) -> int:
        """Records skipped across all nodes."""
        return sum(entry.skipped for entry in self.entries)

    def total_cost_usd(self) -> float:
        """Sum of dollar costs across entries."""
        return sum(entry.llm_cost_usd for entry in self.entries)

    def total_llm_calls(self) -> int:
        """Sum of LLM calls across entries."""
        return sum(entry.llm_calls for entry in self.entries)

    def supporting_documents(self) -> List[str]:
        """Ids of the documents behind the answer: the output of the last
        node that emitted a document set (the paper's provenance tenet)."""
        for entry in reversed(self.entries):
            if entry.document_ids:
                return list(entry.document_ids)
        return []


def _op_span_name(index: int, operation: str) -> str:
    # Unique per plan node, so two operators with the same operation
    # roll up separately in the CostAccount.
    return f"op[{index}]:{operation}"


#: Error policies the Luna executor understands. ``fail`` aborts the
#: query on any operator failure (the historical behaviour); ``skip`` and
#: ``dead_letter`` contain per-record failures inside LLM operators with
#: the matching DocSet policy AND degrade whole-operator failures into
#: trace entries instead of raising, flagging the answer as partial.
LUNA_ERROR_POLICIES = ("fail", "skip", "dead_letter")


@dataclass
class _NodeStats:
    """What running one node reports besides its output: records lost to
    a non-fatal policy and, when the node scattered across the cluster,
    the worker-side spend the parent's spans never saw."""

    dead_lettered: int = 0
    skipped: int = 0
    #: The node landed a typed partial (deadline-expired cluster shards
    #: absorbed under a non-fatal policy) without per-record counters.
    partial: bool = False
    #: Worker-process LLM spend (invisible to the parent tracer).
    llm_calls: int = 0
    cost_usd: float = 0.0


class LunaExecutor:
    """Walks a validated logical plan, running each node's lowering
    (:data:`repro.luna.lowering.LOWERING`) over its materialised inputs.

    It keeps no per-query state: everything one execution learns travels
    in return values, so one executor serves concurrent queries.
    """

    def __init__(self, context: SycamoreContext, error_policy: str = "fail"):
        if error_policy not in LUNA_ERROR_POLICIES:
            raise ValueError(
                f"unknown error_policy {error_policy!r}; known: {LUNA_ERROR_POLICIES}"
            )
        self.context = context
        self.error_policy = error_policy

    def execute(
        self,
        plan: LogicalPlan,
        completed: Optional[Dict[int, Any]] = None,
        journal_writer: Optional[Callable[[int, str, Any], None]] = None,
        query_id: str = "",
    ) -> "tuple[Any, ExecutionTrace]":
        """Run the plan; returns (final answer, trace).

        Under a non-fatal ``error_policy``, operator failures degrade —
        the node's input passes through (or an empty document set when it
        has none), the error is recorded on the trace, and the trace is
        flagged partial — rather than raising :class:`PlanExecutionError`.

        Lifecycle semantics: every node boundary is a cooperative
        checkpoint. :class:`QueryCancelled` is always fatal (cancellation
        never degrades to a partial answer); :class:`DeadlineExceeded`
        degrades under a non-fatal policy — the expired node and every
        node after it pass their input through without touching the LLM,
        so the query lands within one operator of its budget with a
        typed partial result.

        Crash recovery: ``completed`` maps node index -> journaled output;
        those nodes are *replayed* (zero duration, zero spend) instead of
        re-executed. ``journal_writer(index, operation, output)`` is
        called after each cleanly executed node — degraded nodes are
        deliberately not checkpointed, so a resume re-executes them.
        ``query_id`` keys the shard checkpoints of cluster-routed nodes.
        """
        # Structural gate (no schema: execution has no index context):
        # malformed plans fail before the first operator runs, with the
        # full list of problems, not an interpreter error mid-plan.
        from ..analysis.plancheck import ensure_valid_plan

        ensure_valid_plan(plan)
        plan.validate()
        fatal = self.error_policy == "fail"
        tracer = self.context.tracer
        results: Dict[int, Any] = {}
        scope = Scope(
            self.context,
            math_operation=lambda expr: mathops.math_operation(expr, results),
            llm_options={"priority": Priority.INTERACTIVE},
        )
        trace = ExecutionTrace()
        # Run standalone, every op span roots a trace of its own.
        op_trace_ids: Dict[str, None] = {}
        for index, node in enumerate(plan.nodes):
            inputs = [results[i] for i in node.inputs]
            entry = TraceEntry(
                index=index,
                operation=node.operation,
                description=node.description,
                records_in=_count_records(inputs[0]) if inputs else 0,
            )
            trace.entries.append(entry)
            if completed is not None and index in completed:
                output = completed[index]
                entry.replayed = True
                trace.nodes_replayed += 1
            else:
                start = time.perf_counter()
                op_span = tracer.start_span(
                    _op_span_name(index, node.operation),
                    kind="operator",
                    operation=node.operation,
                    description=node.description,
                )
                trace.trace_id = trace.trace_id or op_span.trace_id
                op_trace_ids[op_span.trace_id] = None
                try:
                    check_scope()
                    with tracer.attach(op_span):
                        output, stats = self._run_node(node, inputs, scope, query_id)
                except Exception as exc:  # noqa: BLE001 - contain under non-fatal policy
                    entry.error = f"{type(exc).__name__}: {exc}"
                    # Cancellation never degrades: the submitter walked
                    # away, a partial answer has no audience.
                    if fatal or isinstance(exc, QueryCancelled):
                        tracer.finish(op_span, status="error", error=entry.error)
                        if isinstance(
                            exc, (PlanValidationError, mathops.MathEvaluationError)
                        ):
                            raise PlanExecutionError(
                                f"node {index} ({node.operation}): {exc}"
                            ) from exc
                        raise
                    # Degrade to a pass-through. After a DeadlineExceeded
                    # the checkpoint above fails every later node the
                    # same way, so the query lands promptly with a typed
                    # partial result.
                    output, stats = (inputs[0] if inputs else []), _NodeStats()
                    trace.errors.append(f"node {index} ({node.operation}): {entry.error}")
                entry.duration_s = time.perf_counter() - start
                op_span.set_attributes(
                    records_in=entry.records_in, records_out=_count_records(output)
                )
                tracer.finish(
                    op_span,
                    status="ok" if entry.error is None else "error",
                    error=entry.error,
                )
                trace.nodes_executed += 1
                if journal_writer is not None and entry.error is None:
                    journal_writer(index, node.operation, output)
                entry.llm_cost_usd = stats.cost_usd
                entry.llm_calls = stats.llm_calls
                entry.dead_lettered = stats.dead_lettered
                entry.skipped = stats.skipped
                if (
                    entry.error is not None
                    or stats.dead_lettered
                    or stats.skipped
                    or stats.partial
                ):
                    trace.partial = True
            results[index] = output
            entry.records_out = _count_records(output)
            entry.result_preview = _preview(output)
            entry.document_ids = _document_ids(output)
        trace.attribute_spend(
            CostAccount.from_spans(
                [span for tid in op_trace_ids for span in tracer.trace_spans(tid)]
            )
        )
        return results[plan.result_node()], trace

    def _run_node(
        self, node: PlanNode, inputs: List[Any], scope: Scope, query_id: str
    ) -> "tuple[Any, _NodeStats]":
        """One node's output, and what running it lost or spent."""
        sources = []
        for value in inputs:
            if _is_document_set(value):
                sources.append(DocSet.from_documents(self.context, value))
            elif node.operation in ("Math", "Identity"):
                sources.append(value)
            else:  # every other operator consumes document sets
                raise PlanValidationError(
                    f"{node.operation} expects a document set input, "
                    f"got {type(value).__name__}"
                )
        routed = self._cluster_route(node, inputs, query_id)
        if routed is not None:
            return routed
        lowered = lower(node.operation, node.params, scope, sources)
        if not isinstance(lowered, DocSet):
            return lowered, _NodeStats()
        for source, value in zip(sources, inputs):
            if lowered is source:  # handed back untouched: nothing to run
                return value, _NodeStats()
        on_error = None if self.error_policy == "fail" else self.error_policy
        documents, run = lowered.execute(on_error=on_error)
        return documents, _NodeStats(
            dead_lettered=run.total_dead_lettered(), skipped=run.total_skipped()
        )

    def _cluster_route(
        self, node: PlanNode, inputs: List[Any], query_id: str
    ) -> "Optional[tuple[List[Document], _NodeStats]]":
        """Scatter a per-record LLM operator across the context's cluster.

        Returns ``None`` when the node should run in-process instead: it
        is not such an operator, no cluster is attached, there are too
        few documents to amortize scatter overhead (``min_cluster_docs``),
        or the cluster's admission gate rejected the segment (saturation
        degrades to local execution rather than failing the query).
        Cascade-annotated nodes also stay in-process: drafts are cheap
        enough not to need scattering. Byte-identity between the two
        paths is structural — workers lower the shard spec through the
        same table this executor uses.
        """
        cluster = self.context.cluster
        if (
            cluster is None
            # The cascade-eligible operators are the per-record LLM ones.
            or node.operation not in CASCADE_ELIGIBLE_OPERATIONS
            or node.params.get("cascade") is not None
            or len(inputs[0]) < cluster.config.min_cluster_docs
        ):
            return None
        # Lazy imports: a module-level import here would close the
        # luna -> cluster -> serving -> luna cycle.
        from ..cluster.envelope import ShardOp, ShardPlanSpec
        from ..serving.service import Overloaded

        spec = ShardPlanSpec.from_ops(
            [
                ShardOp.make(
                    node.operation,
                    **{k: v for k, v in node.params.items() if v is not None},
                )
            ],
            default_model=self.context.default_model,
        )
        try:
            result = cluster.run_segment(
                inputs[0],
                spec,
                query_id=query_id,
                partial="raise" if self.error_policy == "fail" else "typed",
            )
        except Overloaded:
            return None
        return result.documents, _NodeStats(
            dead_lettered=result.dead_lettered,
            skipped=result.skipped,
            partial=result.status == "partial",
            llm_calls=result.llm_calls,
            cost_usd=result.cost_usd,
        )


# ----------------------------------------------------------------------


def _is_document_set(value: Any) -> bool:
    # A node emits documents or values, never a mix: the first tells.
    return isinstance(value, list) and (not value or isinstance(value[0], Document))


def _document_ids(value: Any, cap: int = 50) -> List[str]:
    if value and _is_document_set(value):
        return [d.doc_id for d in value[:cap]]
    return []


def _count_records(value: Any) -> int:
    if isinstance(value, list):
        return len(value)
    return 1


def _preview(value: Any, limit: int = 80) -> str:
    if value and _is_document_set(value):
        return f"{len(value)} documents"
    if isinstance(value, float):
        text = f"{value:.4f}"
    else:
        text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
