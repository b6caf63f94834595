"""Luna plan execution with per-operator tracing.

"Query plans are translated into Sycamore code in Python. Execution on
large datasets benefits from distributed processing" (§6.1). Here each
operator is interpreted over document lists, with per-record LLM
operators dispatched through the Sycamore execution engine so they
parallelize and retry exactly like hand-written DocSet pipelines.

Every node's execution is traced — operation, inputs, record counts,
duration, and LLM spend — giving the "detailed trace of how the answer
was computed" the paper's explainability tenet requires.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..docmodel.document import Document
from ..execution.plan import Plan
from ..lifecycle.deadline import DeadlineExceeded, QueryCancelled, check_scope
from ..observability.cost import CostAccount
from ..runtime import Priority
from ..sycamore import aggregates
from ..sycamore.context import SycamoreContext
from ..sycamore.llm_transforms import (
    make_cascade_extract_fn,
    make_cascade_filter_fn,
    make_extract_properties_fn,
    make_llm_filter_fn,
    summarize_collection,
)
from . import mathops
from .operators import LogicalPlan, PlanNode, PlanValidationError


class PlanExecutionError(RuntimeError):
    """A plan node failed at execution time."""


@dataclass
class TraceEntry:
    """Execution record for one plan node."""

    index: int
    operation: str
    description: str
    records_in: int
    records_out: int
    duration_s: float
    llm_cost_usd: float
    llm_calls: int
    result_preview: str
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
    #: Id of the query's span tree in the context tracer (empty when the
    #: query ran untraced); feed it to ``Tracer.trace_spans`` or the
    #: ``python -m repro trace`` command.
    trace_id: str = ""
    #: Span-derived per-operator cost rollup (tokens, dollars, retries,
    #: cache/dedup savings). Same arithmetic as the JSON trace export.
    cost: Optional[CostAccount] = None
    #: Nodes freshly executed this run vs. replayed from a journal
    #: checkpoint — the counters the chaos-recovery gate asserts on.
    nodes_executed: int = 0
    nodes_replayed: int = 0
    #: Cost-based optimizer audit (estimated vs actual, rewrites applied)
    #: when the query ran through :class:`repro.optimizer.CostBasedOptimizer`;
    #: rendered by the ``plan-explain`` CLI verb. Typed ``Any`` to keep
    #: the luna -> optimizer import one-way (optimizer imports operators).
    optimizer_report: Optional[Any] = None

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
    """Per-node failure-containment and spend stats, merged from the
    DocSet execution layer and (when a node scattered across the
    cluster) worker-side counters the parent's spans never saw."""

    dead_lettered: int = 0
    skipped: int = 0
    #: The node landed a typed partial (deadline-expired cluster shards
    #: absorbed under a non-fatal policy) without per-record counters.
    partial: bool = False
    #: Worker-process LLM spend (invisible to the parent tracer).
    llm_calls: int = 0
    cost_usd: float = 0.0


class LunaExecutor:
    """Interprets validated logical plans against the context's catalog."""

    def __init__(self, context: SycamoreContext, error_policy: str = "fail"):
        if error_policy not in LUNA_ERROR_POLICIES:
            raise ValueError(
                f"unknown error_policy {error_policy!r}; known: {LUNA_ERROR_POLICIES}"
            )
        self.context = context
        self.error_policy = error_policy
        self._last_plan_stats = None
        self._last_cluster_stats: Optional[_NodeStats] = None
        self._current_query_id = ""

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
        """
        # Structural gate (no schema: execution has no index context):
        # malformed plans fail before the first operator runs, with the
        # full list of problems, not an interpreter error mid-plan.
        from ..analysis.plancheck import ensure_valid_plan

        ensure_valid_plan(plan)
        plan.validate()
        # Shard journal records key on the query id; cluster-routed
        # nodes pick it up from here (see _cluster_route).
        self._current_query_id = query_id
        fatal = self.error_policy == "fail"
        tracer = getattr(self.context, "tracer", None)
        results: Dict[int, Any] = {}
        trace = ExecutionTrace()
        # Run standalone, every op span roots a trace of its own.
        op_trace_ids: Dict[str, None] = {}
        for index, node in enumerate(plan.nodes):
            inputs = [results[i] for i in node.inputs]
            if completed is not None and index in completed:
                output = completed[index]
                results[index] = output
                trace.nodes_replayed += 1
                trace.entries.append(
                    TraceEntry(
                        index=index,
                        operation=node.operation,
                        description=node.description,
                        records_in=_count_records(inputs[0]) if inputs else 0,
                        records_out=_count_records(output),
                        duration_s=0.0,
                        llm_cost_usd=0.0,
                        llm_calls=0,
                        result_preview=_preview(output),
                        document_ids=_document_ids(output),
                        replayed=True,
                    )
                )
                continue
            start = time.perf_counter()
            self._last_plan_stats = None
            self._last_cluster_stats = None
            error: Optional[str] = None
            op_span = None
            if tracer is not None:
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
                if op_span is not None:
                    with tracer.attach(op_span):
                        output = self._run_node(node, inputs, results)
                else:
                    output = self._run_node(node, inputs, results)
            except QueryCancelled as exc:
                # Cancellation never degrades: the submitter walked away,
                # a partial answer has no audience.
                if op_span is not None:
                    tracer.finish(
                        op_span, status="error", error=f"QueryCancelled: {exc}"
                    )
                raise
            except DeadlineExceeded as exc:
                if fatal:
                    if op_span is not None:
                        tracer.finish(
                            op_span,
                            status="error",
                            error=f"DeadlineExceeded: {exc}",
                        )
                    raise
                # Budget exhausted: this node (and, via the checkpoint at
                # the top of the loop, every later node) degrades to a
                # pass-through so the query lands promptly with a typed
                # partial result.
                error = f"DeadlineExceeded: {exc}"
                output = inputs[0] if inputs else []
            except (PlanValidationError, mathops.MathEvaluationError) as exc:
                if fatal:
                    if op_span is not None:
                        tracer.finish(
                            op_span,
                            status="error",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    raise PlanExecutionError(
                        f"node {index} ({node.operation}): {exc}"
                    ) from exc
                error = f"{type(exc).__name__}: {exc}"
                output = inputs[0] if inputs else []
            except Exception as exc:  # noqa: BLE001 - contain under non-fatal policy
                if fatal:
                    if op_span is not None:
                        tracer.finish(
                            op_span,
                            status="error",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    raise
                error = f"{type(exc).__name__}: {exc}"
                output = inputs[0] if inputs else []
            duration = time.perf_counter() - start
            if op_span is not None:
                op_span.set_attributes(
                    records_in=_count_records(inputs[0]) if inputs else 0,
                    records_out=_count_records(output),
                )
                tracer.finish(
                    op_span,
                    status="error" if error is not None else "ok",
                    error=error,
                )
            results[index] = output
            trace.nodes_executed += 1
            if journal_writer is not None and error is None:
                journal_writer(index, node.operation, output)
            node_stats = self._drain_plan_stats()
            if error is not None:
                trace.errors.append(f"node {index} ({node.operation}): {error}")
            if (
                error is not None
                or node_stats.dead_lettered
                or node_stats.skipped
                or node_stats.partial
            ):
                trace.partial = True
            trace.entries.append(
                TraceEntry(
                    index=index,
                    operation=node.operation,
                    description=node.description,
                    records_in=_count_records(inputs[0]) if inputs else 0,
                    records_out=_count_records(output),
                    duration_s=duration,
                    llm_cost_usd=node_stats.cost_usd,
                    llm_calls=node_stats.llm_calls,
                    result_preview=_preview(output),
                    document_ids=_document_ids(output),
                    dead_lettered=node_stats.dead_lettered,
                    skipped=node_stats.skipped,
                    error=error,
                )
            )
        if tracer is not None:
            trace.attribute_spend(
                CostAccount.from_spans(
                    [span for tid in op_trace_ids for span in tracer.trace_spans(tid)]
                )
            )
        return results[plan.result_node()], trace

    def _drain_plan_stats(self) -> _NodeStats:
        """The node's failure-containment and spend stats, merged from
        the DocSet execution layer and any cluster-routed segment."""
        stats = self._last_plan_stats
        self._last_plan_stats = None
        merged = self._last_cluster_stats or _NodeStats()
        self._last_cluster_stats = None
        if stats is not None:
            merged.dead_lettered += stats.total_dead_lettered()
            merged.skipped += stats.total_skipped()
        return merged

    def _run_docset_plan(self, plan: Plan) -> List[Document]:
        """Run a per-record DocSet plan under this executor's policy."""
        on_error = None if self.error_policy == "fail" else self.error_policy
        executor = self.context.executor(on_error=on_error)
        documents = executor.take_all(plan)
        self._last_plan_stats = executor.last_stats
        return documents

    # ------------------------------------------------------------------

    def _run_node(self, node: PlanNode, inputs: List[Any], results: Dict[int, Any]) -> Any:
        handler = getattr(self, f"_op_{node.operation.lower()}", None)
        if handler is None:
            raise PlanValidationError(f"no executor for operation {node.operation!r}")
        return handler(node, inputs, results)

    # Each handler takes (node, inputs, all_results) and returns the value.

    def _op_queryindex(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        index = self.context.catalog.get(str(node.params["index"]))
        query = node.params.get("query")
        if query:
            k = int(node.params.get("k", 20))
            return index.search_hybrid(str(query), k=k)
        documents = index.all_documents()
        filter_field = node.params.get("filter_field")
        if filter_field:
            # Scan-side structured filter, folded in by the cost-based
            # optimizer: read only records whose catalog field matches.
            get = aggregates.property_getter(str(filter_field))
            compare = _comparator(str(node.params.get("filter_op", "eq")))
            value = node.params.get("filter_value")
            kept = []
            for document in documents:
                actual = get(document)
                if actual is None:
                    continue
                try:
                    if compare(actual, value):
                        kept.append(document)
                except TypeError:
                    continue
            return kept
        return documents

    def _op_fromdocuments(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        index = self.context.catalog.get(str(node.params["index"]))
        doc_ids = [str(d) for d in node.params.get("doc_ids", [])]
        return index.docstore.get_many(doc_ids)

    def _op_basicfilter(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        field_name = str(node.params["field"])
        op = str(node.params["op"])
        value = node.params["value"]
        get = aggregates.property_getter(field_name)
        compare = _comparator(op)
        kept = []
        for document in documents:
            actual = get(document)
            if actual is None:
                continue
            try:
                if compare(actual, value):
                    kept.append(document)
            except TypeError:
                continue
        return kept

    def _cluster_route(
        self, operation: str, documents: List[Document], **params: Any
    ) -> Optional[List[Document]]:
        """Scatter a per-record LLM operator across the context's cluster.

        Returns ``None`` when the node should run in-process instead: no
        cluster attached, too few documents to amortize scatter overhead
        (``min_cluster_docs``), or the cluster's admission gate rejected
        the segment (saturation degrades to local execution rather than
        failing the query). Byte-identity between the two paths is
        structural — workers rebuild their pipelines from the same
        transform factories this executor uses.
        """
        cluster = getattr(self.context, "cluster", None)
        if cluster is None:
            return None
        if len(documents) < cluster.config.min_cluster_docs:
            return None
        # Lazy imports: a module-level import here would close the
        # luna -> cluster -> serving -> luna cycle.
        from ..cluster.envelope import ShardOp, ShardPlanSpec
        from ..serving.service import Overloaded

        spec = ShardPlanSpec.from_ops(
            [ShardOp.make(operation, **{k: v for k, v in params.items() if v is not None})],
            default_model=self.context.default_model,
        )
        partial = "raise" if self.error_policy == "fail" else "typed"
        try:
            result = cluster.run_segment(
                documents,
                spec,
                query_id=self._current_query_id,
                partial=partial,
            )
        except Overloaded:
            return None
        self._last_cluster_stats = _NodeStats(
            dead_lettered=result.dead_lettered,
            skipped=result.skipped,
            partial=result.status == "partial",
            llm_calls=result.llm_calls,
            cost_usd=result.cost_usd,
        )
        return result.documents

    def _op_llmfilter(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        cascade = node.params.get("cascade")
        if isinstance(cascade, dict):
            # Cascade-annotated nodes run in-process: the draft/escalate
            # decision is per-record state the cluster envelope does not
            # carry, and drafts are cheap enough not to need scattering.
            predicate = make_cascade_filter_fn(
                self.context,
                condition=str(node.params["condition"]),
                verify_model=str(node.params.get("model") or self.context.default_model),
                draft_model=str(cascade.get("draft_model", "sim-small")),
                draft_votes=int(cascade.get("draft_votes", 2)),
                confidence_threshold=float(cascade.get("confidence_threshold", 0.75)),
                priority=Priority.INTERACTIVE,
            )
            plan = Plan.from_items(documents).filter(
                predicate, name="luna_cascade_filter"
            )
            return self._run_docset_plan(plan)
        routed = self._cluster_route(
            "LlmFilter",
            documents,
            condition=str(node.params["condition"]),
            model=node.params.get("model"),
        )
        if routed is not None:
            return routed
        predicate = make_llm_filter_fn(
            self.context,
            condition=str(node.params["condition"]),
            model=node.params.get("model"),
            priority=Priority.INTERACTIVE,
        )
        plan = Plan.from_items(documents).filter(predicate, name="luna_llm_filter")
        return self._run_docset_plan(plan)

    def _op_llmextract(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        field_name = str(node.params["field"])
        field_type = str(node.params.get("type", "string"))
        cascade = node.params.get("cascade")
        if isinstance(cascade, dict):
            fn = make_cascade_extract_fn(
                self.context,
                {field_name: field_type},
                verify_model=str(node.params.get("model") or self.context.default_model),
                draft_model=str(cascade.get("draft_model", "sim-small")),
                confidence_threshold=float(cascade.get("confidence_threshold", 0.75)),
                priority=Priority.INTERACTIVE,
            )
            plan = Plan.from_items(documents).map(fn, name="luna_cascade_extract")
            return self._run_docset_plan(plan)
        routed = self._cluster_route(
            "LlmExtract",
            documents,
            field=field_name,
            type=field_type,
            model=node.params.get("model"),
        )
        if routed is not None:
            return routed
        fn = make_extract_properties_fn(
            self.context,
            {field_name: field_type},
            model=node.params.get("model"),
            priority=Priority.INTERACTIVE,
        )
        plan = Plan.from_items(documents).map(fn, name="luna_llm_extract")
        return self._run_docset_plan(plan)

    def _op_count(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> int:
        return len(_require_documents(node, inputs[0]))

    def _op_aggregate(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> Any:
        documents = _require_documents(node, inputs[0])
        func = str(node.params["func"])
        field_name = str(node.params["field"])
        group_by = node.params.get("group_by")
        if group_by:
            return aggregates.grouped_aggregate(documents, func, field_name, str(group_by))
        return aggregates.aggregate_field(documents, func, field_name)

    def _op_topk(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[tuple]:
        documents = _require_documents(node, inputs[0])
        return aggregates.top_k_values(
            documents,
            str(node.params["field"]),
            k=int(node.params.get("k", 1)),
            descending=bool(node.params.get("descending", True)),
        )

    def _op_sort(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        return aggregates.sort_documents(
            documents,
            str(node.params["field"]),
            descending=bool(node.params.get("descending", False)),
        )

    def _op_limit(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        return documents[: int(node.params["k"])]

    def _op_distinct(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        documents = _require_documents(node, inputs[0])
        get = aggregates.property_getter(str(node.params["field"]))
        seen = set()
        kept = []
        for document in documents:
            value = get(document)
            try:
                key = value if not isinstance(value, list) else tuple(value)
                hash(key)
            except TypeError:
                key = str(value)
            if key in seen:
                continue
            seen.add(key)
            kept.append(document)
        return kept

    def _op_project(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Any]:
        documents = _require_documents(node, inputs[0])
        fields = node.params["fields"]
        if isinstance(fields, str):
            fields = [fields]
        getters = [aggregates.property_getter(str(f)) for f in fields]
        if len(getters) == 1:
            return [getters[0](d) for d in documents]
        return [tuple(get(d) for get in getters) for d in documents]

    def _op_join(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> List[Document]:
        left = _require_documents(node, inputs[0])
        right = _require_documents(node, inputs[1])
        return aggregates.hash_join(
            left,
            right,
            str(node.params["left_on"]),
            str(node.params["right_on"]),
            how=str(node.params.get("how", "inner")),
        )

    def _op_math(self, node: PlanNode, inputs: List[Any], results: Dict[int, Any]) -> float:
        expression = str(node.params["expression"])
        values: Dict[int, float] = {}
        for reference in mathops.referenced_nodes(expression):
            if reference not in results:
                raise mathops.MathEvaluationError(
                    f"expression references unevaluated node #{reference}"
                )
            values[reference] = _as_number(results[reference])
        return mathops.evaluate(expression, values)

    def _op_summarize(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> str:
        documents = _require_documents(node, inputs[0])
        if not documents:
            return "No matching records."
        return summarize_collection(
            self.context,
            documents,
            model=node.params.get("model"),
            question=node.params.get("question"),
            priority=Priority.INTERACTIVE,
        )

    def _op_identity(self, node: PlanNode, inputs: List[Any], _: Dict[int, Any]) -> Any:
        return inputs[0]


# ----------------------------------------------------------------------


def _require_documents(node: PlanNode, value: Any) -> List[Document]:
    if isinstance(value, list) and all(isinstance(v, Document) for v in value):
        return value
    raise PlanValidationError(
        f"{node.operation} expects a document set input, got {type(value).__name__}"
    )


def _comparator(op: str):
    comparators = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "contains": lambda a, b: str(b).lower() in str(a).lower(),
    }
    if op not in comparators:
        raise PlanValidationError(f"unknown comparison operator {op!r}")
    return comparators[op]


def _as_number(value: Any) -> float:
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    raise mathops.MathEvaluationError(
        f"node result {value!r} is not numeric"
    )


def _document_ids(value: Any, cap: int = 50) -> List[str]:
    if isinstance(value, list) and value and isinstance(value[0], Document):
        return [d.doc_id for d in value[:cap]]
    return []


def _count_records(value: Any) -> int:
    if isinstance(value, list):
        return len(value)
    return 1


def _preview(value: Any, limit: int = 80) -> str:
    if isinstance(value, list):
        if value and isinstance(value[0], Document):
            return f"{len(value)} documents"
        text = repr(value)
    elif isinstance(value, float):
        text = f"{value:.4f}"
    else:
        text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
