"""The Luna facade: natural-language analytics with a human in the loop.

The top-level query flow of §6: plan (LLM) -> optimize -> translate to
Sycamore code -> execute with tracing. Every intermediate artefact — the
raw plan, the optimized plan, the optimization log, the generated code,
the per-operator trace — is kept on the :class:`LunaResult`, because the
paper's central design argument is that users must be able to inspect,
trust, and *correct* what the system did.

Human-in-the-loop editing goes through :class:`LunaSession`: plan first,
let the user inspect/modify nodes, then execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..analysis.plancheck import ensure_valid_plan
from ..lifecycle.journal import JournalError, QueryJournal, plan_json_fingerprint
from ..optimizer import BALANCED_POLICY, CostBasedOptimizer, OptimizerPolicy, StatsStore
from ..sycamore.context import SycamoreContext
from .codegen import generate_code
from .executor import ExecutionTrace, LunaExecutor
from .operators import LogicalPlan, PlanNode
from .history import QueryHistory
from .planner import LunaPlanner


@dataclass
class LunaResult:
    """Everything produced by one Luna query."""

    question: str
    index: str
    plan: LogicalPlan
    optimized_plan: LogicalPlan
    optimization_log: List[str]
    code: str
    answer: Any
    trace: ExecutionTrace
    #: True when failure containment dropped records or degraded operators
    #: along the way: the answer was computed from incomplete data.
    partial: bool = False

    def explain(self) -> str:
        """A full, auditable account of how the answer was computed."""
        parts = [
            f"Question: {self.question}",
            f"Index: {self.index}",
            "",
            "Plan:",
            self.optimized_plan.to_natural_language(),
            "",
            "Generated Sycamore code:",
            self.code,
            "",
            "Execution trace:",
            self.trace.render(),
            "",
            f"Answer: {self.answer!r}",
            f"Total LLM calls: {self.trace.total_llm_calls()}  "
            f"cost: ${self.trace.total_cost_usd():.4f}",
        ]
        if self.trace.cost.operators:
            parts += ["", "Cost account (from trace spans):", self.trace.cost.render()]
        if self.trace.optimizer_report is not None:
            parts += ["", self.trace.optimizer_report.render()]
        if self.trace.trace_id:
            parts.append(f"Trace id: {self.trace.trace_id}")
        if self.partial:
            parts.append(
                "WARNING: partial answer — "
                f"{self.trace.total_dead_lettered()} records dead-lettered, "
                f"{self.trace.total_skipped()} skipped, "
                f"{len(self.trace.errors)} operators degraded."
            )
        if self.optimization_log:
            parts.insert(5, "")
            parts.insert(6, "Optimizations applied:")
            parts.insert(7, "\n".join(f"  - {line}" for line in self.optimization_log))
        return "\n".join(parts)


class Luna:
    """LLM-powered unstructured analytics over a Sycamore context.

    ``policy`` selects the optimizer's cost/quality point (a name in
    :data:`~repro.optimizer.POLICIES`: "quality", "balanced", "cost",
    "cascade" — or a custom :class:`OptimizerPolicy`).

    ``error_policy`` selects failure containment at query time: ``fail``
    aborts on any operator failure; ``skip`` / ``dead_letter`` contain
    per-record LLM failures, degrade failed operators, and flag the
    answer as partial instead of raising.
    """

    def __init__(
        self,
        context: SycamoreContext,
        planner_model: str = "sim-large",
        policy: "OptimizerPolicy | str" = BALANCED_POLICY,
        error_policy: str = "fail",
        journal: Optional[QueryJournal] = None,
        stats_store: Optional[StatsStore] = None,
        optimizer: Optional[CostBasedOptimizer] = None,
    ):
        self.context = context
        # Optional write-ahead journal: queries submitted with a
        # ``query_id`` checkpoint per-node outputs durably, and
        # :meth:`resume` can pick a crashed query back up.
        self.journal = journal
        # Planning is the most latency-sensitive traffic in the system (a
        # user is staring at the prompt): submit it at INTERACTIVE
        # priority when the context routes through a scheduler.
        self.planner = LunaPlanner(
            context.llm_for("interactive"), model=planner_model
        )
        # Optional adaptive-statistics loop (repro.optimizer): a live
        # StatsStore both informs the cost-based rewrites and accumulates
        # each execution's observed selectivity/$-per-row figures. The
        # serving layer instead passes ``optimizer`` built against a
        # *frozen* snapshot (cache-key stability) and keeps ``stats_store``
        # live so observations still land.
        self.stats_store = stats_store
        self.optimizer = optimizer or CostBasedOptimizer(policy, stats=stats_store)
        self.executor = LunaExecutor(context, error_policy=error_policy)
        self.history = QueryHistory()

    # ------------------------------------------------------------------

    def query(
        self,
        question: str,
        index: str,
        secondary_indexes: "tuple | list" = (),
        query_id: str = "",
    ) -> LunaResult:
        """Plan, optimize and execute a natural-language question.

        ``secondary_indexes`` names additional catalog indexes the
        planner may join against — the data-integration pattern of §1
        ("the competitive information may involve a lookup in a
        database").

        ``query_id`` (with a journal-equipped Luna) turns on per-node
        checkpointing so the query can be :meth:`resume`-d after a crash.
        """
        session = self.session(question, index, secondary_indexes)
        return session.run(query_id=query_id)

    def session(
        self,
        question: str,
        index: str,
        secondary_indexes: "tuple | list" = (),
    ) -> "LunaSession":
        """Start an inspect-before-run session (human-in-the-loop)."""
        named_index = self.context.catalog.get(index)
        secondary = [self.context.catalog.get(name) for name in secondary_indexes]
        # Planning is traced separately from execution: a session may sit
        # between plan and run (human inspection) for minutes.
        with self.context.tracer.span("plan:luna", kind="plan", question=question):
            plan = self.planner.plan(question, named_index, secondary=secondary)
        return LunaSession(
            luna=self, question=question, index=index, plan=plan
        )

    def follow_up(self, question: str) -> LunaResult:
        """Ask a question *about the previous answer's documents* (§6.1).

        The iterative-refinement loop: "of those, how many were in
        Alaska?" plans like a normal question, but its source node is
        replaced by the supporting documents of the last recorded query —
        so filters compose across turns. Requires a prior query whose
        trace carries document provenance.
        """
        last = self.history.last()
        if last is None:
            raise ValueError("no previous query to follow up on")
        doc_ids = last.result.trace.supporting_documents()
        if not doc_ids:
            raise ValueError(
                "the previous answer has no document provenance to follow up on"
            )
        index = last.result.index
        named_index = self.context.catalog.get(index)
        plan = self.planner.plan(question, named_index)
        for node in plan.nodes:
            if node.operation == "QueryIndex":
                node.operation = "FromDocuments"
                node.params = {"index": index, "doc_ids": list(doc_ids)}
                node.description = (
                    f"Start from the {len(doc_ids)} records of the previous answer"
                )
        plan.validate()
        return self.execute_plan(question, index, plan)

    def execute_plan(
        self,
        question: str,
        index: str,
        plan: LogicalPlan,
        query_id: str = "",
    ) -> LunaResult:
        """Optimize and execute an explicit plan (bypassing the planner).

        With a traced context, the whole execution becomes one span tree
        rooted at a ``query`` span (each query is its own trace), and the
        resulting :class:`ExecutionTrace` carries the ``trace_id`` and a
        span-derived :class:`~repro.observability.CostAccount`.

        With a journal and a ``query_id``, the *optimized* plan is logged
        before execution and every node output is durably checkpointed —
        the begin record stores the post-optimizer plan precisely so that
        :meth:`resume` can skip planner and optimizer entirely and replay
        against the exact DAG the crashed run was executing.
        """
        named_index = self.context.catalog.get(index)
        # Static plan checks gate *every* execution path — planner
        # output, follow-ups, and hand-built/edited session plans — so
        # an invalid plan fails here with a structured
        # :class:`~repro.analysis.plancheck.PlanCheckError`, never
        # halfway through execution.
        ensure_valid_plan(
            plan,
            schema=named_index.schema,
            known_indexes={
                name: self.context.catalog.get(name).schema
                for name in self.context.catalog.names()
            },
        )
        tracer = self.context.tracer
        # Ambient-parented: a standalone query roots its own trace; one
        # run under the serving layer nests beneath its per-request
        # ``serve`` root span.
        with tracer.span("query:luna", kind="query", question=question, index=index) as query_span:
            with tracer.span("plan:optimize", kind="plan"):
                optimized, log, report = self.optimizer.optimize_with_report(
                    plan,
                    schema=named_index.schema,
                    source_rows=float(len(named_index)),
                )
            if self.journal is not None and query_id:
                self.journal.begin(
                    query_id,
                    question=question,
                    index=index,
                    plan_json=optimized.to_json(),
                    error_policy=self.executor.error_policy,
                )
            result = self._run(question, index, plan, optimized, log, query_id)
        trace = result.trace
        self._close_trace(trace, query_span)
        report.record_actuals(trace)
        trace.optimizer_report = report
        if self.stats_store is not None:
            # Close the adaptive loop: fold this execution's observed
            # selectivity/$-per-row back into the live store.
            self.stats_store.observe(optimized, trace)
        return result

    @staticmethod
    def _close_trace(trace: ExecutionTrace, query_span: Any) -> None:
        # With every node replayed no operator span names the trace. And
        # when nested under a still-open serving span the trace root has
        # no duration yet; the query span's own wall time is the honest
        # figure either way.
        trace.trace_id = trace.cost.trace_id = query_span.trace_id
        trace.cost.wall_clock_s = query_span.duration_s

    def _run(
        self,
        question: str,
        index: str,
        plan: LogicalPlan,
        optimized: LogicalPlan,
        log: List[str],
        query_id: str,
        completed: Optional[Dict[int, Any]] = None,
    ) -> LunaResult:
        """Execute an optimized plan, checkpointing each node and
        committing the answer when the query is journaled, and record
        the result; ``completed`` holds a resumed query's checkpoints."""
        journal = self.journal if query_id else None
        writer = None
        if journal is not None:
            writer = lambda i, op, value: journal.node_complete(query_id, i, op, value)  # noqa: E731
        answer, trace = self.executor.execute(
            optimized, completed=completed, journal_writer=writer, query_id=query_id
        )
        if journal is not None:
            journal.commit(query_id, answer)
        result = LunaResult(
            question=question,
            index=index,
            plan=plan,
            optimized_plan=optimized,
            optimization_log=log,
            code=generate_code(optimized),
            answer=answer,
            trace=trace,
            partial=trace.partial,
        )
        self.history.record(result)
        return result

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def resume(self, query_id: str) -> LunaResult:
        """Resume a journaled query in a fresh process after a crash.

        The journal stores the *optimized* plan, so resume skips planner
        and optimizer entirely: the exact DAG the crashed run was
        executing is re-hydrated (validated against the journaled
        fingerprint), checkpointed nodes are replayed from their durable
        outputs, and only nodes past the last checkpoint re-execute.
        Over a deterministic context this makes the resumed answer
        byte-identical to an uninterrupted run.
        """
        if self.journal is None:
            raise ValueError(
                "this Luna has no journal; construct with journal= to resume"
            )
        journal = self.journal
        state = journal.load(query_id)
        optimized = LogicalPlan.from_json(state.plan_json)
        rehydrated = plan_json_fingerprint(optimized.to_json())
        if rehydrated != state.fingerprint:
            raise JournalError(
                f"journaled plan for {query_id!r} does not survive the "
                f"round-trip: fingerprint {rehydrated} != {state.fingerprint}"
            )
        with self.context.tracer.span(
            "query:luna", kind="query", question=state.question, index=state.index, resumed=True
        ) as query_span:
            result = self._run(
                state.question,
                state.index,
                optimized,
                optimized,
                [],
                query_id,
                completed=state.completed,
            )
        trace = result.trace
        self._close_trace(trace, query_span)
        result.optimization_log.append(
            f"resumed from journal checkpoint: {trace.nodes_replayed} "
            f"node(s) replayed, {trace.nodes_executed} re-executed"
        )
        journal.registry.counter("lifecycle.resumes").inc()
        journal.registry.counter("lifecycle.nodes_replayed").inc(trace.nodes_replayed)
        journal.registry.counter("lifecycle.nodes_reexecuted").inc(trace.nodes_executed)
        return result


@dataclass
class LunaSession:
    """A planned-but-not-executed query the user can inspect and edit.

    "The inability to correct or refine a query causes significant
    difficulty... users have full control over how their query is
    answered" (§6.1). Edits operate on plan nodes by index.
    """

    luna: Luna
    question: str
    index: str
    plan: LogicalPlan

    def show_plan(self) -> str:
        """The plan narrated step by step."""
        return self.plan.to_natural_language()

    def set_param(self, node_index: int, name: str, value: Any) -> "LunaSession":
        """Override one parameter of one plan node (e.g. fix a condition)."""
        node = self._node(node_index)
        node.params[name] = value
        node.description = f"{node.description} [edited: {name}={value!r}]"
        return self

    def replace_node(self, node_index: int, replacement: Dict[str, Any]) -> "LunaSession":
        """Swap a whole node, keeping its position and inputs by default."""
        node = self._node(node_index)
        new_node = PlanNode.from_dict(replacement)
        if not new_node.inputs:
            new_node.inputs = list(node.inputs)
        self.plan.nodes[node_index] = new_node
        return self

    def remove_filter(self, node_index: int) -> "LunaSession":
        """Neutralize a filter node the planner added by mistake."""
        node = self._node(node_index)
        self.plan.nodes[node_index] = PlanNode(
            operation="Identity",
            inputs=list(node.inputs),
            description=f"(removed: {node.description})",
        )
        return self

    def run(self, query_id: str = "") -> LunaResult:
        """Execute the (possibly edited) plan and return the result."""
        self.plan.validate()
        return self.luna.execute_plan(
            self.question, self.index, self.plan, query_id=query_id
        )

    def _node(self, node_index: int) -> PlanNode:
        if not 0 <= node_index < len(self.plan.nodes):
            raise IndexError(
                f"plan has {len(self.plan.nodes)} nodes; no node {node_index}"
            )
        return self.plan.nodes[node_index]
