"""Luna's query planner: natural language -> validated logical plan.

"Luna uses an LLM to interpret a user question and decompose it to a DAG
of data processing operations. The LLM is prompted with the user's query
and is asked to generate a query plan using a fixed set of operators and
data sources. The LLM generates the plan in JSON format" (§6.1).

The planner prompt carries the question, the target index's discovered
schema, and the operator vocabulary with one-line documentation. The
returned JSON is validated; invalid plans are retried (a fresh sample)
and, failing that, structurally repaired where possible. Re-planning is
the planner's own retry: only it can judge a plan invalid. Malformed JSON
is already re-asked by ``complete_json`` and transport errors by the
reliability layer, so neither is asked again here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.plancheck import ensure_valid_plan
from ..indexes.catalog import NamedIndex
from ..llm.base import LLMClient
from ..llm.errors import MalformedOutputError
from ..llm.prompts import PLAN_QUERY, neutralize_markers
from .operators import OPERATOR_SPECS, LogicalPlan, PlanNode, PlanValidationError

#: One-line operator docs placed in the planner prompt.
OPERATOR_DOCS: Dict[str, str] = {
    "QueryIndex": "Read records from a named index; optional 'query' retrieves by relevance.",
    "FromDocuments": "Start from an explicit list of document ids (follow-up queries).",
    "BasicFilter": "Keep records where a structured field compares to a value (op: eq/ne/lt/le/gt/ge/contains).",
    "LlmFilter": "Keep records satisfying a natural-language 'condition' (uses an LLM per record).",
    "LlmExtract": "Extract a new 'field' from each record's text with an LLM at query time.",
    "Count": "Count the input records.",
    "Aggregate": "Compute func (sum/avg/min/max/count/median) of a numeric field, optionally per 'group_by'.",
    "TopK": "Most frequent values of 'field' (k, descending).",
    "Sort": "Order records by 'field'.",
    "Limit": "Keep the first k records.",
    "Project": "Emit the values of the named 'fields' from each record.",
    "Distinct": "Keep one record per distinct value of 'field'.",
    "Join": "Join two inputs on equality of 'left_on'/'right_on'.",
    "Math": "Evaluate an arithmetic 'expression' over earlier results referenced as #i.",
    "Summarize": "Produce a natural-language synthesis of the input records.",
    "Identity": "Pass records through unchanged.",
}

#: Re-plans after a plan fails validation, so one question costs at most
#: ``MAX_PLAN_RETRIES + 1`` well-formed planner responses.
MAX_PLAN_RETRIES = 2


class LunaPlanner:
    """Generates and validates logical plans for one index."""

    def __init__(self, llm: LLMClient, model: str = "sim-large"):
        self.llm = llm
        self.model = model

    # ------------------------------------------------------------------

    def build_prompt(
        self,
        question: str,
        index: NamedIndex,
        secondary: Sequence[NamedIndex] = (),
    ) -> str:
        """Assemble the planner prompt for a question and schema."""
        # The question is user input: defuse line-initial section markers
        # before it joins the structured prompt (prompt-taint lint).
        question = neutralize_markers(question)
        schema_payload = index.schema_for_planner()
        operators = "\n".join(
            f"{name}: {doc}" for name, doc in OPERATOR_DOCS.items()
        )
        fields = {
            "question": question,
            "schema": json.dumps(schema_payload, sort_keys=True),
            "operators": operators,
        }
        if secondary:
            fields["secondary"] = json.dumps(
                [s.schema_for_planner() for s in secondary], sort_keys=True
            )
        return PLAN_QUERY.render(**fields)

    def plan(
        self,
        question: str,
        index: NamedIndex,
        secondary: Sequence[NamedIndex] = (),
    ) -> LogicalPlan:
        """Produce a validated plan, re-planning/repairing invalid plans.

        Output that is not JSON even after ``complete_json``'s re-asks
        raises :class:`PlanValidationError` at once.

        ``secondary`` lists additional data sources the planner may join
        against — the paper's data-integration pattern (§1).
        """
        prompt = self.build_prompt(question, index, secondary)
        last_error: Optional[PlanValidationError] = None
        for attempt in range(MAX_PLAN_RETRIES + 1):
            try:
                payload = self.llm.complete_json(prompt, model=self.model)
            except MalformedOutputError as exc:
                raise PlanValidationError(
                    f"could not produce a valid plan for {question!r}: {exc}"
                ) from exc
            try:
                plan = LogicalPlan.from_json(payload)
                plan = self._repair(plan, index)
                plan.validate()
                # Schema-aware static checks (repro.analysis.plancheck):
                # a failing plan is rejected here, at plan time, and the
                # loop replans from a fresh sample.
                known = {index.name: index.schema}
                known.update({s.name: s.schema for s in secondary})
                ensure_valid_plan(plan, schema=index.schema, known_indexes=known)
                return plan
            except PlanValidationError as exc:
                last_error = exc
                # Nudge the sampler: a retry with temperature produces a
                # fresh plan from a stochastic backend.
                prompt = prompt + "\n" * (attempt + 1)
        raise PlanValidationError(
            f"could not produce a valid plan for {question!r}: {last_error}"
        )

    # ------------------------------------------------------------------

    def _repair(self, plan: LogicalPlan, index: NamedIndex) -> LogicalPlan:
        """Conservative structural repairs of near-valid planner output."""
        repaired: List[PlanNode] = []
        for node in plan.nodes:
            node = PlanNode.from_dict(node.to_dict())
            # Unknown operations degrade to Identity rather than failing
            # the whole plan, preserving DAG shape for user inspection.
            if node.operation not in OPERATOR_SPECS:
                node = PlanNode(
                    operation="Identity",
                    inputs=node.inputs[:1],
                    description=f"(unsupported operation {node.operation!r})",
                )
            if node.operation == "QueryIndex" and "index" not in node.params:
                node.params["index"] = index.name
            if node.operation == "TopK":
                node.params.setdefault("k", 1)
                node.params.setdefault("descending", True)
            if node.operation == "Limit" and "k" not in node.params:
                node.params["k"] = 10
            repaired.append(node)
        return LogicalPlan(nodes=repaired)
