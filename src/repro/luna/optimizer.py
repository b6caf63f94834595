"""Luna's plan optimizer.

"Query operators vary significantly in latency, computational load, and
monetary cost. The plan optimizer makes trade-offs based on cost vs
efficiency ... It is able to combine and batch operations when possible,
and make decisions about what technique (string matching vs semantic
matching), and tool (e.g., GPT-4 versus Llama 7B) to use" (§6.1).

Implemented rewrites, each reported in the optimization log:

* **filter pushdown** — structured ``BasicFilter`` nodes run before
  ``LlmFilter`` nodes within a filter chain, shrinking the record set the
  expensive per-record LLM calls see;
* **string-match substitution** — an ``LlmFilter`` whose condition maps
  onto an already-extracted boolean property becomes a free
  ``BasicFilter`` (semantic matching replaced by string/field matching);
* **filter fusion** — adjacent ``LlmFilter`` nodes fuse into one
  condition, halving LLM calls (batching of operations);
* **model selection** — semantic operators are annotated with the model
  tier the policy dictates (frontier vs cheap model).

Rewrites never change node count or indexes (fused/substituted nodes
degrade to ``Identity`` or swap contents in place), so ``Math``
references like ``#4`` stay valid and the user can diff original vs
optimized plans node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..llm import knowledge
from .operators import LogicalPlan, PlanNode

_FILTER_OPS = ("BasicFilter", "LlmFilter")


@dataclass(frozen=True)
class OptimizerPolicy:
    """A point on the cost/quality trade-off curve."""

    name: str
    filter_model: str
    extract_model: str
    summarize_model: str
    enable_pushdown: bool = True
    enable_string_substitution: bool = True
    enable_fusion: bool = True
    #: Cheap-model-first cascades (repro.optimizer): eligible semantic
    #: operators draft on ``cascade_draft_model`` and escalate to the
    #: policy's model only below ``cascade_confidence_threshold``.
    cascade: bool = False
    cascade_draft_model: str = "sim-small"
    cascade_votes: int = 2
    cascade_confidence_threshold: float = 0.75


QUALITY_POLICY = OptimizerPolicy(
    name="quality",
    filter_model="sim-large",
    extract_model="sim-large",
    summarize_model="sim-large",
    enable_fusion=False,  # keep every semantic decision separate
)
BALANCED_POLICY = OptimizerPolicy(
    name="balanced",
    filter_model="sim-medium",
    extract_model="sim-large",
    summarize_model="sim-medium",
)
COST_POLICY = OptimizerPolicy(
    name="cost",
    filter_model="sim-small",
    extract_model="sim-small",
    summarize_model="sim-small",
)
#: Quality-tier models, but every eligible semantic operator drafts on
#: sim-small first and only escalates to sim-large on low-confidence
#: rows — the ScaleDoc-style predicate cascade (docs/OPTIMIZER.md).
CASCADE_POLICY = OptimizerPolicy(
    name="cascade",
    filter_model="sim-large",
    extract_model="sim-large",
    summarize_model="sim-large",
    enable_fusion=False,  # keep cascade decisions per-condition
    cascade=True,
)

POLICIES: Dict[str, OptimizerPolicy] = {
    policy.name: policy
    for policy in (QUALITY_POLICY, BALANCED_POLICY, COST_POLICY, CASCADE_POLICY)
}


class LunaOptimizer:
    """Applies policy-driven rewrites to a validated logical plan."""

    def __init__(self, policy: OptimizerPolicy = BALANCED_POLICY):
        self.policy = policy

    def optimize(
        self, plan: LogicalPlan, schema: Optional[Dict[str, str]] = None
    ) -> Tuple[LogicalPlan, List[str]]:
        """Return (optimized plan, log of applied rewrites)."""
        plan = plan.copy()
        log: List[str] = []
        if self.policy.enable_string_substitution and schema:
            log.extend(self._substitute_string_match(plan, schema))
        if self.policy.enable_pushdown:
            log.extend(self._push_down_basic_filters(plan))
        if self.policy.enable_fusion:
            log.extend(self._fuse_llm_filters(plan))
        log.extend(self._select_models(plan))
        return plan, log

    # ------------------------------------------------------------------

    def _filter_chains(self, plan: LogicalPlan) -> List[List[int]]:
        """Maximal runs of single-input filter nodes forming a chain."""
        chains: List[List[int]] = []
        used = set()
        for index, node in enumerate(plan.nodes):
            if index in used or node.operation not in _FILTER_OPS:
                continue
            # Start of a chain: predecessor is not a filter in the chain.
            prev = node.inputs[0] if node.inputs else None
            if prev is not None and plan.nodes[prev].operation in _FILTER_OPS:
                continue
            chain = [index]
            used.add(index)
            current = index
            while True:
                consumers = [
                    c
                    for c in plan.consumers_of(current)
                    if plan.nodes[c].operation in _FILTER_OPS
                    and plan.nodes[c].inputs == [current]
                ]
                # Only extend single-consumer links: reordering a fan-out
                # point would change what the other consumers see.
                if len(consumers) != 1 or len(plan.consumers_of(current)) != 1:
                    break
                current = consumers[0]
                chain.append(current)
                used.add(current)
            if len(chain) > 1:
                chains.append(chain)
        return chains

    def _push_down_basic_filters(self, plan: LogicalPlan) -> List[str]:
        log = []
        for chain in self._filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            reordered = sorted(
                contents, key=lambda n: 0 if n.operation == "BasicFilter" else 1
            )
            if [n.operation for n in reordered] != [n.operation for n in contents]:
                # Snapshot the chain's wiring before touching any node:
                # reordered shares node objects with the plan, so reading
                # inputs lazily would observe already-mutated state.
                original_inputs = [list(plan.nodes[p].inputs) for p in chain]
                for position, node, inputs in zip(chain, reordered, original_inputs):
                    node.inputs = inputs
                    plan.nodes[position] = node
                log.append(
                    "pushdown: reordered filter chain "
                    + "->".join(str(i) for i in chain)
                    + " to run structured filters before LLM filters"
                )
        return log

    def _substitute_string_match(
        self, plan: LogicalPlan, schema: Dict[str, str]
    ) -> List[str]:
        log = []
        boolean_fields = {
            name for name, type_name in schema.items() if type_name == "bool"
        }
        for index, node in enumerate(plan.nodes):
            if node.operation != "LlmFilter":
                continue
            condition = str(node.params.get("condition", ""))
            match = _boolean_field_for_condition(condition, boolean_fields)
            if match is None:
                continue
            field, value = match
            plan.nodes[index] = PlanNode(
                operation="BasicFilter",
                inputs=node.inputs,
                description=f"Filter on extracted field {field} = {value} "
                f"(substituted for semantic match on {condition!r})",
                params={"field": field, "op": "eq", "value": value},
            )
            log.append(
                f"string-match: node {index} LlmFilter({condition!r}) -> "
                f"BasicFilter({field} eq {value})"
            )
        return log

    def _fuse_llm_filters(self, plan: LogicalPlan) -> List[str]:
        log = []
        for chain in self._filter_chains(plan):
            previous_llm: Optional[int] = None
            for index in chain:
                node = plan.nodes[index]
                if node.operation != "LlmFilter":
                    previous_llm = None
                    continue
                if previous_llm is None:
                    previous_llm = index
                    continue
                base = plan.nodes[previous_llm]
                fused_condition = (
                    f"{base.params['condition']} and {node.params['condition']}"
                )
                base.params["condition"] = fused_condition
                base.description = f"Semantically filter: {fused_condition!r}"
                plan.nodes[index] = PlanNode(
                    operation="Identity",
                    inputs=node.inputs,
                    description=f"(fused into step {previous_llm + 1})",
                )
                log.append(
                    f"fusion: node {index} fused into node {previous_llm} "
                    f"as condition {fused_condition!r}"
                )
        return log

    def _select_models(self, plan: LogicalPlan) -> List[str]:
        log = []
        model_by_op = {
            "LlmFilter": self.policy.filter_model,
            "LlmExtract": self.policy.extract_model,
            "Summarize": self.policy.summarize_model,
        }
        for index, node in enumerate(plan.nodes):
            model = model_by_op.get(node.operation)
            if model is None:
                continue
            node.params["model"] = model
            log.append(f"model: node {index} {node.operation} -> {model}")
        return log


def _boolean_field_for_condition(
    condition: str, boolean_fields: set
) -> Optional[Tuple[str, bool]]:
    """Map a semantic condition onto an extracted boolean field, if safe.

    A condition maps to field F when a concept referenced by the condition
    is the same concept F's name denotes (e.g. "weather related incidents"
    -> ``weather_related``; "whose CEO recently changed" -> ``ceo_changed``).
    Negated conditions map to ``False``.
    """
    concepts = set(knowledge.match_concepts(condition))
    if not concepts:
        return None
    negated = any(
        marker in f" {knowledge.normalize(condition)} "
        for marker in (" not ", " no ", " without ")
    )
    for field in sorted(boolean_fields):
        field_concepts = set(knowledge.match_concepts(field.replace("_", " ")))
        if field_concepts and field_concepts == concepts:
            return field, (not negated)
    return None
