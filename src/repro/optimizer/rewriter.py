"""Luna's plan optimizer: one ordered list of rewrites over one cost model.

"The plan optimizer makes trade-offs based on cost vs efficiency ... It
is able to combine and batch operations when possible, and make decisions
about what technique (string matching vs semantic matching), and tool
(e.g., GPT-4 versus Llama 7B) to use" (§6.1).

:class:`CostBasedOptimizer` sits between the planner and Luna's executor.
Its rewrites are the ``pipeline`` of :meth:`optimize_with_report`, applied
in that order (``docs/OPTIMIZER.md`` gives the reason for each position)
over one :class:`CostModel`, which prices and ranks nodes from static
priors and whatever the :class:`StatsStore` has learned.

Rewrites never change node count or node indexes — fused, folded and
substituted nodes degrade to ``Identity`` or swap contents in place — so
``Math`` references like ``#4`` stay valid and the user can diff original
vs optimized plans node by node. Every rewrite that fires is logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..llm import knowledge
from ..llm.base import DEFAULT_MODELS
from ..luna.operators import CASCADE_ELIGIBLE_OPERATIONS, LogicalPlan, PlanNode
from ..observability.metrics import MetricsRegistry, get_registry
from ..sycamore.aggregates import COMPARATORS
from .costmodel import CostModel
from .report import OptimizerReport
from .stats import StatsSnapshot, StatsStore

#: Cardinality assumed for a scan when the caller knows nothing about
#: the index (the cost model only needs relative magnitudes to rank).
DEFAULT_SOURCE_ROWS = 100.0

_FILTER_OPS = ("BasicFilter", "LlmFilter")


@dataclass(frozen=True)
class OptimizerPolicy:
    """A point on the cost/quality trade-off curve."""

    name: str
    filter_model: str
    extract_model: str
    summarize_model: str
    #: Gates the chain reorder, the one rule that moves a node; off, every
    #: filter runs where the plan wrote it (the C4 pushdown ablation).
    enable_pushdown: bool = True
    enable_string_substitution: bool = True
    enable_fusion: bool = True
    #: Cheap-model-first cascades: eligible semantic operators draft on
    #: ``cascade_draft_model`` and escalate to the policy's model only
    #: below ``cascade_confidence_threshold``.
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


class CostBasedOptimizer:
    """Applies the policy's rewrites to a validated logical plan.

    ``policy`` is an :class:`OptimizerPolicy` or a name in :data:`POLICIES`.
    ``stats`` supplies learned selectivity and $-per-row figures: a live
    :class:`StatsStore`, a frozen :class:`StatsSnapshot` (what the serving
    layer pins per epoch), or ``None`` for priors-only optimization.
    """

    def __init__(
        self,
        policy: "OptimizerPolicy | str" = BALANCED_POLICY,
        stats: "StatsStore | StatsSnapshot | None" = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise ValueError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}")
            policy = POLICIES[policy]
        self.policy = policy
        self.stats = stats
        self.cost_model = CostModel(stats)
        if registry is None:
            registry = get_registry()
        self._m_plans = registry.counter("optimizer.plans_optimized")
        self._m_rewrites = registry.counter("optimizer.rewrites")

    def optimize_with_report(
        self,
        plan: LogicalPlan,
        schema: Optional[Dict[str, str]] = None,
        source_rows: Optional[float] = None,
    ) -> Tuple[LogicalPlan, List[str], OptimizerReport]:
        """Return (optimized plan, rewrite log, optimizer report).

        ``source_rows`` is the catalog cardinality of the scanned index;
        it scales the cost estimates in the report (not the rewrite
        decisions, which compare per-row figures).
        """
        rows = float(source_rows) if source_rows else DEFAULT_SOURCE_ROWS
        report = OptimizerReport(
            policy=self.policy.name,
            stats_fingerprint="" if self.stats is None else self.stats.fingerprint(),
        )
        report.estimated_before = self.cost_model.estimate_plan(plan, rows)

        plan = plan.copy()
        schema = schema or {}
        policy = self.policy
        pipeline = (
            (policy.enable_string_substitution, self._substitute_string_match),
            (True, self._select_models),
            (policy.enable_pushdown, self._reorder_chains),
            (policy.enable_fusion, self._fuse_llm_filters),
            (True, self._fold_scan_filter),
            (policy.cascade, self._annotate_cascades),
        )
        log: List[str] = []
        for enabled, rewrite in pipeline:
            if enabled:
                log.extend(rewrite(plan, schema))

        report.rewrites = list(log)
        report.estimated_after = self.cost_model.estimate_plan(plan, rows)
        self._m_plans.inc()
        self._m_rewrites.inc(len(log))
        return plan, log, report

    # The rewrites, in pipeline order: each takes (plan, schema), edits the
    # plan in place and returns one log line per change it made.

    def _substitute_string_match(
        self, plan: LogicalPlan, schema: Dict[str, str]
    ) -> List[str]:
        """Semantic match on an already-extracted boolean -> field match."""
        log = []
        boolean_fields = sorted(f for f, kind in schema.items() if kind == "bool")
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

    def _select_models(self, plan: LogicalPlan, schema: Dict[str, str]) -> List[str]:
        """Semantic operators get the policy's model tier."""
        log = []
        model_by_op = {
            "LlmFilter": self.policy.filter_model,
            "LlmExtract": self.policy.extract_model,
            "Summarize": self.policy.summarize_model,
        }
        for index, node in enumerate(plan.nodes):
            model = model_by_op.get(node.operation)
            if model is not None:
                node.params["model"] = model
                log.append(f"model: node {index} {node.operation} -> {model}")
        return log

    def _reorder_chains(self, plan: LogicalPlan, schema: Dict[str, str]) -> List[str]:
        """Filters of one chain run by ascending ``CostModel.rank``, a
        ``BasicFilter`` winning ties: free structured filters shrink the
        record set first (pushdown), learned selectivity orders the rest."""
        log = []
        fusing = self.policy.enable_fusion
        for chain in _filter_chains(plan):
            contents = [plan.nodes[p] for p in chain]
            # A fusing policy is about to merge the chain's LlmFilters into
            # one call: their own ranks are moot, so they tie behind the
            # structured filters and keep chain order (the fused prompt
            # reads "A and B", and the verdict depends on its wording).
            ranks = [
                math.inf
                if fusing and node.operation == "LlmFilter"
                else self.cost_model.rank(node)
                for node in contents
            ]
            order = sorted(
                range(len(chain)),
                key=lambda i: (ranks[i], contents[i].operation == "LlmFilter", i),
            )
            if order == list(range(len(chain))):
                continue
            # Snapshot the chain's wiring before touching any node: the
            # reordered list shares node objects with the plan, so reading
            # inputs lazily would observe already-mutated state.
            wiring = [list(node.inputs) for node in contents]
            for position, i, inputs in zip(chain, order, wiring):
                contents[i].inputs = inputs
                plan.nodes[position] = contents[i]
            ranked = ", ".join(f"{contents[i].operation}@{ranks[i]:.4g}" for i in order)
            log.append(
                f"reorder: filter chain {'->'.join(map(str, chain))} ordered by "
                f"cost-per-removed-record ({ranked})"
            )
        return log

    def _fuse_llm_filters(self, plan: LogicalPlan, schema: Dict[str, str]) -> List[str]:
        """Adjacent ``LlmFilter`` nodes of a chain become one call."""
        log = []
        for chain in _filter_chains(plan):
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

    def _fold_scan_filter(self, plan: LogicalPlan, schema: Dict[str, str]) -> List[str]:
        """A bare ``QueryIndex`` (no relevance ``query``) whose single consumer
        is a ``BasicFilter`` on a catalog schema field reads only matching
        records (index-scan choice); the filter node degrades to ``Identity``."""
        log = []
        for index, node in enumerate(plan.nodes):
            if node.operation != "QueryIndex" or node.params.get("query"):
                continue
            if node.params.get("filter_field"):
                continue  # already folded
            consumers = plan.consumers_of(index)
            if len(consumers) != 1:
                continue
            candidate = consumers[0]
            consumer = plan.nodes[candidate]
            if consumer.operation != "BasicFilter" or consumer.inputs != [index]:
                continue
            field = consumer.params.get("field")
            op = consumer.params.get("op", "eq")
            if field not in schema or op not in COMPARATORS:
                continue
            value = consumer.params.get("value")
            node.params.update(filter_field=field, filter_op=op, filter_value=value)
            node.description = (
                f"{node.description} (scan-filtered: {field} {op} {value!r})"
            )
            consumer.operation = "Identity"
            consumer.params = {}
            consumer.description = f"(folded into scan at step {index + 1})"
            log.append(
                f"scan-filter: node {candidate} BasicFilter({field} {op} "
                f"{value!r}) folded into node {index} QueryIndex"
            )
        return log

    def _annotate_cascades(self, plan: LogicalPlan, schema: Dict[str, str]) -> List[str]:
        """Eligible semantic nodes draft on the policy's cheap model first."""
        log = []
        draft = self.policy.cascade_draft_model
        for index, node in enumerate(plan.nodes):
            if node.operation not in CASCADE_ELIGIBLE_OPERATIONS:
                continue
            verify = str(node.params.get("model") or "")
            # A cascade onto itself saves nothing; an unknown draft model is
            # left alone (plancheck flags unknown verify models instead).
            if not verify or verify == draft or draft not in DEFAULT_MODELS:
                continue
            node.params["cascade"] = {
                "draft_model": draft,
                "draft_votes": self.policy.cascade_votes,
                "confidence_threshold": self.policy.cascade_confidence_threshold,
            }
            log.append(
                f"cascade: node {index} {node.operation} drafts on {draft} "
                f"x{self.policy.cascade_votes}, escalates to {verify} below "
                f"confidence {self.policy.cascade_confidence_threshold}"
            )
        return log


def _filter_chains(plan: LogicalPlan) -> List[List[int]]:
    """Maximal runs of single-input filter nodes forming a chain.

    A filter continues its input's chain only when it is that filter's
    one consumer: reordering across a fan-out point would change what
    the other consumers see. Every other filter starts a chain, the
    filters after a fan-out included (Figure 5's second stage)."""

    def successor(index: int) -> Optional[int]:
        consumers = plan.consumers_of(index)
        if len(consumers) != 1:
            return None
        consumer = plan.nodes[consumers[0]]
        if consumer.operation not in _FILTER_OPS or consumer.inputs != [index]:
            return None
        return consumers[0]

    links = {
        index: successor(index)
        for index, node in enumerate(plan.nodes)
        if node.operation in _FILTER_OPS
    }
    continued = set(links.values())
    chains: List[List[int]] = []
    for start in links:
        if start in continued:
            continue
        chain = [start]
        while links[chain[-1]] is not None:
            chain.append(links[chain[-1]])
        if len(chain) > 1:
            chains.append(chain)
    return chains


def _boolean_field_for_condition(
    condition: str, boolean_fields: List[str]
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
    for field in boolean_fields:
        field_concepts = set(knowledge.match_concepts(field.replace("_", " ")))
        if field_concepts and field_concepts == concepts:
            return field, (not negated)
    return None


__all__ = [
    "BALANCED_POLICY",
    "CASCADE_POLICY",
    "COST_POLICY",
    "DEFAULT_SOURCE_ROWS",
    "POLICIES",
    "QUALITY_POLICY",
    "CostBasedOptimizer",
    "OptimizerPolicy",
]
