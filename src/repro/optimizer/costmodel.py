"""The optimizer's cost model: per-node and per-plan estimates.

Estimates follow the classic System-R shape specialised to LLM
analytics (see ``docs/OPTIMIZER.md`` for the worked equations):

* rows(node)   — input cardinality times a selectivity estimate, learned
  from the :class:`~repro.optimizer.stats.StatsStore` when available and
  falling back to static priors;
* cost(node)   — rows_in x $/row, where $/row for a semantic operator is
  the model's token prices applied to a per-operation token profile (or
  the learned figure when the store has seen this key);
* latency(node) — rows_in x s/row from the model's virtual latency
  curve.

Cascade-annotated nodes cost ``votes x draft_$/row + escalation_rate x
verify_$/row``: every row pays the (cheap) draft votes and only the
low-confidence fraction pays the expensive verify model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..llm.base import DEFAULT_MODELS, ModelSpec, get_model_spec
from ..luna.operators import LogicalPlan, PlanNode
from .stats import StatsSnapshot, StatsStore, node_model_key, node_signature

#: Static selectivity priors, used until the stats store has observed a
#: key. Filters keep less than half their input on typical analytics
#: questions; everything else passes records through.
SELECTIVITY_PRIORS: Dict[str, float] = {
    "BasicFilter": 0.5,
    "LlmFilter": 0.4,
    "Distinct": 0.8,
}

#: Per-call token profile of each semantic operator: (input, output).
#: Input tokens are dominated by the document section; outputs range
#: from a yes/no verdict to a JSON object to a paragraph.
TOKEN_PROFILES: Dict[str, "tuple[int, int]"] = {
    "LlmFilter": (400, 2),
    "LlmExtract": (420, 24),
    "Summarize": (1600, 150),
}

#: Prior probability that a cascade's draft votes disagree (or return an
#: unusable value) and the row escalates to the verify model. Learned
#: per-key observations override this through the stats store.
ESCALATION_PRIOR = 0.12

#: Scalar producers: their output is one value, not a record stream.
_SCALAR_OUTPUT = ("Count", "Aggregate", "Math", "Summarize")


@dataclass
class NodeEstimate:
    """Estimated execution profile of one plan node."""

    index: int
    operation: str
    rows_in: float
    rows_out: float
    cost_usd: float
    latency_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "operation": self.operation,
            "rows_in": round(self.rows_in, 2),
            "rows_out": round(self.rows_out, 2),
            "cost_usd": round(self.cost_usd, 6),
            "latency_s": round(self.latency_s, 3),
        }


@dataclass
class PlanEstimate:
    """Estimated cost of a whole plan (sum over nodes)."""

    nodes: List[NodeEstimate] = field(default_factory=list)

    @property
    def cost_usd(self) -> float:
        return sum(n.cost_usd for n in self.nodes)

    @property
    def latency_s(self) -> float:
        return sum(n.latency_s for n in self.nodes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "cost_usd": round(self.cost_usd, 6),
            "latency_s": round(self.latency_s, 3),
            "nodes": [n.as_dict() for n in self.nodes],
        }


class CostModel:
    """Estimates node and plan costs from priors + learned statistics.

    ``stats`` is any object with the :class:`~repro.optimizer.stats.StatsStore`
    lookup surface (the live store, a frozen snapshot, or None for
    priors-only estimation). ``default_model`` prices semantic nodes the
    optimizer has not annotated yet.
    """

    def __init__(
        self,
        stats: "StatsStore | StatsSnapshot | None" = None,
        default_model: str = "sim-large",
    ):
        self.stats = stats
        self.default_model = default_model

    # ------------------------------------------------------------------

    def _spec(self, model: Optional[str]) -> ModelSpec:
        name = model or self.default_model
        if name not in DEFAULT_MODELS:
            name = self.default_model
        return get_model_spec(name)

    def selectivity(self, node: PlanNode) -> float:
        """Fraction of input rows the node emits (1.0 = pass-through)."""
        learned = None
        if self.stats is not None:
            learned = self.stats.selectivity(
                node.operation, node_signature(node), node_model_key(node)
            )
        if learned is not None:
            return learned
        return SELECTIVITY_PRIORS.get(node.operation, 1.0)

    def cost_per_row(self, node: PlanNode) -> float:
        """Estimated dollars per input row."""
        learned = None
        if self.stats is not None:
            learned = self.stats.cost_per_row(
                node.operation, node_signature(node), node_model_key(node)
            )
        if learned is not None:
            return learned
        profile = TOKEN_PROFILES.get(node.operation)
        if profile is None:
            return 0.0
        in_tok, out_tok = profile
        cascade = node.params.get("cascade")
        verify = self._spec(node.params.get("model"))
        if isinstance(cascade, dict):
            draft = self._spec(cascade.get("draft_model"))
            votes = int(cascade.get("draft_votes", 2))
            threshold = float(cascade.get("confidence_threshold", 0.0))
            escalation = self._escalation_rate(threshold)
            return (
                votes * draft.cost_usd(in_tok, out_tok)
                + escalation * verify.cost_usd(in_tok, out_tok)
            )
        return verify.cost_usd(in_tok, out_tok)

    @staticmethod
    def _escalation_rate(confidence_threshold: float) -> float:
        """Expected fraction of rows that pay the verify model."""
        if confidence_threshold <= 0.0:
            return 0.0
        if confidence_threshold > 1.0:
            return 1.0
        return ESCALATION_PRIOR

    def latency_per_row(self, node: PlanNode) -> float:
        """Estimated seconds per input row."""
        learned = None
        if self.stats is not None:
            learned = self.stats.latency_per_row(
                node.operation, node_signature(node), node_model_key(node)
            )
        if learned is not None:
            return learned
        profile = TOKEN_PROFILES.get(node.operation)
        if profile is None:
            return 0.0
        in_tok, out_tok = profile
        cascade = node.params.get("cascade")
        verify = self._spec(node.params.get("model"))
        if isinstance(cascade, dict):
            draft = self._spec(cascade.get("draft_model"))
            votes = int(cascade.get("draft_votes", 2))
            threshold = float(cascade.get("confidence_threshold", 0.0))
            escalation = self._escalation_rate(threshold)
            return (
                votes * draft.latency_s(in_tok, out_tok)
                + escalation * verify.latency_s(in_tok, out_tok)
            )
        return verify.latency_s(in_tok, out_tok)

    # ------------------------------------------------------------------

    def rank(self, node: PlanNode) -> float:
        """Predicate-ordering rank: cost per unit of records removed.

        The classic optimal ordering for independent commuting predicates
        runs them by ascending ``cost_per_row / (1 - selectivity)`` — the
        cheapest most-selective filter first. A free structured filter
        ranks 0 and always leads; a pass-through filter (selectivity 1)
        ranks effectively infinite and trails.
        """
        removed = max(1e-6, 1.0 - self.selectivity(node))
        return self.cost_per_row(node) / removed

    def estimate_node(self, node: PlanNode, rows_in: float, index: int = 0) -> NodeEstimate:
        """Estimate one node given its input cardinality."""
        selectivity = self.selectivity(node)
        if node.operation in _SCALAR_OUTPUT:
            rows_out = 1.0
        elif node.operation in ("Limit", "TopK"):
            k = node.params.get("k", 1)
            try:
                rows_out = min(rows_in, float(k))
            except (TypeError, ValueError):
                rows_out = rows_in
        elif node.operation in ("BasicFilter", "LlmFilter", "Distinct"):
            rows_out = rows_in * selectivity
        else:
            rows_out = rows_in
        # Summarize makes one collection-level call, not one per record.
        effective_rows = 1.0 if node.operation == "Summarize" else rows_in
        return NodeEstimate(
            index=index,
            operation=node.operation,
            rows_in=rows_in,
            rows_out=rows_out,
            cost_usd=effective_rows * self.cost_per_row(node),
            latency_s=effective_rows * self.latency_per_row(node),
        )

    def estimate_plan(self, plan: LogicalPlan, source_rows: float) -> PlanEstimate:
        """Estimate a whole plan, propagating cardinalities along edges.

        ``source_rows`` is the catalog cardinality of the index a bare
        ``QueryIndex`` scans (a relevance-retrieval scan caps at ``k``).
        """
        estimate = PlanEstimate()
        rows_out: Dict[int, float] = {}
        for index, node in enumerate(plan.nodes):
            if node.operation in ("QueryIndex", "FromDocuments"):
                if node.operation == "FromDocuments":
                    rows = float(len(node.params.get("doc_ids", []) or []))
                elif node.params.get("query"):
                    rows = min(source_rows, float(node.params.get("k", 20)))
                else:
                    rows = source_rows
                    if node.params.get("filter_field"):
                        # A scan-time filter applies BasicFilter selectivity.
                        rows *= SELECTIVITY_PRIORS["BasicFilter"]
                rows_in = 0.0
                node_estimate = self.estimate_node(node, rows_in, index)
                node_estimate.rows_out = rows
            else:
                rows_in = rows_out[node.inputs[0]] if node.inputs else 0.0
                node_estimate = self.estimate_node(node, rows_in, index)
            rows_out[index] = node_estimate.rows_out
            estimate.nodes.append(node_estimate)
        return estimate


__all__ = [
    "ESCALATION_PRIOR",
    "SELECTIVITY_PRIORS",
    "TOKEN_PROFILES",
    "CostModel",
    "NodeEstimate",
    "PlanEstimate",
]
