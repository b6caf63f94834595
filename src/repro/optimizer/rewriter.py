"""The cost-based plan rewriter: statistics-driven plan transformations.

:class:`CostBasedOptimizer` sits between the planner and Luna's executor.
It subsumes the policy-driven :class:`~repro.luna.optimizer.LunaOptimizer`
(string-match substitution, pushdown, fusion, model selection) and layers
three statistics-aware rewrite families on top:

* **selectivity reorder** — within a filter chain, run filters by
  ascending ``cost_per_row / (1 - selectivity)`` (cheapest spend per
  removed record first), using learned selectivities from the
  :class:`~repro.optimizer.stats.StatsStore` when available;
* **scan-filter folding** — a full index scan feeding a structured
  comparison on a catalog schema field becomes an index-side scan filter
  (index-scan instead of post-scan filtering), and the filter node
  degrades to ``Identity``;
* **cascade annotation** — when the policy enables cascades, eligible
  semantic operators are annotated to draft on a cheap model and
  escalate to the policy's (expensive) verify model only below a
  confidence threshold (see ``docs/OPTIMIZER.md`` for the semantics).

Like every Luna rewrite, these never change node count or node indexes —
folded nodes degrade to ``Identity`` in place and reorders swap node
contents between positions — so ``Math`` references like ``#4`` stay
valid and plans remain diffable node by node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..llm.base import DEFAULT_MODELS
from ..luna.operators import (
    CASCADE_ELIGIBLE_OPERATIONS,
    LogicalPlan,
)
from ..luna.optimizer import (
    BALANCED_POLICY,
    POLICIES,
    LunaOptimizer,
    OptimizerPolicy,
)
from ..sycamore.aggregates import COMPARATORS
from .costmodel import CostModel
from .report import OptimizerReport
from .stats import StatsSnapshot, StatsStore

#: Comparators an index scan can apply while reading: all of them, as
#: the folded filter runs the same predicate the BasicFilter would.
SCAN_FILTER_OPS = tuple(COMPARATORS)

#: Cardinality assumed for a scan when the caller knows nothing about
#: the index (the cost model only needs relative magnitudes to rank).
DEFAULT_SOURCE_ROWS = 100.0


class CostBasedOptimizer:
    """Cost-based plan optimization over a policy's baseline rewrites.

    ``policy`` is an :class:`~repro.luna.optimizer.OptimizerPolicy` or a
    name in :data:`~repro.luna.optimizer.POLICIES`. ``stats`` supplies
    learned selectivity/$-per-row figures — a live
    :class:`~repro.optimizer.stats.StatsStore`, a frozen
    :class:`~repro.optimizer.stats.StatsSnapshot` (what the serving layer
    pins per epoch), or ``None`` for priors-only optimization.
    """

    def __init__(
        self,
        policy: "OptimizerPolicy | str" = BALANCED_POLICY,
        stats: "StatsStore | StatsSnapshot | None" = None,
        registry=None,
    ):
        if isinstance(policy, str):
            policy = POLICIES[policy]
        self.policy = policy
        self.stats = stats
        self.base = LunaOptimizer(policy)
        self.cost_model = CostModel(stats)
        if registry is None:
            from ..observability.metrics import get_registry

            registry = get_registry()
        self._m_plans = registry.counter("optimizer.plans_optimized")
        self._m_rewrites = registry.counter("optimizer.rewrites")

    # ------------------------------------------------------------------

    def optimize(
        self, plan: LogicalPlan, schema: Optional[Dict[str, str]] = None
    ) -> Tuple[LogicalPlan, List[str]]:
        """Drop-in :class:`LunaOptimizer` surface (report discarded)."""
        optimized, log, _ = self.optimize_with_report(plan, schema)
        return optimized, log

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
            stats_fingerprint=(
                self.stats.fingerprint() if self.stats is not None else ""
            ),
        )
        report.estimated_before = self.cost_model.estimate_plan(plan, rows)

        plan, log = self.base.optimize(plan, schema)
        log.extend(self._reorder_by_selectivity(plan))
        log.extend(self._fold_scan_filter(plan, schema))
        if self.policy.cascade:
            log.extend(self._annotate_cascades(plan))

        report.rewrites = list(log)
        report.estimated_after = self.cost_model.estimate_plan(plan, rows)
        self._m_plans.inc()
        if log:
            self._m_rewrites.inc(len(log))
        return plan, log, report

    # ------------------------------------------------------------------
    # Rewrite families
    # ------------------------------------------------------------------

    def _reorder_by_selectivity(self, plan: LogicalPlan) -> List[str]:
        """Order each filter chain by ascending $-per-removed-record."""
        log = []
        for chain in self.base._filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            ranked = sorted(
                range(len(contents)),
                key=lambda i: (self.cost_model.rank(contents[i]), i),
            )
            if ranked == list(range(len(contents))):
                continue
            reordered = [contents[i] for i in ranked]
            # Snapshot wiring before mutating: reordered aliases the
            # plan's node objects (same discipline as filter pushdown).
            original_inputs = [list(plan.nodes[p].inputs) for p in chain]
            for position, node, inputs in zip(chain, reordered, original_inputs):
                node.inputs = inputs
                plan.nodes[position] = node
            ranks = ", ".join(
                f"{plan.nodes[p].operation}@{self.cost_model.rank(plan.nodes[p]):.4g}"
                for p in chain
            )
            log.append(
                "reorder: filter chain "
                + "->".join(str(i) for i in chain)
                + f" ordered by cost-per-removed-record ({ranks})"
            )
        return log

    def _fold_scan_filter(
        self, plan: LogicalPlan, schema: Optional[Dict[str, str]]
    ) -> List[str]:
        """Fold a structured filter over a full scan into the scan itself.

        Applies when a bare ``QueryIndex`` (no relevance ``query``) has a
        single consumer that is a ``BasicFilter`` on a catalog schema
        field: the scan reads only matching records (index-scan choice)
        and the filter node degrades to ``Identity``.
        """
        log = []
        if not schema:
            return log
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
            if consumer.operation != "BasicFilter":
                continue
            if consumer.inputs != [index]:
                continue
            field = consumer.params.get("field")
            op = consumer.params.get("op", "eq")
            if field not in schema or op not in SCAN_FILTER_OPS:
                continue
            value = consumer.params.get("value")
            node.params["filter_field"] = field
            node.params["filter_op"] = op
            node.params["filter_value"] = value
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

    def _annotate_cascades(self, plan: LogicalPlan) -> List[str]:
        """Annotate eligible semantic nodes with the policy's cascade."""
        log = []
        draft = self.policy.cascade_draft_model
        for index, node in enumerate(plan.nodes):
            if node.operation not in CASCADE_ELIGIBLE_OPERATIONS:
                continue
            verify = str(node.params.get("model") or "")
            if not verify or verify == draft:
                continue  # a cascade onto itself saves nothing
            if draft not in DEFAULT_MODELS:
                continue  # plancheck flags unknown verify models instead
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


__all__ = ["DEFAULT_SOURCE_ROWS", "SCAN_FILTER_OPS", "CostBasedOptimizer"]
