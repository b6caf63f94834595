"""Cost-based adaptive query optimization (DESIGN.md §14).

The paper's plan optimizer "makes trade-offs based on cost vs efficiency"
(§6.1); this package makes those trade-offs *adaptive*: a persistent
:class:`StatsStore` learns per-operator selectivity, $/row and latency
from past execution traces, a :class:`CostModel` turns those figures into
plan estimates, and a :class:`CostBasedOptimizer` rewrites logical plans
— selectivity-ordered predicates, index-side scan filters, cheap-model
draft/verify cascades — emitting an :class:`OptimizerReport` so every
decision stays inspectable (the ``plan-explain`` CLI verb).
"""

from .costmodel import (
    ESCALATION_PRIOR,
    SELECTIVITY_PRIORS,
    TOKEN_PROFILES,
    CostModel,
    NodeEstimate,
    PlanEstimate,
)
from .report import OptimizerReport
from .rewriter import (
    BALANCED_POLICY,
    CASCADE_POLICY,
    COST_POLICY,
    DEFAULT_SOURCE_ROWS,
    POLICIES,
    QUALITY_POLICY,
    CostBasedOptimizer,
    OptimizerPolicy,
)
from .stats import (
    OBSERVED_OPERATIONS,
    OperatorStats,
    StatsSnapshot,
    StatsStore,
    node_model_key,
    node_signature,
)

__all__ = [
    "BALANCED_POLICY",
    "CASCADE_POLICY",
    "COST_POLICY",
    "DEFAULT_SOURCE_ROWS",
    "ESCALATION_PRIOR",
    "OBSERVED_OPERATIONS",
    "POLICIES",
    "QUALITY_POLICY",
    "SELECTIVITY_PRIORS",
    "TOKEN_PROFILES",
    "CostBasedOptimizer",
    "CostModel",
    "NodeEstimate",
    "OperatorStats",
    "OptimizerPolicy",
    "OptimizerReport",
    "PlanEstimate",
    "StatsSnapshot",
    "StatsStore",
    "node_model_key",
    "node_signature",
]
