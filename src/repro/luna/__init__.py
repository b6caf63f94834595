"""Luna: LLM-powered unstructured analytics (paper §6).

Typical use::

    from repro.luna import Luna

    luna = Luna(context, policy="balanced")
    result = luna.query(
        "What percent of environmentally caused incidents were due to wind?",
        index="ntsb",
    )
    print(result.answer)
    print(result.explain())
"""

from .codegen import generate_code
from .diff import diff_plans
from .history import HistoryEntry, QueryHistory
from .executor import (
    ExecutionTrace,
    LUNA_ERROR_POLICIES,
    LunaExecutor,
    PlanExecutionError,
    TraceEntry,
)
from .luna import Luna, LunaResult, LunaSession
from .mathops import MathEvaluationError, evaluate, referenced_nodes
from .operators import (
    LogicalPlan,
    OPERATOR_SPECS,
    PlanNode,
    PlanValidationError,
)
from ..optimizer import (
    BALANCED_POLICY,
    COST_POLICY,
    OptimizerPolicy,
    POLICIES,
    QUALITY_POLICY,
)
from .planner import LunaPlanner, OPERATOR_DOCS

__all__ = [
    "BALANCED_POLICY",
    "COST_POLICY",
    "ExecutionTrace",
    "LUNA_ERROR_POLICIES",
    "LogicalPlan",
    "Luna",
    "LunaExecutor",
    "LunaPlanner",
    "LunaResult",
    "HistoryEntry",
    "LunaSession",
    "QueryHistory",
    "MathEvaluationError",
    "OPERATOR_DOCS",
    "OPERATOR_SPECS",
    "OptimizerPolicy",
    "POLICIES",
    "PlanExecutionError",
    "PlanNode",
    "PlanValidationError",
    "QUALITY_POLICY",
    "TraceEntry",
    "diff_plans",
    "evaluate",
    "generate_code",
    "referenced_nodes",
]
