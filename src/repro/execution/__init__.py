"""Execution substrate: lazy plans, pipelined/parallel executor, caches,
lineage. The repository's Ray stand-in (see DESIGN.md §1).
"""

from .executor import (
    DeadLetter,
    ExecutionStats,
    Executor,
    NodeStats,
    TaskError,
)
from .lineage import Lineage, LineageEdge
from .materialize import DiskCache, MemoryCache, plan_fingerprint, stable_fingerprint
from .plan import ON_ERROR_POLICIES, Plan, PlanNode

__all__ = [
    "DeadLetter",
    "DiskCache",
    "ExecutionStats",
    "Executor",
    "Lineage",
    "LineageEdge",
    "MemoryCache",
    "NodeStats",
    "ON_ERROR_POLICIES",
    "Plan",
    "PlanNode",
    "TaskError",
    "plan_fingerprint",
    "stable_fingerprint",
]
