"""Plan lowering: every logical operator as the DocSet call that runs it.

"Query plans are translated into Sycamore code in Python" (§6.1).
:data:`LOWERING` is that translation — one entry per operation in
:data:`~repro.luna.operators.OPERATOR_SPECS`, and the only place an
operation name turns into behaviour. :class:`~repro.luna.executor.LunaExecutor`
calls an entry with a node's materialised inputs wrapped as DocSets and
runs what comes back; a cluster worker chains a shard spec's entries
into one DocSet (:func:`repro.cluster.worker.run_spec_locally`); and
:func:`~repro.luna.codegen.generate_code` calls the same entries with
objects that record the calls made on them, so the script a user is
shown is the calls the executor makes.

An entry is ``(scope, params, *inputs) -> DocSet | value`` and only
wires parameters: what an operator *does* is the DocSet method it names.
Per-record operators (``BasicFilter``, ``LlmFilter``, ``LlmExtract``)
lower to plan ``filter``/``map`` nodes, which is what lets a worker run
them over a shard; the rest are collection functions over a whole input
(DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from .mathops import braced
from .operators import PlanValidationError


@dataclass(frozen=True)
class Scope:
    """What a lowered call may refer to besides its inputs: the free
    names of a generated script, ``context`` and ``math_operation``."""

    context: Any
    math_operation: Optional[Callable[..., float]] = None


def _optional(params: Dict[str, Any], *names: str) -> Dict[str, Any]:
    """The named params that are set; unset ones keep the DocSet default."""
    return {name: params[name] for name in names if params.get(name) is not None}


def _query_index(scope: Scope, params: Dict[str, Any]) -> Any:
    read = scope.context.read
    if params.get("query"):
        return read.index(params["index"], query=params["query"], k=params.get("k", 20))
    docset = read.index(params["index"])
    if params.get("filter_field"):
        # The scan filter the cost-based optimizer folds a BasicFilter into.
        docset = docset.filter_by_property(
            params["filter_field"], params.get("filter_op", "eq"), params.get("filter_value")
        )
    return docset


def _from_documents(scope: Scope, params: Dict[str, Any]) -> Any:
    context = scope.context
    return context.read.documents(
        context.catalog.get(params["index"]).docstore.get_many(params["doc_ids"])
    )


#: operation -> ``(scope, params, *inputs) -> DocSet | value``.
LOWERING: Dict[str, Callable[..., Any]] = {
    "QueryIndex": _query_index,
    "FromDocuments": _from_documents,
    "BasicFilter": lambda scope, p, docs: docs.filter_by_property(
        p["field"], p["op"], p["value"]
    ),
    "LlmFilter": lambda scope, p, docs: docs.llm_filter(
        p["condition"], **_optional(p, "model", "cascade")
    ),
    "LlmExtract": lambda scope, p, docs: docs.extract_properties(
        {p["field"]: p.get("type", "string")},
        **_optional(p, "model", "cascade"),
    ),
    "Count": lambda scope, p, docs: docs.count(),
    "Aggregate": lambda scope, p, docs: docs.aggregate(
        p["func"], p["field"], **_optional(p, "group_by")
    ),
    "TopK": lambda scope, p, docs: docs.top_k(
        p["field"], k=p.get("k", 1), descending=p.get("descending", True)
    ),
    "Sort": lambda scope, p, docs: docs.sort(
        p["field"], descending=p.get("descending", False)
    ),
    "Limit": lambda scope, p, docs: docs.limit(p["k"]),
    "Project": lambda scope, p, docs: docs.project(p["fields"]),
    "Distinct": lambda scope, p, docs: docs.distinct(p["field"]),
    "Join": lambda scope, p, left, right: left.join(
        right, left_on=p["left_on"], right_on=p["right_on"], **_optional(p, "how")
    ),
    "Math": lambda scope, p, *inputs: scope.math_operation(
        expr=braced(str(p["expression"]))
    ),
    "Summarize": lambda scope, p, docs: docs.summarize_all(
        **_optional(p, "model", "question")
    ),
    "Identity": lambda scope, p, value: value,
}


def lower(operation: str, params: Dict[str, Any], scope: Scope, inputs: Sequence[Any]) -> Any:
    """Apply ``operation``'s lowering to ``inputs``."""
    entry = LOWERING.get(operation)
    if entry is None:
        raise PlanValidationError(f"no lowering for operation {operation!r}")
    return entry(scope, params, *inputs)
