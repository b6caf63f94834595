"""Luna's logical query operators and plan representation.

Per §6.1, Luna supports "a combination of traditional data-processing
operators (count, aggregate, join) and semantic operators (llmFilter,
llmExtract)". A :class:`LogicalPlan` is a DAG in JSON form: a list of
operator nodes where node *i* consumes earlier nodes via ``inputs`` and
``Math`` expressions reference results as ``#i``. This is exactly the
format the planner LLM emits and the format shown to the user for
inspection and editing (the human-in-the-loop tenet).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List


class PlanValidationError(ValueError):
    """The plan JSON is structurally invalid for execution."""


#: The per-record subset of the operator algebra: each output document
#: depends on exactly one input document (they lower to plan
#: ``filter``/``map`` nodes), so a shard spec made of them can be
#: partitioned across cluster workers and merged order-stably (see
#: :mod:`repro.cluster`). This is the canonical definition; the
#: cluster's envelope layer imports it rather than re-declaring it.
SHARDABLE_OPERATIONS = ("BasicFilter", "LlmFilter", "LlmExtract")

#: Operations the cost-based optimizer may annotate with a cheap-model
#: draft/verify cascade (see :mod:`repro.optimizer` and
#: ``docs/OPTIMIZER.md``). Both make one semantic judgement per record
#: whose confidence the executor can score to decide escalation.
CASCADE_ELIGIBLE_OPERATIONS = ("LlmFilter", "LlmExtract")

#: operation name -> required fields, arity and default description.
#: Arity is the number of inputs the operator consumes: 0 (source), 1, 2,
#: or "+" (1 or more). ``description`` narrates a node that carries none
#: of its own: a format string over the node's params (an absent param
#: reads ``None``); an operator without one is narrated by its name.
OPERATOR_SPECS: Dict[str, Dict[str, Any]] = {
    "QueryIndex": {
        "required": ("index",),
        "arity": 0,
        "description": "Read records from index '{index}'",
    },
    "FromDocuments": {
        "required": ("index", "doc_ids"),
        "arity": 0,
        "description": "Start from the records of the previous answer",
    },
    "BasicFilter": {
        "required": ("field", "op", "value"),
        "arity": 1,
        "description": "Filter where {field} {op} {value!r}",
    },
    "LlmFilter": {
        "required": ("condition",),
        "arity": 1,
        "description": "Semantically filter: {condition!r}",
    },
    "LlmExtract": {
        "required": ("field",),
        "arity": 1,
        "description": "Extract field {field!r} with an LLM",
    },
    "Count": {"required": (), "arity": 1, "description": "Count the records"},
    "Aggregate": {
        "required": ("func", "field"),
        "arity": 1,
        "description": "Compute {func} of {field}",
    },
    "TopK": {
        "required": ("field",),
        "arity": 1,
        "description": "Rank values of {field}",
    },
    "Sort": {"required": ("field",), "arity": 1},
    "Limit": {"required": ("k",), "arity": 1},
    "Project": {"required": ("fields",), "arity": 1},
    "Distinct": {
        "required": ("field",),
        "arity": 1,
        "description": "Keep one record per distinct {field}",
    },
    "Join": {"required": ("left_on", "right_on"), "arity": 2},
    "Math": {
        "required": ("expression",),
        "arity": "+",
        "description": "Evaluate {expression}",
    },
    "Summarize": {
        "required": (),
        "arity": 1,
        "description": "Summarize the records",
    },
    "Identity": {"required": (), "arity": 1},
}


@dataclass
class PlanNode:
    """One operator node of a logical plan."""

    operation: str
    inputs: List[int] = field(default_factory=list)
    description: str = ""
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        data = {
            "operation": self.operation,
            "description": self.description,
            "inputs": list(self.inputs),
        }
        data.update(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PlanNode":
        """Rebuild from a dictionary produced by ``to_dict``."""
        if not isinstance(data, dict):
            raise PlanValidationError(
                f"plan node must be an object, got {type(data).__name__}"
            )
        operation = data.get("operation", "")
        if not isinstance(operation, str):
            raise PlanValidationError(f"node operation must be a string, got {operation!r}")
        inputs = data.get("inputs", [])
        if inputs is None:
            inputs = []
        if not isinstance(inputs, list):
            raise PlanValidationError(f"node inputs must be a list, got {inputs!r}")
        description = data.get("description", "")
        if not isinstance(description, str):
            description = str(description)
        known = {"operation", "description", "inputs"}
        return cls(
            operation=operation,
            description=description,
            inputs=list(inputs),
            params={k: v for k, v in data.items() if k not in known},
        )


@dataclass
class LogicalPlan:
    """An ordered DAG of plan nodes; the last node is the plan's result."""

    nodes: List[PlanNode] = field(default_factory=list)

    # ------------------------------------------------------------------

    @classmethod
    def from_json(cls, payload: Any) -> "LogicalPlan":
        """Build from the planner LLM's JSON (a list, or {"nodes": [...]})."""
        if isinstance(payload, str):
            payload = json.loads(payload)
        if isinstance(payload, dict) and "nodes" in payload:
            payload = payload["nodes"]
        if not isinstance(payload, list):
            raise PlanValidationError(f"plan must be a list of nodes, got {type(payload).__name__}")
        return cls(nodes=[PlanNode.from_dict(node) for node in payload])

    def to_json(self) -> str:
        """Serialise the plan to indented JSON."""
        return json.dumps([node.to_dict() for node in self.nodes], indent=2)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`PlanValidationError` on any structural problem."""
        if not self.nodes:
            raise PlanValidationError("empty plan")
        for index, node in enumerate(self.nodes):
            spec = OPERATOR_SPECS.get(node.operation)
            if spec is None:
                raise PlanValidationError(
                    f"node {index}: unknown operation {node.operation!r}"
                )
            for name in spec["required"]:
                if name not in node.params:
                    raise PlanValidationError(
                        f"node {index} ({node.operation}): missing field {name!r}"
                    )
            arity = spec["arity"]
            if arity == "+" and len(node.inputs) < 1:
                raise PlanValidationError(
                    f"node {index} ({node.operation}): needs at least one input"
                )
            if isinstance(arity, int) and len(node.inputs) != arity:
                raise PlanValidationError(
                    f"node {index} ({node.operation}): expected {arity} inputs, "
                    f"got {len(node.inputs)}"
                )
            for input_index in node.inputs:
                if not isinstance(input_index, int) or not 0 <= input_index < index:
                    raise PlanValidationError(
                        f"node {index}: input {input_index!r} must reference an "
                        f"earlier node"
                    )

    def result_node(self) -> int:
        """Index of the node whose output is the query's answer.

        The final node by convention; validated plans are topologically
        ordered so this is always a sink.
        """
        return len(self.nodes) - 1

    def consumers_of(self, index: int) -> List[int]:
        """Indexes of nodes consuming the given node's output."""
        return [
            i
            for i, node in enumerate(self.nodes)
            if index in node.inputs
            or (
                node.operation == "Math"
                and f"#{index}" in str(node.params.get("expression", ""))
            )
        ]

    def to_natural_language(self) -> str:
        """The plan narrated step by step (§6.1: plans as natural text)."""
        lines = []
        for index, node in enumerate(self.nodes):
            description = node.description
            if not description:
                template = OPERATOR_SPECS.get(node.operation, {}).get("description")
                description = (
                    template.format_map(defaultdict(lambda: None, node.params))
                    if template
                    else node.operation
                )
            refs = ""
            if node.inputs:
                refs = " (using " + ", ".join(f"step {i + 1}" for i in node.inputs) + ")"
            lines.append(f"Step {index + 1}: {description}{refs}")
        return "\n".join(lines)

    def copy(self) -> "LogicalPlan":
        """Deep, independent copy."""
        return LogicalPlan.from_json(json.loads(self.to_json()))
