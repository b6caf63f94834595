"""Static validation of Luna logical plans before execution.

The planner LLM emits JSON; :meth:`LogicalPlan.validate` already rejects
structurally broken output (unknown operators, wrong arity). This module
is the stronger, schema-aware contract check the paper alludes to with
plans being "checked before execution" (§6.1): it accumulates *all*
problems in one structured :class:`PlanCheckReport` instead of failing
on the first, and it understands dataflow — which fields exist at each
node, given the index schema and any upstream ``LlmExtract`` nodes.

Call sites:

* :class:`~repro.luna.planner.LunaPlanner` — rejects a plan that fails
  the check and replans (a fresh LLM sample).
* :meth:`~repro.luna.luna.Luna.execute_plan` — hand-built/edited plans
  are checked against the target index's schema at plan time, never at
  execution time.
* :class:`~repro.serving.service.QueryService` — the plan cache only
  admits plans that pass, so a bad plan can never be served twice.
* ``python -m repro plancheck`` — the same check from the CLI.

Violation codes (severity in parentheses):

========================  ===========================================
``empty-plan`` (error)    plan has no nodes
``unknown-operator``      operation not in the operator vocabulary
``missing-param``         a required operator parameter is absent
``bad-param`` (error)     a parameter fails its type/value contract
``arity-mismatch``        wrong number of inputs for the operator
``dangling-input``        input index outside the plan
``nontopological-input``  input references self or a later node
``cycle`` (error)         the reference graph contains a cycle
``unknown-index``         source reads an index the catalog lacks
``unknown-field``         field not in schema nor extracted upstream
``aggregate-unextracted`` aggregate over a field that nothing provides
``group-by-unknown``      (warning) group_by field not provided
``project-unknown``       (warning) projected field not provided
``dead-node`` (warning)   node output is never consumed
``bad-cascade``           malformed cascade annotation (votes,
                          threshold, or a non-eligible operator)
``cascade-unknown-model`` (warning) a cascade's draft or verify
                          (fallback) model is not in the model registry
========================  ===========================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..llm.base import DEFAULT_MODELS
from ..luna.operators import (
    CASCADE_ELIGIBLE_OPERATIONS,
    OPERATOR_SPECS,
    LogicalPlan,
    PlanValidationError,
)
from ..sycamore.aggregates import AGG_FUNCS, COMPARATORS

__all__ = [
    "PlanCheckError",
    "PlanCheckIssue",
    "PlanCheckReport",
    "check_plan",
    "ensure_valid_plan",
]

ERROR = "error"
WARNING = "warning"

_MATH_REF = re.compile(r"#(\d+)")

#: Fields every record carries regardless of schema.
_INTRINSIC_FIELDS = frozenset({"doc_id", "text"})


#: Operators whose output records keep flowing to consumers with the
#: per-record field set intact (vs. scalar/reshaping outputs).
_RECORD_PRESERVING = frozenset(
    {"BasicFilter", "LlmFilter", "Sort", "Limit", "Distinct", "Identity"}
)


@dataclass(frozen=True)
class PlanCheckIssue:
    """One violation (or warning) found in a plan."""

    code: str
    message: str
    node: Optional[int] = None
    severity: str = ERROR

    def render(self) -> str:
        where = f"node {self.node}: " if self.node is not None else ""
        return f"[{self.severity}] {where}{self.code}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "node": self.node,
            "severity": self.severity,
        }


@dataclass
class PlanCheckReport:
    """All issues found by one :func:`check_plan` run."""

    issues: List[PlanCheckIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> List[PlanCheckIssue]:
        return [i for i in self.issues if i.severity == ERROR]

    def warnings(self) -> List[PlanCheckIssue]:
        return [i for i in self.issues if i.severity == WARNING]

    def codes(self) -> Set[str]:
        return {i.code for i in self.issues}

    def render(self) -> str:
        if not self.issues:
            return "plan OK"
        return "\n".join(issue.render() for issue in self.issues)

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "issues": [i.to_dict() for i in self.issues]}


class PlanCheckError(PlanValidationError):
    """A plan failed static validation.

    Subclasses :class:`PlanValidationError` so the planner's existing
    reject-and-replan loop treats a plancheck rejection exactly like a
    malformed plan; carries the structured :attr:`report`.
    """

    def __init__(self, report: PlanCheckReport):
        super().__init__(
            "plan failed static checks:\n" + report.render()
        )
        self.report = report


def ensure_valid_plan(
    plan: LogicalPlan,
    schema: Optional[Mapping[str, Any]] = None,
    known_indexes: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> PlanCheckReport:
    """Run :func:`check_plan` and raise :class:`PlanCheckError` on errors."""
    report = check_plan(plan, schema=schema, known_indexes=known_indexes)
    if not report.ok:
        raise PlanCheckError(report)
    return report


def check_plan(
    plan: LogicalPlan,
    schema: Optional[Mapping[str, Any]] = None,
    known_indexes: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> PlanCheckReport:
    """Statically validate a plan.

    ``schema`` is the target index's field schema (name -> type); when
    given, field references are checked against it plus whatever
    upstream ``LlmExtract`` nodes provide. ``known_indexes`` maps index
    names to their schemas: source nodes reading an unlisted index are
    errors, and each source's fields come from its own index's schema.
    Without either, only structural checks run.
    """
    checker = _Checker(plan, schema, known_indexes)
    return checker.run()


class _Checker:
    def __init__(
        self,
        plan: LogicalPlan,
        schema: Optional[Mapping[str, Any]],
        known_indexes: Optional[Mapping[str, Mapping[str, Any]]],
    ):
        self.plan = plan
        self.schema = dict(schema) if schema else None
        self.known_indexes = (
            {name: dict(s or {}) for name, s in known_indexes.items()}
            if known_indexes is not None
            else None
        )
        self.report = PlanCheckReport()

    # ------------------------------------------------------------------

    def run(self) -> PlanCheckReport:
        nodes = self.plan.nodes
        if not nodes:
            self._issue("empty-plan", "plan has no nodes")
            return self.report
        for index, node in enumerate(nodes):
            self._check_structure(index, node)
        self._check_cycles()
        self._check_fields()
        self._check_reachability()
        return self.report

    def _issue(
        self,
        code: str,
        message: str,
        node: Optional[int] = None,
        severity: str = ERROR,
    ) -> None:
        self.report.issues.append(
            PlanCheckIssue(code=code, message=message, node=node, severity=severity)
        )

    # ------------------------------------------------------------------
    # Structure: vocabulary, params, arity, references
    # ------------------------------------------------------------------

    def _check_structure(self, index: int, node: Any) -> None:
        spec = OPERATOR_SPECS.get(node.operation)
        if spec is None:
            self._issue(
                "unknown-operator",
                f"operation {node.operation!r} is not in the operator "
                f"vocabulary",
                node=index,
            )
            return
        for name in spec["required"]:
            if name not in node.params:
                self._issue(
                    "missing-param",
                    f"{node.operation} requires parameter {name!r}",
                    node=index,
                )
        arity = spec["arity"]
        if arity == "+":
            if len(node.inputs) < 1:
                self._issue(
                    "arity-mismatch",
                    f"{node.operation} needs at least one input",
                    node=index,
                )
        elif len(node.inputs) != arity:
            self._issue(
                "arity-mismatch",
                f"{node.operation} expects {arity} input(s), got "
                f"{len(node.inputs)}",
                node=index,
            )
        self._check_params(index, node)
        for ref in self._references(node):
            if not isinstance(ref, int) or not 0 <= ref < len(self.plan.nodes):
                self._issue(
                    "dangling-input",
                    f"references node {ref!r}, but the plan has nodes "
                    f"0..{len(self.plan.nodes) - 1}",
                    node=index,
                )
            elif ref >= index:
                self._issue(
                    "nontopological-input",
                    f"references node {ref}, which is not an earlier node "
                    f"(plans are topologically ordered)",
                    node=index,
                )

    def _references(self, node: Any) -> List[Any]:
        refs: List[Any] = list(node.inputs)
        if node.operation == "Math":
            expression = str(node.params.get("expression", ""))
            refs.extend(int(m) for m in _MATH_REF.findall(expression))
        return refs

    def _check_params(self, index: int, node: Any) -> None:
        params = node.params
        op = node.operation
        self._check_cascade(index, node)
        if op == "QueryIndex":
            scan_op = params.get("filter_op")
            if params.get("filter_field") is not None and (
                scan_op is not None and scan_op not in COMPARATORS
            ):
                self._issue(
                    "bad-param",
                    f"unknown scan-filter comparator {scan_op!r}; expected "
                    f"one of {sorted(COMPARATORS)}",
                    node=index,
                )
        if op == "BasicFilter":
            comparator = params.get("op")
            if comparator is not None and comparator not in COMPARATORS:
                self._issue(
                    "bad-param",
                    f"unknown comparator {comparator!r}; expected one of "
                    f"{sorted(COMPARATORS)}",
                    node=index,
                )
        elif op == "Aggregate":
            func = params.get("func")
            if func is not None and func not in AGG_FUNCS:
                self._issue(
                    "bad-param",
                    f"unknown aggregate function {func!r}; expected one "
                    f"of {sorted(AGG_FUNCS)}",
                    node=index,
                )
        elif op in ("Limit", "TopK"):
            k = params.get("k")
            if k is not None and (not isinstance(k, int) or k < 1):
                self._issue(
                    "bad-param",
                    f"k must be a positive integer, got {k!r}",
                    node=index,
                )
        elif op == "Project":
            fields = params.get("fields")
            if fields is not None and (
                not isinstance(fields, list)
                or not all(isinstance(f, str) for f in fields)
            ):
                self._issue(
                    "bad-param",
                    f"fields must be a list of strings, got {fields!r}",
                    node=index,
                )
        elif op == "FromDocuments":
            doc_ids = params.get("doc_ids")
            if doc_ids is not None and not isinstance(doc_ids, list):
                self._issue(
                    "bad-param",
                    f"doc_ids must be a list, got {doc_ids!r}",
                    node=index,
                )
        elif op == "Math":
            expression = params.get("expression")
            if expression is not None and not isinstance(expression, str):
                self._issue(
                    "bad-param",
                    f"expression must be a string, got {expression!r}",
                    node=index,
                )

    def _check_cascade(self, index: int, node: Any) -> None:
        """Validate a cost-based optimizer cascade annotation.

        A malformed annotation is an error (the executor would misrun
        it); a draft or verify (fallback) model missing from the model
        registry is the ``cascade-unknown-model`` warning — the plan
        still executes, falling back to the context's default model, but
        the escalation path the optimizer priced does not exist.
        """
        cascade = node.params.get("cascade")
        if cascade is None:
            return
        if node.operation not in CASCADE_ELIGIBLE_OPERATIONS:
            self._issue(
                "bad-cascade",
                f"{node.operation} is not cascade-eligible "
                f"(eligible: {list(CASCADE_ELIGIBLE_OPERATIONS)})",
                node=index,
            )
            return
        if not isinstance(cascade, dict):
            self._issue(
                "bad-cascade",
                f"cascade must be a mapping, got {cascade!r}",
                node=index,
            )
            return
        votes = cascade.get("draft_votes", 2)
        if not isinstance(votes, int) or votes < 1:
            self._issue(
                "bad-cascade",
                f"draft_votes must be a positive integer, got {votes!r}",
                node=index,
            )
        threshold = cascade.get("confidence_threshold", 0.75)
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            self._issue(
                "bad-cascade",
                f"confidence_threshold must be a number, got {threshold!r}",
                node=index,
            )
        draft = cascade.get("draft_model")
        if draft is not None and draft not in DEFAULT_MODELS:
            self._issue(
                "cascade-unknown-model",
                f"cascade draft model {draft!r} is not in the model "
                f"registry (known: {sorted(DEFAULT_MODELS)})",
                node=index,
                severity=WARNING,
            )
        verify = node.params.get("model")
        if verify is not None and verify not in DEFAULT_MODELS:
            self._issue(
                "cascade-unknown-model",
                f"cascade fallback (verify) model {verify!r} is not in "
                f"the model registry (known: {sorted(DEFAULT_MODELS)})",
                node=index,
                severity=WARNING,
            )

    # ------------------------------------------------------------------
    # Cycles
    # ------------------------------------------------------------------

    def _check_cycles(self) -> None:
        n = len(self.plan.nodes)
        edges: Dict[int, List[int]] = {}
        for index, node in enumerate(self.plan.nodes):
            edges[index] = [
                ref
                for ref in self._references(node)
                if isinstance(ref, int) and 0 <= ref < n
            ]
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * n
        cycle_nodes: Set[int] = set()

        def visit(start: int) -> None:
            stack: List[tuple] = [(start, iter(edges[start]))]
            color[start] = GREY
            while stack:
                current, it = stack[-1]
                advanced = False
                for ref in it:
                    if color[ref] == GREY:
                        cycle_nodes.add(current)
                        cycle_nodes.add(ref)
                    elif color[ref] == WHITE:
                        color[ref] = GREY
                        stack.append((ref, iter(edges[ref])))
                        advanced = True
                        break
                if not advanced:
                    color[current] = BLACK
                    stack.pop()

        for index in range(n):
            if color[index] == WHITE:
                visit(index)
        if cycle_nodes:
            self._issue(
                "cycle",
                f"the reference graph contains a cycle through node(s) "
                f"{sorted(cycle_nodes)}",
            )

    # ------------------------------------------------------------------
    # Field dataflow
    # ------------------------------------------------------------------

    def _source_fields(self, index: int, node: Any) -> Optional[Set[str]]:
        """Fields a source node provides; None means "unknown, allow all"."""
        index_name = node.params.get("index")
        if self.known_indexes is not None:
            if index_name is not None and index_name not in self.known_indexes:
                self._issue(
                    "unknown-index",
                    f"index {index_name!r} is not in the catalog "
                    f"(known: {sorted(self.known_indexes)})",
                    node=index,
                )
                return None
            if index_name is not None:
                return set(self.known_indexes[index_name]) | set(_INTRINSIC_FIELDS)
        if self.schema is not None:
            return set(self.schema) | set(_INTRINSIC_FIELDS)
        return None

    def _check_fields(self) -> None:
        if self.schema is None and self.known_indexes is None:
            return
        nodes = self.plan.nodes
        n = len(nodes)
        # available[i]: fields on records flowing OUT of node i, or None
        # for "unknowable" (e.g. joins against unlisted sources).
        available: List[Optional[Set[str]]] = [None] * n
        for index, node in enumerate(nodes):
            op = node.operation
            upstream = [
                available[ref]
                for ref in node.inputs
                if isinstance(ref, int) and 0 <= ref < index
            ]
            if op in ("QueryIndex", "FromDocuments"):
                available[index] = self._source_fields(index, node)
                continue
            if not upstream:
                available[index] = None
                continue
            if any(fields is None for fields in upstream):
                inherited: Optional[Set[str]] = None
            else:
                inherited = set()
                for fields in upstream:
                    assert fields is not None
                    inherited |= fields
            if op == "LlmExtract":
                extracted = node.params.get("field")
                if inherited is not None and isinstance(extracted, str):
                    inherited = inherited | {extracted}
                available[index] = inherited
            elif op == "Join":
                # Join merges right-side properties under prefixed keys;
                # downstream field checks would need alias tracking, so
                # the merged record is treated as open-schema.
                available[index] = None
            elif op in _RECORD_PRESERVING:
                available[index] = inherited
                self._check_field_ref(index, node, inherited)
            elif op == "Aggregate":
                self._check_aggregate(index, node, inherited)
                group_by = node.params.get("group_by")
                out = set(_INTRINSIC_FIELDS)
                if isinstance(group_by, str):
                    out.add(group_by)
                available[index] = out
            elif op == "TopK":
                self._check_field_ref(index, node, inherited)
                available[index] = None  # (value, count) rows
            elif op == "Project":
                self._check_project(index, node, inherited)
                available[index] = inherited
            else:
                # Count, Math, Summarize, ... produce scalars/text.
                available[index] = set(_INTRINSIC_FIELDS)

    def _check_field_ref(
        self, index: int, node: Any, fields: Optional[Set[str]]
    ) -> None:
        name = node.params.get("field")
        if fields is None or not isinstance(name, str):
            return
        if name not in fields and "." not in name:
            self._issue(
                "unknown-field",
                f"{node.operation} references field {name!r}, which is "
                f"neither in the index schema nor extracted upstream "
                f"(available: {sorted(fields)})",
                node=index,
            )

    def _check_aggregate(
        self, index: int, node: Any, fields: Optional[Set[str]]
    ) -> None:
        name = node.params.get("field")
        func = node.params.get("func")
        if fields is None or not isinstance(name, str):
            pass
        elif func != "count" and name not in fields and "." not in name:
            self._issue(
                "aggregate-unextracted",
                f"Aggregate({func}) over field {name!r}, which is neither "
                f"in the index schema nor extracted upstream; add an "
                f"LlmExtract node or aggregate an existing field "
                f"(available: {sorted(fields)})",
                node=index,
            )
        group_by = node.params.get("group_by")
        if (
            fields is not None
            and isinstance(group_by, str)
            and group_by not in fields
            and "." not in group_by
        ):
            self._issue(
                "group-by-unknown",
                f"group_by field {group_by!r} is not provided by the "
                f"inputs (available: {sorted(fields)})",
                node=index,
                severity=WARNING,
            )

    def _check_project(
        self, index: int, node: Any, fields: Optional[Set[str]]
    ) -> None:
        wanted = node.params.get("fields")
        if fields is None or not isinstance(wanted, list):
            return
        for name in wanted:
            if isinstance(name, str) and name not in fields and "." not in name:
                self._issue(
                    "project-unknown",
                    f"projected field {name!r} is not provided by the "
                    f"inputs (available: {sorted(fields)})",
                    node=index,
                    severity=WARNING,
                )

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def _check_reachability(self) -> None:
        nodes = self.plan.nodes
        n = len(nodes)
        if n <= 1:
            return
        reachable: Set[int] = set()
        stack = [n - 1]
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            for ref in self._references(nodes[current]):
                if isinstance(ref, int) and 0 <= ref < n:
                    stack.append(ref)
        for index in range(n):
            if index not in reachable:
                self._issue(
                    "dead-node",
                    f"{nodes[index].operation} output is never consumed "
                    f"and is not the result node",
                    node=index,
                    severity=WARNING,
                )
