"""``prompt-taint``: untrusted text must not reach prompt assembly raw.

The source paper's trust model is blunt: document bodies are *data*,
but an LLM prompt is *code*. This stack's prompts are structured —
``<<TASK:...>>`` / ``<<SECTION:...>>`` markers that the simulated
models (and the parsers in :mod:`repro.llm.prompts`) dispatch on — so a
document whose text contains a line-initial marker can smuggle its own
sections into the prompt: classic prompt injection, one string-format
away. Gateway request bodies and query strings are the same class of
input arriving over the network.

**Sources** — untrusted text:

* ``.text`` / ``.text_representation()`` reads on docmodel
  ``Document``/``Element`` values (resolved by type where annotations
  allow, by receiver name — ``doc``, ``element``, ``chunk`` … — where
  they don't), and ``.properties`` lookups (property values were
  extracted *from* untrusted text by an LLM);
* ``str``-annotated parameters carrying user/document text by name
  (``question``, ``text``, ``body``, …);
* in the gateway package: parsed request bodies and query strings
  (``json.loads``, ``parse_qsl`` …) and everything subscripted out of
  them.

**Sinks** — prompt construction: section values handed to
``render_task_prompt`` / ``append_section`` / ``PromptTemplate.render``,
raw tainted strings passed to ``.complete*()``, plus any parameter of a
repro function that (by interprocedural summary) forwards into one of
those sinks.

**Sanitizer** — :func:`repro.llm.prompts.neutralize_markers` (and any
name in :data:`SANITIZERS`): escapes line-initial task/section markers
so untrusted text cannot close its section. Passing a value through a
sanitizer clears its taint. An accepted flow takes the one suppression
syntax, ``# repro: lint-ignore[prompt-taint]``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..engine import Finding, ProgramRule, register
from .index import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["PromptTaint", "SANITIZERS"]

#: Declared sanitizers: routing untrusted text through one of these
#: clears its taint (see repro.llm.prompts.neutralize_markers).
SANITIZERS: FrozenSet[str] = frozenset(
    {"neutralize_markers", "fence_untrusted", "sanitize_untrusted"}
)

#: Attribute reads that yield untrusted text from a document-shaped value.
_TEXT_ATTRS = {"text", "raw_text", "binary_representation", "properties"}
_TEXT_METHODS = {"text_representation"}

#: Receiver names treated as document-shaped when types don't resolve.
_DOCISH_RE = re.compile(
    r"(?:^|_)(?:doc|document|docs|documents|element|elements|el|chunk|chunks|"
    r"passage|passages|record|records|row|rows)$"
)

#: docmodel classes whose instances carry untrusted text.
_TAINTED_CLASSES = ("repro.docmodel.document:", "repro.docmodel.elements:")

#: str parameters that carry user or document text by convention.
_TAINTED_PARAM_NAMES = {
    "question",
    "text",
    "body",
    "content",
    "passage",
    "snippet",
    "document_text",
    "raw",
    "raw_text",
    "condition",
}

#: Gateway calls whose results are network-controlled.
_GATEWAY_SOURCES = {"loads", "parse_qs", "parse_qsl", "unquote"}

#: The taint label for "definitely untrusted" (vs per-parameter labels).
_SRC = "src"

#: Known sink callables: qualname -> spec of which values are sunk.
#: "arg:N" = positional index N, "kwargs" = every keyword value,
#: "dict:N" = values of a dict literal at positional index N.
_SINK_FUNCS: Dict[str, Tuple[str, ...]] = {
    "repro.llm.prompts:render_task_prompt": ("dict:1", "kwargs"),
    "repro.llm.prompts:append_section": ("arg:2", "kw:body"),
    "repro.llm.prompts:PromptTemplate.render": ("kwargs",),
}

_COMPLETE_CALLS = {"complete", "complete_json", "complete_many"}

#: Methods that put their arguments into the receiver: ``parts.append(x)``
#: leaves ``parts`` carrying whatever ``x`` carried.
_CONTAINER_MUTATORS = {"append", "appendleft", "extend", "insert", "add", "update"}


class _FunctionTaint:
    """Local abstract interpretation of one function.

    Values are label sets: ``{"src"}`` for definitely-untrusted text,
    ``{"param:<name>"}`` for values derived from a parameter (used to
    build interprocedural summaries). Statements run in source order;
    branches merge by accumulation (a name tainted on any path stays
    tainted — the safe direction)."""

    def __init__(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        sink_params: Dict[str, Set[str]],
        taint_returners: Set[str],
    ):
        self.index = index
        self.fn = fn
        self.info: ModuleInfo = index.modules[fn.module]
        self.sink_params = sink_params
        self.taint_returners = taint_returners
        self.labels: Dict[str, Set[str]] = {}
        self.sunk_labels: Dict[str, List[int]] = {}
        self.return_labels: Set[str] = set()
        self.in_gateway = fn.module.startswith("repro.gateway")
        self._seed_parameters()

    # -- seeding -------------------------------------------------------

    def _seed_parameters(self) -> None:
        args = self.fn.node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            labels: Set[str] = {f"param:{arg.arg}"}
            if self._param_is_source(arg):
                labels.add(_SRC)
            self.labels[arg.arg] = labels

    def _param_is_source(self, arg: ast.arg) -> bool:
        ann = self.index.resolve_annotation(self.info, arg.annotation)
        if ann is not None and ann.startswith(_TAINTED_CLASSES):
            return False  # the object itself isn't text; its reads are
        name = arg.arg.strip("_").lower()
        if name in _TAINTED_PARAM_NAMES:
            if arg.annotation is None:
                return self.in_gateway  # unannotated: only trust gateway ones
            ann_text = ast.unparse(arg.annotation)
            return "str" in ann_text
        if self.in_gateway and name in ("payload", "params", "query"):
            return True
        return False

    # -- evaluation ----------------------------------------------------

    def run(self) -> None:
        for node in self.fn.node.body:
            self._exec(node)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate scope, analyzed on its own
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            labels = self._eval(stmt.value) | self._eval(stmt.target)
            self._bind(stmt.target, labels)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_labels |= self._eval(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
            for field_name in ("items",):
                for item in getattr(stmt, field_name, []):
                    self._eval(item.context_expr)
                    if item.optional_vars is not None:
                        self._bind(item.optional_vars, set())
            if isinstance(stmt, ast.For):
                self._bind(stmt.target, self._eval(stmt.iter))
            if isinstance(stmt, (ast.If, ast.While)):
                self._eval(stmt.test)
            for body_name in ("body", "orelse", "finalbody"):
                for child in getattr(stmt, body_name, []):
                    self._exec(child)
            for handler in getattr(stmt, "handlers", []):
                for child in handler.body:
                    self._exec(child)
            return
        # Everything else (pass, raise, assert, ...): evaluate embedded
        # expressions for sink detection.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child)

    def _bind(self, target: ast.expr, labels: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.labels[target.id] = set(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, labels)
        # Attribute/subscript stores: drop (out of scope for a local pass).

    def _eval(self, expr: ast.expr) -> Set[str]:
        if isinstance(expr, ast.Name):
            return set(self.labels.get(expr.id, set()))
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.JoinedStr):
            labels: Set[str] = set()
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    labels |= self._eval(value.value)
            return labels
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.BoolOp):
            labels = set()
            for value in expr.values:
                labels |= self._eval(value)
            return labels
        if isinstance(expr, ast.Subscript):
            return self._eval(expr.value)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            labels = set()
            for element in expr.elts:
                labels |= self._eval(element)
            return labels
        if isinstance(expr, ast.Dict):
            labels = set()
            for value in expr.values:
                if value is not None:
                    labels |= self._eval(value)
            return labels
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, ast.ListComp) or isinstance(
            expr, (ast.SetComp, ast.GeneratorExp)
        ):
            return self._eval_comprehension(expr)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return set()
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        return set()

    def _eval_comprehension(self, expr: ast.expr) -> Set[str]:
        labels: Set[str] = set()
        for gen in expr.generators:  # type: ignore[attr-defined]
            iter_labels = self._eval(gen.iter)
            self._bind(gen.target, iter_labels)
        labels |= self._eval(expr.elt)  # type: ignore[attr-defined]
        return labels

    def _eval_attribute(self, expr: ast.Attribute) -> Set[str]:
        base_labels = self._eval(expr.value)
        if expr.attr in _TEXT_ATTRS and self._is_docish(expr.value):
            return base_labels | {_SRC}
        return base_labels

    def _is_docish(self, receiver: ast.expr) -> bool:
        rtype = self.index.resolve_type(self.fn, receiver)
        if rtype is not None and rtype.startswith(_TAINTED_CLASSES):
            return True
        name: Optional[str] = None
        if isinstance(receiver, ast.Name):
            name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            name = receiver.attr
        if name is not None and _DOCISH_RE.search(name.strip("_").lower()):
            return True
        return False

    # -- calls: sources, sanitizers, sinks, summaries ------------------

    def _eval_call(self, call: ast.Call) -> Set[str]:
        func = call.func
        arg_labels = [self._eval(a) for a in call.args]
        kw_labels = {kw.arg: self._eval(kw.value) for kw in call.keywords}
        all_labels: Set[str] = set()
        for labels in arg_labels:
            all_labels |= labels
        for labels in kw_labels.values():
            all_labels |= labels

        # Sanitizers clear taint.
        callee_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee_name in SANITIZERS:
            return set()

        # Gateway sources: parsed bodies / query strings are untrusted.
        if self.in_gateway and callee_name in _GATEWAY_SOURCES:
            return all_labels | {_SRC}

        # Method reads of document text.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _TEXT_METHODS
            and self._is_docish(func.value)
        ):
            return all_labels | {_SRC}

        resolved = self.index.resolve_call_target(self.fn, call)

        # Sink: known prompt constructors.
        sink_spec = _SINK_FUNCS.get(resolved or "")
        if sink_spec is None and isinstance(func, ast.Attribute) and func.attr == "render":
            # `TEMPLATE.render(...)` where the receiver is a PromptTemplate.
            rtype = self.index.resolve_type(self.fn, func.value)
            if rtype == "repro.llm.prompts:PromptTemplate":
                sink_spec = ("kwargs",)
        if sink_spec is not None:
            self._check_sink(call, sink_spec, arg_labels, kw_labels)
            return set()  # the rendered prompt was already audited

        # Sink: raw tainted string straight into an LLM call.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _COMPLETE_CALLS
            and call.args
        ):
            self._record_sink(arg_labels[0], call.lineno)
            return set()

        # Sink/propagation via interprocedural summaries.
        if resolved is not None:
            summary_params = self.sink_params.get(resolved)
            if summary_params:
                self._check_summary_sink(call, resolved, summary_params, arg_labels, kw_labels)
            if resolved in self.taint_returners:
                return all_labels | {_SRC}
            if resolved in self.index.functions:
                # A known project function with a computed summary that
                # says neither "sinks these params" beyond the above nor
                # "returns taint": trust the summary over the blanket
                # args-propagate heuristic below.
                return set()

        # Unresolved calls (str methods, external helpers): taint flows
        # from the receiver and the arguments into the result.
        if isinstance(func, ast.Attribute):
            receiver_labels = self._eval(func.value)
            if func.attr in _CONTAINER_MUTATORS and isinstance(func.value, ast.Name):
                self.labels.setdefault(func.value.id, set()).update(all_labels)
            return receiver_labels | all_labels
        return all_labels

    def _check_sink(
        self,
        call: ast.Call,
        spec: Tuple[str, ...],
        arg_labels: List[Set[str]],
        kw_labels: Dict[Optional[str], Set[str]],
    ) -> None:
        for part in spec:
            if part == "kwargs":
                for name, labels in kw_labels.items():
                    self._record_sink(labels, call.lineno)
            elif part.startswith("arg:"):
                pos = int(part.split(":", 1)[1])
                if pos < len(arg_labels):
                    self._record_sink(arg_labels[pos], call.lineno)
            elif part.startswith("kw:"):
                name = part.split(":", 1)[1]
                if name in kw_labels:
                    self._record_sink(kw_labels[name], call.lineno)
            elif part.startswith("dict:"):
                pos = int(part.split(":", 1)[1])
                if pos < len(call.args) and isinstance(call.args[pos], ast.Dict):
                    for value in call.args[pos].values:  # type: ignore[union-attr]
                        if value is not None:
                            self._record_sink(self._eval(value), call.lineno)
                elif pos < len(arg_labels):
                    self._record_sink(arg_labels[pos], call.lineno)

    def _check_summary_sink(
        self,
        call: ast.Call,
        resolved: str,
        summary_params: Set[str],
        arg_labels: List[Set[str]],
        kw_labels: Dict[Optional[str], Set[str]],
    ) -> None:
        callee = self.index.functions.get(resolved)
        if callee is None:
            return
        params = _parameter_names(callee)
        for i, labels in enumerate(arg_labels):
            if i < len(params) and params[i] in summary_params:
                self._record_sink(labels, call.lineno)
        for name, labels in kw_labels.items():
            if name in summary_params:
                self._record_sink(labels, call.lineno)

    def _record_sink(self, labels: Set[str], line: int) -> None:
        for label in labels:
            self.sunk_labels.setdefault(label, []).append(line)


def _parameter_names(fn: FunctionInfo) -> List[str]:
    args = fn.node.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
        # Keep positional indexes aligned with call-site args.
    return names


def _analyze_program(
    index: ProjectIndex,
) -> Tuple[Dict[str, List[int]], Dict[str, Set[str]], Set[str]]:
    """Fixpoint over all functions.

    Returns (findings: path -> lines is folded by caller; here we return
    the raw per-function source-taint sink lines), the sink-parameter
    summaries, and the taint-returning function set."""
    sink_params: Dict[str, Set[str]] = {}
    taint_returners: Set[str] = set()
    source_sinks: Dict[str, List[int]] = {}

    for _ in range(4):  # small call-graph depths converge fast
        changed = False
        source_sinks = {}
        for fn in index.iter_functions():
            analysis = _FunctionTaint(index, fn, sink_params, taint_returners)
            analysis.run()
            # Source-tainted values reaching a sink: findings.
            lines = analysis.sunk_labels.get(_SRC, [])
            if lines:
                source_sinks.setdefault(fn.path, []).extend(lines)
            # Parameter labels reaching a sink: summary.
            param_sinks = {
                label.split(":", 1)[1]
                for label in analysis.sunk_labels
                if label.startswith("param:")
            }
            if param_sinks - sink_params.get(fn.qualname, set()):
                sink_params.setdefault(fn.qualname, set()).update(param_sinks)
                changed = True
            # Source taint reaching the return value: summary.
            if _SRC in analysis.return_labels and fn.qualname not in taint_returners:
                taint_returners.add(fn.qualname)
                changed = True
        if not changed:
            break
    return source_sinks, sink_params, taint_returners


@register
class PromptTaint(ProgramRule):
    id = "prompt-taint"
    description = (
        "Untrusted text (document bodies, gateway request input) is "
        "interpolated into an LLM prompt without passing through a "
        "declared sanitizer (neutralize_markers): prompt injection."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        source_sinks, _, _ = _analyze_program(index)
        for path in sorted(source_sinks):
            for line in sorted(set(source_sinks[path])):
                yield self.finding(
                    path=path,
                    line=line,
                    col=0,
                    message=(
                        "untrusted text reaches prompt construction without "
                        "neutralize_markers(); a document/request containing "
                        "<<SECTION:...>> markers can inject its own prompt "
                        "sections"
                    ),
                )
