"""``future-escape``: cross-module future dataflow.

The single-file ``swallowed-future`` rule catches ``pool.submit(...)``
discarded on the spot. What it cannot see is a future that *crosses a
function or module boundary*: a helper in ``runtime`` mints the future,
a caller in ``serving`` drops it, and the failure it would have carried
evaporates two modules away from the bug.

This rule computes, by fixpoint over the call graph, the set of
*future-producing* functions — functions that return the result of
``.submit(...)``, a ``Future()`` they constructed, another producer's
return value, or whose return annotation names ``Future`` — then audits
every call site of a producer on the hot path (``serving``/``runtime``/
``execution``/``cluster``/``gateway``/``luna``):

* the returned future is **discarded** (a bare expression statement), or
* it is bound to a local that is **never referenced again** — no
  ``.result()``, ``.exception()``, ``.cancel()``, ``.add_done_callback``,
  no ``wait_future``, never returned, stored, or passed on.

Anything that escapes further (returned, stored on ``self``, appended,
passed as an argument) is treated as consumed: the rule trades recall
for near-zero false positives, like every rule in this codebase.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..engine import Finding, ProgramRule, register
from .index import FunctionInfo, ProjectIndex

__all__ = ["FutureEscape", "future_producers"]


def own_nodes(fn: FunctionInfo) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested defs/lambdas —
    those are indexed (and analyzed) as their own functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))

#: Caller packages audited: a dropped future on these paths loses real
#: user-facing failures (everything on a served query's critical path).
_HOT_PACKAGES = (
    "repro.serving",
    "repro.runtime",
    "repro.execution",
    "repro.cluster",
    "repro.gateway",
    "repro.luna",
)


def _returns_future_locally(fn: FunctionInfo) -> bool:
    """Does ``fn`` return a future it minted (no interprocedural info)?"""
    # Return annotation naming Future is authoritative.
    ann = fn.node.returns
    if ann is not None:
        text = ast.unparse(ann) if not isinstance(ann, ast.Constant) else str(ann.value)
        if "Future" in text:
            return True
    future_locals: Set[str] = set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and _mints_future(node.value):
                future_locals.add(target.id)
    for node in own_nodes(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if _mints_future(node.value):
                return True
            if isinstance(node.value, ast.Name) and node.value.id in future_locals:
                return True
    return False


def _mints_future(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr == "submit":
        return True
    if isinstance(func, ast.Name) and func.id == "Future":
        return True
    return False


def future_producers(index: ProjectIndex) -> Set[str]:
    """Qualnames of functions whose return value is (or forwards) a
    future, by fixpoint over the call graph."""
    producers: Set[str] = {
        fn.qualname for fn in index.iter_functions() if _returns_future_locally(fn)
    }
    changed = True
    while changed:
        changed = False
        for fn in index.iter_functions():
            if fn.qualname in producers:
                continue
            if _forwards_producer_return(index, fn, producers):
                producers.add(fn.qualname)
                changed = True
    return producers


def _forwards_producer_return(
    index: ProjectIndex, fn: FunctionInfo, producers: Set[str]
) -> bool:
    """Does ``fn`` return the result of calling a known producer?"""
    producer_locals: Set[str] = set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Call)
                and index.resolve_call_target(fn, node.value) in producers
            ):
                producer_locals.add(target.id)
    for node in own_nodes(fn):
        if not (isinstance(node, ast.Return) and node.value is not None):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            if index.resolve_call_target(fn, value) in producers:
                return True
        if isinstance(value, ast.Name) and value.id in producer_locals:
            return True
    return False


#: Attribute calls that consume a future.
_CONSUMERS = {"result", "exception", "cancel", "add_done_callback", "done", "running"}


@register
class FutureEscape(ProgramRule):
    id = "future-escape"
    description = (
        "A future minted in another function/module is discarded or "
        "bound to a dead local on a hot path: its failure (and its "
        "completion) can never be observed."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        producers = future_producers(index)
        for fn in index.iter_functions():
            if not fn.module.startswith(_HOT_PACKAGES):
                continue
            if fn.qualname in producers:
                # A producer forwarding a future is not the consumer.
                continue
            yield from self._check_function(index, fn, producers)

    def _check_function(
        self, index: ProjectIndex, fn: FunctionInfo, producers: Set[str]
    ) -> Iterator[Finding]:
        for node in own_nodes(fn):
            # Case 1: producer call discarded as a statement.
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                target = index.resolve_call_target(fn, call)
                if target in producers and not self._is_direct_submit(call):
                    yield self.finding(
                        path=fn.path,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"future returned by {_pretty(target)} is "
                            f"discarded; its failure can never be observed "
                            f"(call .result()/.cancel() or add_done_callback)"
                        ),
                    )
            # Case 2: producer result bound to a never-used local.
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target_node = node.targets[0]
                if not isinstance(target_node, ast.Name):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                callee = index.resolve_call_target(fn, node.value)
                if callee not in producers or self._is_direct_submit(node.value):
                    continue
                if not self._is_used_after(fn, target_node.id, node):
                    yield self.finding(
                        path=fn.path,
                        line=node.value.lineno,
                        col=node.value.col_offset,
                        message=(
                            f"future returned by {_pretty(callee)} is bound "
                            f"to {target_node.id!r} but never consumed "
                            f"(no .result()/.exception()/.cancel()/"
                            f"add_done_callback reachable)"
                        ),
                    )

    @staticmethod
    def _is_direct_submit(call: ast.Call) -> bool:
        """Direct ``x.submit(...)`` discards are the single-file
        ``swallowed-future`` rule's finding; do not double-report."""
        return isinstance(call.func, ast.Attribute) and call.func.attr == "submit"

    @staticmethod
    def _is_used_after(fn: FunctionInfo, name: str, assignment: ast.Assign) -> bool:
        """Is ``name`` referenced (loaded) anywhere else in the function?
        Any load — consumer call, return, argument, store elsewhere —
        counts as consumption."""
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False


def _pretty(qualname: Optional[str]) -> str:
    if qualname is None:
        return "<unresolved>"
    module, _, rest = qualname.partition(":")
    return f"{module}.{rest}" if rest else qualname
