"""Safe arithmetic evaluation for Luna's ``Math`` operator.

The paper's sample execution (§6.2) ends with
``math_operation(expr="100 * {out_4}/{out_2}")``. Our plans write node
references as ``#i`` and the generated script writes them as ``{out_i}``;
this module substitutes the referenced node results and evaluates the
expression over a restricted AST — no names, no calls, no attribute
access — so a hostile plan cannot execute code.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Mapping

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)

_REF_RE = re.compile(r"#(\d+)")
_BRACED_REF_RE = re.compile(r"\{out_(\d+)\}")


class MathEvaluationError(ValueError):
    """The expression is malformed, unsafe, or mathematically invalid."""


def referenced_nodes(expression: str) -> list:
    """Node indexes referenced as ``#i`` in the expression."""
    return [int(m) for m in _REF_RE.findall(expression)]


def braced(expression: str) -> str:
    """The script spelling of a plan expression: ``#i`` as ``{out_i}``."""
    return _REF_RE.sub(r"{out_\1}", expression)


def math_operation(expr: str, outputs: Mapping[int, Any]) -> float:
    """The generated script's ``math_operation``: evaluate ``expr`` with
    ``{out_i}`` standing for ``outputs[i]``, node *i*'s result."""
    return evaluate(_BRACED_REF_RE.sub(r"#\1", expr), outputs)


def evaluate(expression: str, values: Mapping[int, Any]) -> float:
    """Evaluate ``expression`` with ``#i`` replaced by ``values[i]``.

    Raises :class:`MathEvaluationError` on unknown references, values
    that are not numbers, disallowed syntax, or division by zero.
    """

    def substitute(match: "re.Match[str]") -> str:
        index = int(match.group(1))
        if index not in values:
            raise MathEvaluationError(f"expression references unknown node #{index}")
        value = values[index]
        if not isinstance(value, (int, float)):  # bool counts as 0/1
            raise MathEvaluationError(f"node result {value!r} is not numeric")
        return repr(float(value))

    substituted = _REF_RE.sub(substitute, expression)
    try:
        tree = ast.parse(substituted, mode="eval")
    except SyntaxError as exc:
        raise MathEvaluationError(f"malformed expression {expression!r}: {exc}") from exc
    try:
        return float(_eval_node(tree.body))
    except ZeroDivisionError as exc:
        raise MathEvaluationError(f"division by zero in {expression!r}") from exc


def _eval_node(node: ast.AST) -> float:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise MathEvaluationError(f"non-numeric constant {node.value!r}")
        return float(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left)
        right = _eval_node(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.FloorDiv):
            return left // right
        if isinstance(node.op, ast.Mod):
            return left % right
        return left**right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        operand = _eval_node(node.operand)
        return operand if isinstance(node.op, ast.UAdd) else -operand
    raise MathEvaluationError(f"disallowed syntax: {ast.dump(node)[:80]}")
