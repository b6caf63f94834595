"""Plan -> Sycamore code generation.

"Query plans are translated into Sycamore code in Python. ... The query
execution code is easy for a technically savvy user to understand and
modify" (§6.1). This module renders a logical plan as the Python script
the paper shows in §6.2::

    out_0 = context.read.index('ntsb')
    out_1 = out_0.llm_filter('caused by environmental factors')
    out_2 = out_1.count()
    out_3 = out_1.llm_filter('caused by wind')
    out_4 = out_3.count()
    result = math_operation(expr='100 * {out_4} / {out_2}')

The script is not a second description of the plan: each line is what
the operator's entry in :data:`repro.luna.lowering.LOWERING` — the same
entry the executor runs — does when handed an :class:`Expr`, which
records the calls made on it as source text. :func:`run_code` executes
a script; ``tests/test_luna.py`` asserts it returns the executor's
answer for every operator.
"""

from __future__ import annotations

from typing import Any, List

from ..sycamore.docset import DocSet
from . import mathops
from .lowering import Scope, lower
from .operators import LogicalPlan


class Expr:
    """Python source that grows by being used.

    Attribute access and calls return a longer :class:`Expr`, and its
    ``repr`` is the source itself, so passing one as an argument (a
    join's right side) renders as the name it stands for.
    """

    def __init__(self, source: str):
        self._source = source

    def __getattr__(self, name: str) -> "Expr":
        return Expr(f"{self._source}.{name}")

    def __call__(self, *args: Any, **kwargs: Any) -> "Expr":
        rendered = [repr(arg) for arg in args]
        rendered += [f"{name}={value!r}" for name, value in kwargs.items()]
        return Expr(f"{self._source}({', '.join(rendered)})")

    def __repr__(self) -> str:
        return self._source


#: The free names of a generated script, as recording expressions.
SCRIPT_SCOPE = Scope(context=Expr("context"), math_operation=Expr("math_operation"))


def generate_code(plan: LogicalPlan) -> str:
    """Render a validated plan as a Sycamore-style Python script."""
    lines: List[str] = []
    last = plan.result_node()
    for index, node in enumerate(plan.nodes):
        target = "result" if index == last else f"out_{index}"
        inputs = [Expr(f"out_{i}") for i in node.inputs]
        lines.append(f"{target} = {lower(node.operation, node.params, SCRIPT_SCOPE, inputs)!r}")
    return "\n".join(lines)


def run_code(code: str, context: Any) -> Any:
    """Execute a generated (or user-edited) script against ``context``.

    Binds the script's two free names and returns its ``result``, with a
    DocSet result collected into the document list the executor returns.
    """
    namespace = {"context": context}

    def math_operation(expr: str) -> float:
        outputs = {
            int(name[4:]): value
            for name, value in namespace.items()
            if name.startswith("out_")
        }
        return mathops.math_operation(expr, outputs)

    namespace["math_operation"] = math_operation
    exec(code, namespace)  # noqa: S102 - running the script is the point
    result = namespace["result"]
    return result.take_all() if isinstance(result, DocSet) else result
