#!/usr/bin/env python3
"""Generate ``docs/OPERATORS.md`` from the operator registries.

The reference table is derived entirely from code — the same structures
the planner, optimizer and cluster layers consult at runtime:

* :data:`repro.luna.operators.OPERATOR_SPECS` — required params, arity;
* :data:`repro.luna.planner.OPERATOR_DOCS` — the one-line documentation
  that goes into the planner prompt;
* :data:`repro.luna.lowering.LOWERING` — the DocSet call that runs the
  operator, rendered by handing the entry its parameter names (an
  operator without a lowering fails the run);
* :data:`repro.luna.operators.SHARDABLE_OPERATIONS` — which operators
  the cluster layer may scatter across workers;
* :data:`repro.luna.operators.CASCADE_ELIGIBLE_OPERATIONS` — which the
  cost-based optimizer may annotate with a draft/verify cascade;
* :data:`repro.optimizer.TOKEN_PROFILES` /
  :data:`repro.optimizer.SELECTIVITY_PRIORS` — the cost model's priors.

``--check`` regenerates in memory and fails (exit 1) if the committed
file has drifted — run in CI so the docs can never go stale. Without
flags the file is (re)written in place.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.luna.codegen import SCRIPT_SCOPE, Expr  # noqa: E402
from repro.luna.lowering import lower  # noqa: E402
from repro.luna.operators import (  # noqa: E402
    CASCADE_ELIGIBLE_OPERATIONS,
    OPERATOR_SPECS,
    SHARDABLE_OPERATIONS,
)
from repro.luna.planner import OPERATOR_DOCS  # noqa: E402
from repro.optimizer import SELECTIVITY_PRIORS, TOKEN_PROFILES  # noqa: E402

TARGET = REPO / "docs" / "OPERATORS.md"

HEADER = """\
# Operator reference

<!-- GENERATED FILE - DO NOT EDIT BY HAND.
     Regenerate with: python scripts/gen_operator_docs.py
     CI runs `python scripts/gen_operator_docs.py --check` and fails on drift. -->

Every logical-plan operator Luna's planner may emit, with the
properties the rest of the system keys off. The table is generated
from the runtime registries in `src/repro/luna/operators.py`,
`src/repro/luna/lowering.py`, `src/repro/luna/planner.py` and
`src/repro/optimizer/costmodel.py` by
`scripts/gen_operator_docs.py`; see [docs/OPTIMIZER.md](OPTIMIZER.md)
for how the optimizer uses the cost columns and
[docs/ARCHITECTURE.md](ARCHITECTURE.md) for where operators sit in the
stack.

Column key:

* **Arity** — number of plan inputs the operator consumes (`0` =
  source, `+` = one or more).
* **Lowers to** — the DocSet call that defines the operator (its
  `LOWERING` entry, shown over the required parameters and input names;
  optional parameters become keyword arguments). Luna's executor, the
  cluster worker and the generated script all go through it.
* **Shardable** — per-record: the operator may ride a cluster shard
  spec (`SHARDABLE_OPERATIONS`). Luna's executor scatters an `LlmFilter`
  or `LlmExtract` node over enough documents as a one-operator spec.
* **Cascade** — the cost-based optimizer may annotate the node with a
  cheap-model draft / strong-model verify cascade
  (`CASCADE_ELIGIBLE_OPERATIONS`).
* **LLM** — the operator calls the LLM per record; the cost model's
  per-call token profile `(input, output)` is shown.
* **Sel. prior** — the cost model's default selectivity (fraction of
  rows surviving) before any learned statistics exist.
"""

FOOTER = """\

## Observability contract

Every operator executes inside a span named `op[<index>]:<Operation>`
(kind `operator`) carrying `records_in`/`records_out` attributes and an
`ok`/`error` status; the span parents the transform and LLM-request
spans beneath it, so per-operator dollars roll up in the trace's cost
account. Operators marked **LLM** additionally drive the `llm.*`
metrics (requests, tokens, cache/dedup hits) through the shared
client, and nodes the optimizer annotated with a cascade emit
`optimizer.cascade_drafts` / `optimizer.cascade_escalations` as the
executor drafts and escalates. The optimizer itself records
`optimizer.plans_optimized`, `optimizer.rewrites` and
`optimizer.stats_observations` (see
[docs/OPTIMIZER.md](OPTIMIZER.md#metrics)).
"""


def _row(name: str) -> str:
    spec = OPERATOR_SPECS[name]
    params = ", ".join(f"`{p}`" for p in spec["required"]) or "—"
    arity = str(spec["arity"])
    shardable = "yes" if name in SHARDABLE_OPERATIONS else "—"
    cascade = "yes" if name in CASCADE_ELIGIBLE_OPERATIONS else "—"
    if name in TOKEN_PROFILES:
        tokens_in, tokens_out = TOKEN_PROFILES[name]
        llm = f"yes ({tokens_in}/{tokens_out})"
    else:
        llm = "—"
    prior = (
        f"{SELECTIVITY_PRIORS[name]:g}" if name in SELECTIVITY_PRIORS else "—"
    )
    doc = OPERATOR_DOCS.get(name, "")
    return (
        f"| `{name}` | {arity} | {params} | `{_lowers_to(name)}` | {shardable} "
        f"| {cascade} | {llm} | {prior} | {doc} |"
    )


def _lowers_to(name: str) -> str:
    """The operator's lowering, rendered over parameter and input names."""
    spec = OPERATOR_SPECS[name]
    params = {param: Expr(param) for param in spec["required"]}
    inputs = {0: [], 2: [Expr("docs"), Expr("other")]}.get(spec["arity"], [Expr("docs")])
    return repr(lower(name, params, SCRIPT_SCOPE, inputs))


def render() -> str:
    lines = [
        HEADER,
        "| Operator | Arity | Required params | Lowers to | Shardable | Cascade "
        "| LLM (tok in/out) | Sel. prior | Description |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    lines.extend(_row(name) for name in OPERATOR_SPECS)
    lines.append(FOOTER)
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/OPERATORS.md matches the registries; do not write",
    )
    args = parser.parse_args()

    expected = render()
    if args.check:
        if not TARGET.exists():
            print(f"{TARGET.relative_to(REPO)} is missing; run "
                  f"`python scripts/gen_operator_docs.py` and commit it")
            return 1
        actual = TARGET.read_text()
        if actual != expected:
            print(f"{TARGET.relative_to(REPO)} is stale relative to the "
                  f"operator registries; regenerate with "
                  f"`python scripts/gen_operator_docs.py` and commit")
            return 1
        print(f"{TARGET.relative_to(REPO)} is up to date "
              f"({len(OPERATOR_SPECS)} operators)")
        return 0

    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(expected)
    print(f"wrote {TARGET.relative_to(REPO)} ({len(OPERATOR_SPECS)} operators)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
