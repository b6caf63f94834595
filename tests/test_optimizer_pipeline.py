"""The one-class optimizer against the two-class stack it replaced.

``ReferenceLunaOptimizer`` (the rule pass) and ``ReferenceCostOptimizer``
(the cost pass that held it as ``.base``) are the parent commit's classes,
kept here as the reference. On generated plans the single pipeline must
produce the same optimized plan byte for byte, for every shipped policy,
with and without learned statistics. Two differences are intended: the
reorder switch now really is an off switch (pinned on its own), and a
filter after a fan-out point starts a chain in both (the reference's one
edit, pinned by ``FAN_OUT``). A
second property executes plans: reordering and scan-folding change what
runs, never what it answers.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.llm import knowledge
from repro.llm.base import DEFAULT_MODELS
from repro.luna import LogicalPlan, LunaExecutor, PlanExecutionError, PlanNode
from repro.luna.operators import CASCADE_ELIGIBLE_OPERATIONS
from repro.optimizer import POLICIES, QUALITY_POLICY, CostBasedOptimizer, CostModel, StatsStore
from repro.sycamore.aggregates import COMPARATORS
from tests.test_optimizer import trace_for
from tests.test_properties import (
    _comparable,
    _luna_context,
    basic_filter_steps,
    luna_plans,
    record_steps,
)

_FILTER_OPS = ("BasicFilter", "LlmFilter")


class ReferenceLunaOptimizer:
    """The parent's rule pass (``luna/optimizer.py``), verbatim."""

    def __init__(self, policy):
        self.policy = policy

    def optimize(self, plan, schema=None) -> Tuple[LogicalPlan, List[str]]:
        plan = plan.copy()
        log: List[str] = []
        if self.policy.enable_string_substitution and schema:
            log.extend(self._substitute_string_match(plan, schema))
        if self.policy.enable_pushdown:
            log.extend(self._push_down_basic_filters(plan))
        if self.policy.enable_fusion:
            log.extend(self._fuse_llm_filters(plan))
        log.extend(self._select_models(plan))
        return plan, log

    def _filter_chains(self, plan) -> List[List[int]]:
        chains: List[List[int]] = []
        used = set()
        for index, node in enumerate(plan.nodes):
            if index in used or node.operation not in _FILTER_OPS:
                continue
            prev = node.inputs[0] if node.inputs else None
            # The one edit to the parent's rule: a filter after a fan-out
            # point starts a chain. The parent skipped it, and reached it
            # only when fusion had already turned the fan-out filter into
            # an Identity (see FAN_OUT below).
            if (
                prev is not None
                and plan.nodes[prev].operation in _FILTER_OPS
                and plan.consumers_of(prev) == [index]
            ):
                continue
            chain = [index]
            used.add(index)
            current = index
            while True:
                consumers = [
                    c
                    for c in plan.consumers_of(current)
                    if plan.nodes[c].operation in _FILTER_OPS
                    and plan.nodes[c].inputs == [current]
                ]
                if len(consumers) != 1 or len(plan.consumers_of(current)) != 1:
                    break
                current = consumers[0]
                chain.append(current)
                used.add(current)
            if len(chain) > 1:
                chains.append(chain)
        return chains

    def _push_down_basic_filters(self, plan) -> List[str]:
        log = []
        for chain in self._filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            reordered = sorted(
                contents, key=lambda n: 0 if n.operation == "BasicFilter" else 1
            )
            if [n.operation for n in reordered] != [n.operation for n in contents]:
                original_inputs = [list(plan.nodes[p].inputs) for p in chain]
                for position, node, inputs in zip(chain, reordered, original_inputs):
                    node.inputs = inputs
                    plan.nodes[position] = node
                log.append("pushdown: " + "->".join(str(i) for i in chain))
        return log

    def _substitute_string_match(self, plan, schema) -> List[str]:
        log = []
        boolean_fields = {n for n, kind in schema.items() if kind == "bool"}
        for index, node in enumerate(plan.nodes):
            if node.operation != "LlmFilter":
                continue
            condition = str(node.params.get("condition", ""))
            match = _reference_boolean_field(condition, boolean_fields)
            if match is None:
                continue
            field, value = match
            plan.nodes[index] = PlanNode(
                operation="BasicFilter",
                inputs=node.inputs,
                description=f"Filter on extracted field {field} = {value} "
                f"(substituted for semantic match on {condition!r})",
                params={"field": field, "op": "eq", "value": value},
            )
            log.append(f"string-match: node {index}")
        return log

    def _fuse_llm_filters(self, plan) -> List[str]:
        log = []
        for chain in self._filter_chains(plan):
            previous_llm: Optional[int] = None
            for index in chain:
                node = plan.nodes[index]
                if node.operation != "LlmFilter":
                    previous_llm = None
                    continue
                if previous_llm is None:
                    previous_llm = index
                    continue
                base = plan.nodes[previous_llm]
                fused_condition = (
                    f"{base.params['condition']} and {node.params['condition']}"
                )
                base.params["condition"] = fused_condition
                base.description = f"Semantically filter: {fused_condition!r}"
                plan.nodes[index] = PlanNode(
                    operation="Identity",
                    inputs=node.inputs,
                    description=f"(fused into step {previous_llm + 1})",
                )
                log.append(f"fusion: node {index} fused into node {previous_llm}")
        return log

    def _select_models(self, plan) -> List[str]:
        log = []
        model_by_op = {
            "LlmFilter": self.policy.filter_model,
            "LlmExtract": self.policy.extract_model,
            "Summarize": self.policy.summarize_model,
        }
        for index, node in enumerate(plan.nodes):
            model = model_by_op.get(node.operation)
            if model is None:
                continue
            node.params["model"] = model
            log.append(f"model: node {index} {node.operation} -> {model}")
        return log


def _reference_boolean_field(condition, boolean_fields) -> Optional[Tuple[str, bool]]:
    concepts = set(knowledge.match_concepts(condition))
    if not concepts:
        return None
    negated = any(
        marker in f" {knowledge.normalize(condition)} "
        for marker in (" not ", " no ", " without ")
    )
    for field in sorted(boolean_fields):
        field_concepts = set(knowledge.match_concepts(field.replace("_", " ")))
        if field_concepts and field_concepts == concepts:
            return field, (not negated)
    return None


class ReferenceCostOptimizer:
    """The parent's cost pass (``optimizer/rewriter.py``), verbatim."""

    def __init__(self, policy, stats=None):
        self.policy = policy
        self.base = ReferenceLunaOptimizer(policy)
        self.cost_model = CostModel(stats)

    def optimize(self, plan, schema=None, reorder=True) -> Tuple[LogicalPlan, List[str]]:
        plan, log = self.base.optimize(plan, schema)
        if reorder:
            log.extend(self._reorder_by_selectivity(plan))
        log.extend(self._fold_scan_filter(plan, schema))
        if self.policy.cascade:
            log.extend(self._annotate_cascades(plan))
        return plan, log

    def _reorder_by_selectivity(self, plan) -> List[str]:
        log = []
        for chain in self.base._filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            ranked = sorted(
                range(len(contents)),
                key=lambda i: (self.cost_model.rank(contents[i]), i),
            )
            if ranked == list(range(len(contents))):
                continue
            reordered = [contents[i] for i in ranked]
            original_inputs = [list(plan.nodes[p].inputs) for p in chain]
            for position, node, inputs in zip(chain, reordered, original_inputs):
                node.inputs = inputs
                plan.nodes[position] = node
            log.append("reorder: " + "->".join(str(i) for i in chain))
        return log

    def _fold_scan_filter(self, plan, schema) -> List[str]:
        log = []
        if not schema:
            return log
        for index, node in enumerate(plan.nodes):
            if node.operation != "QueryIndex" or node.params.get("query"):
                continue
            if node.params.get("filter_field"):
                continue
            consumers = plan.consumers_of(index)
            if len(consumers) != 1:
                continue
            candidate = consumers[0]
            consumer = plan.nodes[candidate]
            if consumer.operation != "BasicFilter":
                continue
            if consumer.inputs != [index]:
                continue
            field = consumer.params.get("field")
            op = consumer.params.get("op", "eq")
            if field not in schema or op not in tuple(COMPARATORS):
                continue
            value = consumer.params.get("value")
            node.params["filter_field"] = field
            node.params["filter_op"] = op
            node.params["filter_value"] = value
            node.description = (
                f"{node.description} (scan-filtered: {field} {op} {value!r})"
            )
            consumer.operation = "Identity"
            consumer.params = {}
            consumer.description = f"(folded into scan at step {index + 1})"
            log.append(f"scan-filter: node {candidate} folded into node {index}")
        return log

    def _annotate_cascades(self, plan) -> List[str]:
        log = []
        draft = self.policy.cascade_draft_model
        for index, node in enumerate(plan.nodes):
            if node.operation not in CASCADE_ELIGIBLE_OPERATIONS:
                continue
            verify = str(node.params.get("model") or "")
            if not verify or verify == draft:
                continue
            if draft not in DEFAULT_MODELS:
                continue
            node.params["cascade"] = {
                "draft_model": draft,
                "draft_votes": self.policy.cascade_votes,
                "confidence_threshold": self.policy.cascade_confidence_threshold,
            }
            log.append(f"cascade: node {index}")
        return log


# ----------------------------------------------------------------------
# Generated plans: luna_plans with semantic operators mixed into the chains
# ----------------------------------------------------------------------

#: ``weather_related`` and ``ceo_changed`` are booleans of SCHEMA, so the
#: last two conditions substitute to a BasicFilter when the rule is on.
CONDITIONS = [
    "caused by wind",
    "involving icing",
    "during landing",
    "weather related incidents",
    "without a CEO change",
]
SCHEMA = {
    "state": "string",
    "year": "int",
    "n": "int",
    "meta.pages": "int",
    "weather_related": "bool",
    "ceo_changed": "bool",
}
llm_filters = st.builds(
    lambda c: {"operation": "LlmFilter", "condition": c}, st.sampled_from(CONDITIONS)
)
llm_extracts = st.builds(
    lambda f: {"operation": "LlmExtract", "field": f, "type": "string"},
    st.sampled_from(["cause", "phase"]),
)


def filter_heavy(llm_filters, *others):
    """``luna_plans`` arguments: mostly filters, and a trunk of three to
    five distinct steps, so that most plans carry a chain of different
    filters for the reorder and the fusion to work on."""
    steps = st.one_of(
        llm_filters, llm_filters, llm_filters, basic_filter_steps, record_steps, *others
    )
    return steps, st.lists(steps, min_size=3, max_size=5, unique_by=repr)


optimizer_plans = luna_plans(*filter_heavy(llm_filters, llm_extracts))

#: The four shipped policies, and each with substitution or fusion off.
VARIANTS = [
    dataclasses.replace(policy, **switch)
    for policy in POLICIES.values()
    for switch in ({}, {"enable_string_substitution": False}, {"enable_fusion": False})
]


def learned_stats() -> StatsStore:
    """Per filter model: "during landing" has learned cost 0 (rank 0, a tie
    with any structured filter), "involving icing" is sharp and "caused by
    wind" nearly passes everything through, so the three rank differently
    from chain order whichever two share a chain."""
    store = StatsStore()
    for model in ("sim-small", "sim-medium", "sim-large", "sim-oracle"):
        observed = LogicalPlan.from_json(
            [{"operation": "QueryIndex", "inputs": [], "index": "luna"}]
            + [
                {"operation": "LlmFilter", "inputs": [i], "condition": c, "model": model}
                for i, c in enumerate(["caused by wind", "involving icing", "during landing"])
            ]
        )
        store.observe(
            observed,
            trace_for(
                observed,
                [
                    (0, 100, 0.0, 0, 0.0),
                    (100, 95, 0.4, 100, 1.0),
                    (95, 5, 0.38, 95, 1.0),
                    (5, 2, 0.0, 0, 0.1),
                ],
            ),
        )
    return store


STATS = learned_stats()

#: The trap of putting the reorder before fusion: under a fusing policy
#: with these statistics a rank sort alone would fuse "during landing and
#: caused by wind"; the prompt, and so the simulated verdict, must keep
#: chain order.
TRAP = LogicalPlan.from_json(
    [
        {"operation": "QueryIndex", "inputs": [], "index": "luna"},
        {"operation": "LlmFilter", "inputs": [0], "condition": "caused by wind"},
        {"operation": "BasicFilter", "inputs": [1], "field": "absent", "op": "eq", "value": 1},
        {"operation": "LlmFilter", "inputs": [2], "condition": "during landing"},
        {"operation": "Count", "inputs": [3]},
    ]
)

#: Figure 5's percentage shape: the third filter feeds both a Count and a
#: second two-filter stage. Hypothesis found it at seeds 125 and 153: the
#: stage after the fan-out was never a chain, so it was neither reordered
#: nor fused.
FAN_OUT = LogicalPlan.from_json(
    [
        {"operation": "QueryIndex", "inputs": [], "index": "luna"},
        {"operation": "LlmFilter", "inputs": [0], "condition": "during landing"},
        {"operation": "LlmFilter", "inputs": [1], "condition": "caused by wind"},
        {"operation": "LlmFilter", "inputs": [2], "condition": "involving icing"},
        {"operation": "Count", "inputs": [3]},
        {"operation": "LlmFilter", "inputs": [3], "condition": "caused by wind"},
        {"operation": "LlmFilter", "inputs": [5], "condition": "involving icing"},
        {"operation": "Count", "inputs": [6]},
        {"operation": "Math", "inputs": [4, 7], "expression": "100 * #7 / #4"},
    ]
)


class TestSamePlansAsTheTwoClassStack:
    @given(optimizer_plans)
    @example(TRAP)
    @example(FAN_OUT)
    @settings(max_examples=300, deadline=None)
    def test_every_policy_with_and_without_statistics(self, plan):
        for policy in VARIANTS:
            for stats in (None, STATS):
                expected, fired = ReferenceCostOptimizer(policy, stats).optimize(plan, SCHEMA)
                optimized, log, report = CostBasedOptimizer(
                    policy, stats=stats
                ).optimize_with_report(plan, schema=SCHEMA)
                assert optimized.to_json() == expected.to_json(), (policy, stats is not None)
                assert report.rewrites == log
                _assert_same_rewrites_logged(log, fired)

    @given(optimizer_plans)
    @example(TRAP)
    @example(FAN_OUT)
    @settings(max_examples=150, deadline=None)
    def test_reorder_off_moves_no_node(self, plan):
        """The intended difference: the parent's cost pass reordered even
        with pushdown off, so its expected plan here is the bare rule pass
        plus fold and cascade annotation."""
        for variant in VARIANTS:
            policy = dataclasses.replace(variant, enable_pushdown=False)
            for stats in (None, STATS):
                expected, _ = ReferenceCostOptimizer(policy, stats).optimize(
                    plan, SCHEMA, reorder=False
                )
                optimized, log, _ = CostBasedOptimizer(
                    policy, stats=stats
                ).optimize_with_report(plan, schema=SCHEMA)
                assert optimized.to_json() == expected.to_json(), (policy, stats is not None)
                assert not any(line.startswith("reorder:") for line in log)
                for written, node in zip(plan.nodes, optimized.nodes):
                    if written.operation == node.operation == "BasicFilter":
                        assert node.params == written.params
                    if written.operation == node.operation == "LlmFilter":
                        # Fusion appends to the condition the node had.
                        assert node.params["condition"].startswith(written.params["condition"])

    def test_the_trap_keeps_chain_order(self):
        optimized, log, _ = CostBasedOptimizer("balanced", stats=STATS).optimize_with_report(
            TRAP, schema=SCHEMA
        )
        assert [n.operation for n in optimized.nodes[1:4]] == [
            "BasicFilter", "LlmFilter", "Identity"
        ]
        assert optimized.nodes[2].params["condition"] == "caused by wind and during landing"
        # The same statistics do reorder the two when nothing fuses them.
        apart, _, _ = CostBasedOptimizer("quality", stats=STATS).optimize_with_report(
            TRAP, schema=SCHEMA
        )
        assert [n.params.get("condition") for n in apart.nodes[1:4]] == [
            None, "during landing", "caused by wind"
        ]

    def test_the_stage_after_a_fan_out_is_a_chain(self):
        fused, _, _ = CostBasedOptimizer("balanced", stats=STATS).optimize_with_report(
            FAN_OUT, schema=SCHEMA
        )
        assert [n.operation for n in fused.nodes[5:7]] == ["LlmFilter", "Identity"]
        assert fused.nodes[5].params["condition"] == "caused by wind and involving icing"
        assert fused.nodes[5].inputs == [3]  # the fan-out point itself never moves
        apart, log, _ = CostBasedOptimizer("quality", stats=STATS).optimize_with_report(
            FAN_OUT, schema=SCHEMA
        )
        assert [n.params["condition"] for n in apart.nodes[5:7]] == [
            "involving icing", "caused by wind"
        ]
        assert "reorder: filter chain 5->6" in "\n".join(log)

    def test_statistics_rank_as_described(self):
        model = CostModel(STATS)
        ranks = {
            c: model.rank(PlanNode("LlmFilter", params={"condition": c, "model": "sim-large"}))
            for c in ("caused by wind", "involving icing", "during landing")
        }
        assert ranks["during landing"] == 0.0 < ranks["involving icing"] < ranks["caused by wind"]


def _assert_same_rewrites_logged(log: List[str], reference_log: List[str]) -> None:
    """Every rewrite the reference fired is logged by the one pipeline:
    same count per family, with ``pushdown:`` and ``reorder:`` now one
    family that fires when either of them moved a chain."""
    ours = Counter(line.split(":", 1)[0] for line in log)
    theirs = Counter(line.split(":", 1)[0] for line in reference_log)
    moved = theirs.pop("pushdown", 0) + theirs.pop("reorder", 0)
    assert (ours.pop("reorder", 0) > 0) == (moved > 0)
    # The reference selected models after fusion, so a node about to be
    # fused away got no model line there; here it gets one first.
    assert ours.pop("model", 0) == theirs.pop("model", 0) + theirs["fusion"]
    assert +ours == +theirs


# ----------------------------------------------------------------------
# Optimized ≡ rule-disabled cold arm, executed
# ----------------------------------------------------------------------

ORACLE_POLICY = dataclasses.replace(
    QUALITY_POLICY,
    name="oracle",
    filter_model="sim-oracle",
    extract_model="sim-oracle",
    summarize_model="sim-oracle",
    enable_string_substitution=False,
)
oracle_filters = st.builds(
    lambda c: {"operation": "LlmFilter", "condition": c, "model": "sim-oracle"},
    st.sampled_from(["caused by wind", "involving icing", "during landing"]),
)


def _execute(plan):
    """(answer, trace), or (exception type, message) when the plan fails."""
    context, _ = _luna_context()
    try:
        answer, trace = LunaExecutor(context).execute(plan)
    except (PlanExecutionError, TypeError) as exc:
        return type(exc), str(exc)
    return _comparable(answer), trace


class TestOptimizedPlanAnswersLikeThePlanAsWritten:
    @given(
        luna_plans(*filter_heavy(oracle_filters))
    )
    @settings(max_examples=120, deadline=None)
    def test_reordered_and_scan_folded_plans(self, plan):
        optimized, log, _ = CostBasedOptimizer(
            ORACLE_POLICY, stats=STATS
        ).optimize_with_report(plan, schema=SCHEMA)
        cold_answer, cold = _execute(plan)
        answer, trace = _execute(optimized)
        assert answer == cold_answer
        if isinstance(cold, str):
            assert trace == cold  # the same failure, word for word
            return
        # Supporting documents: every node that is neither a scan (a
        # folded one reads less) nor a filter (those moved) emits the
        # same records in the same order.
        for written, ours, theirs in zip(plan.nodes, trace.entries, cold.entries):
            if written.operation not in ("QueryIndex",) + _FILTER_OPS:
                assert ours.document_ids == theirs.document_ids, written.operation
                assert ours.records_out == theirs.records_out

    def test_the_strategy_exercises_both_rules(self):
        """Not vacuous: a chain the statistics reorder behind a fold."""
        plan = LogicalPlan.from_json(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "luna"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "caused by wind",
                 "model": "sim-oracle"},
                {"operation": "LlmFilter", "inputs": [1], "condition": "during landing",
                 "model": "sim-oracle"},
                {"operation": "BasicFilter", "inputs": [2], "field": "state", "op": "eq",
                 "value": "AK"},
                {"operation": "Count", "inputs": [3]},
            ]
        )
        optimized, log, _ = CostBasedOptimizer(
            ORACLE_POLICY, stats=STATS
        ).optimize_with_report(plan, schema=SCHEMA)
        assert [line.split(":")[0] for line in log] == ["model", "model", "reorder", "scan-filter"]
        assert [n.params.get("condition") for n in optimized.nodes[1:4]] == [
            None, "during landing", "caused by wind"
        ]
        assert _execute(optimized)[0] == _execute(plan)[0] == 1


class TestOneEntryPoint:
    def test_optimize_with_report_is_the_only_public_method(self):
        public = [
            name
            for name, value in vars(CostBasedOptimizer).items()
            if callable(value) and not name.startswith("_")
        ]
        assert public == ["optimize_with_report"]

    @pytest.mark.parametrize(
        "module", ["repro.optimizer.rewriter", "repro.optimizer.costmodel", "repro.luna.luna"]
    )
    def test_either_package_imports_first_in_a_cold_interpreter(self, module):
        """``repro.luna`` imports the optimizer and the optimizer imports
        ``repro.luna.operators``, both at module level: whichever a process
        names first, the import has to complete."""
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError, match="unknown policy 'thrifty'"):
            CostBasedOptimizer("thrifty")
