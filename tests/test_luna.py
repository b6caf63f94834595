"""Tests for Luna: operators, math, planner, optimizer, codegen, executor,
and the human-in-the-loop session API."""

import pytest

from repro.docmodel import Document
from repro.luna.codegen import run_code
from repro.luna import (
    OPERATOR_SPECS,
    BALANCED_POLICY,
    COST_POLICY,
    LogicalPlan,
    Luna,
    LunaExecutor,
    LunaPlanner,
    MathEvaluationError,
    PlanExecutionError,
    PlanNode,
    PlanValidationError,
    QUALITY_POLICY,
    evaluate,
    generate_code,
    referenced_nodes,
)
from repro.optimizer import CostBasedOptimizer
from repro.sycamore import SycamoreContext


def plan_from(nodes):
    return LogicalPlan.from_json(nodes)


def optimize(policy, plan, schema):
    optimized, log, _ = CostBasedOptimizer(policy).optimize_with_report(plan, schema)
    return optimized, log


SIMPLE_PLAN = [
    {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
    {"operation": "LlmFilter", "inputs": [0], "condition": "caused by wind"},
    {"operation": "Count", "inputs": [1]},
]


class TestPlanValidation:
    def test_valid_plan(self):
        plan = plan_from(SIMPLE_PLAN)
        plan.validate()
        assert plan.result_node() == 2

    def test_empty_plan(self):
        with pytest.raises(PlanValidationError, match="empty"):
            plan_from([]).validate()

    def test_unknown_operation(self):
        with pytest.raises(PlanValidationError, match="unknown operation"):
            plan_from([{"operation": "Teleport", "inputs": []}]).validate()

    def test_missing_required_field(self):
        with pytest.raises(PlanValidationError, match="missing field"):
            plan_from([{"operation": "QueryIndex", "inputs": []}]).validate()

    def test_forward_reference_rejected(self):
        bad = [
            {"operation": "QueryIndex", "inputs": [], "index": "x"},
            {"operation": "Count", "inputs": [2]},
            {"operation": "Identity", "inputs": [0]},
        ]
        with pytest.raises(PlanValidationError, match="earlier node"):
            plan_from(bad).validate()

    def test_wrong_arity(self):
        bad = [
            {"operation": "QueryIndex", "inputs": [], "index": "x"},
            {"operation": "Count", "inputs": [0, 0]},
        ]
        with pytest.raises(PlanValidationError, match="expected 1 inputs"):
            plan_from(bad).validate()

    def test_from_json_accepts_nodes_wrapper(self):
        plan = LogicalPlan.from_json({"nodes": SIMPLE_PLAN})
        assert len(plan.nodes) == 3

    def test_json_roundtrip(self):
        plan = plan_from(SIMPLE_PLAN)
        restored = LogicalPlan.from_json(plan.to_json())
        assert restored.to_json() == plan.to_json()

    def test_natural_language_rendering(self):
        text = plan_from(SIMPLE_PLAN).to_natural_language()
        assert "Step 1" in text and "Step 3" in text
        assert "caused by wind" in text

    def test_undescribed_nodes_narrate_from_the_operator_table(self):
        """Every operator's default description comes from its
        OPERATOR_SPECS entry, filled from the node's params."""
        params = {
            "index": "ntsb", "doc_ids": ["a", "b"], "field": "state",
            "op": "eq", "value": "AK", "condition": "caused by wind",
            "func": "avg", "expression": "#1 / #2", "k": 3,
            "fields": ["state"], "left_on": "id", "right_on": "id",
        }
        expected = {
            "QueryIndex": "Read records from index 'ntsb'",
            "FromDocuments": "Start from the records of the previous answer",
            "BasicFilter": "Filter where state eq 'AK'",
            "LlmFilter": "Semantically filter: 'caused by wind'",
            "LlmExtract": "Extract field 'state' with an LLM",
            "Count": "Count the records",
            "Aggregate": "Compute avg of state",
            "TopK": "Rank values of state",
            "Sort": "Sort",
            "Limit": "Limit",
            "Project": "Project",
            "Distinct": "Keep one record per distinct state",
            "Join": "Join",
            "Math": "Evaluate #1 / #2",
            "Summarize": "Summarize the records",
            "Identity": "Identity",
        }
        assert set(expected) == set(OPERATOR_SPECS)
        for operation, text in expected.items():
            spec = OPERATOR_SPECS[operation]
            node = PlanNode(
                operation=operation,
                params={name: params[name] for name in spec["required"]},
            )
            narrated = LogicalPlan(nodes=[node]).to_natural_language()
            assert narrated == f"Step 1: {text}", operation
        # A missing param reads None; a node's own description wins.
        bare = LogicalPlan(nodes=[PlanNode(operation="LlmFilter")])
        assert bare.to_natural_language() == "Step 1: Semantically filter: None"
        own = LogicalPlan(nodes=[PlanNode(operation="Count", description="Tally")])
        assert own.to_natural_language() == "Step 1: Tally"

    def test_consumers_includes_math_references(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "x"},
                {"operation": "Count", "inputs": [0]},
                {"operation": "Math", "inputs": [1], "expression": "2 * #1"},
            ]
        )
        assert plan.consumers_of(1) == [2]


class TestMathOps:
    def test_basic_arithmetic(self):
        assert evaluate("100 * #4 / #2", {4: 5, 2: 10}) == 50.0

    def test_referenced_nodes(self):
        assert referenced_nodes("#1 + #12 - 3") == [1, 12]

    def test_unknown_reference(self):
        with pytest.raises(MathEvaluationError, match="unknown node"):
            evaluate("#9 + 1", {})

    def test_division_by_zero(self):
        with pytest.raises(MathEvaluationError, match="division by zero"):
            evaluate("#1 / #2", {1: 1, 2: 0})

    def test_code_injection_blocked(self):
        with pytest.raises(MathEvaluationError):
            evaluate("__import__('os').system('true')", {})
        with pytest.raises(MathEvaluationError):
            evaluate("(lambda: 1)()", {})

    def test_unary_and_power(self):
        assert evaluate("-#1 ** 2", {1: 3}) == -9.0

    def test_malformed(self):
        with pytest.raises(MathEvaluationError):
            evaluate("#1 +", {1: 1})


@pytest.fixture()
def small_ctx():
    ctx = SycamoreContext(parallelism=1, seed=0)
    docs = [
        Document.from_text(
            "gusty crosswind during the landing",
            properties={"state": "AK", "year": 2023, "fatal": 1},
        ),
        Document.from_text(
            "engine failure after takeoff",
            properties={"state": "TX", "year": 2023, "fatal": 0},
        ),
        Document.from_text(
            "severe icing in cruise",
            properties={"state": "AK", "year": 2022, "fatal": 2},
        ),
    ]
    idx = ctx.catalog.create("ntsb")
    idx.add_documents(docs)
    return ctx


class TestLunaExecutor:
    def _run(self, ctx, nodes):
        answer, trace = LunaExecutor(ctx).execute(plan_from(nodes))
        return answer, trace

    def test_scan_filter_count(self, small_ctx):
        answer, trace = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "LlmFilter", "inputs": [0],
                 "condition": "caused by wind", "model": "sim-oracle"},
                {"operation": "Count", "inputs": [1]},
            ],
        )
        assert answer == 1
        assert [e.operation for e in trace.entries] == ["QueryIndex", "LlmFilter", "Count"]
        assert trace.entries[1].records_in == 3
        assert trace.entries[1].records_out == 1

    def test_basic_filter_and_aggregate(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "BasicFilter", "inputs": [0], "field": "state",
                 "op": "eq", "value": "AK"},
                {"operation": "Aggregate", "inputs": [1], "func": "sum", "field": "fatal"},
            ],
        )
        assert answer == 3.0

    def test_aggregate_group_by(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Aggregate", "inputs": [0], "func": "count",
                 "field": "fatal", "group_by": "state"},
            ],
        )
        assert answer == {"AK": 2.0, "TX": 1.0}

    def test_topk_and_sort_and_limit(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "TopK", "inputs": [0], "field": "state", "k": 1},
            ],
        )
        assert answer == [("AK", 2)]
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Sort", "inputs": [0], "field": "fatal",
                 "descending": True},
                {"operation": "Limit", "inputs": [1], "k": 1},
                {"operation": "Project", "inputs": [2], "fields": ["state"]},
            ],
        )
        assert answer == ["AK"]

    def test_math_over_counts(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Count", "inputs": [0]},
                {"operation": "BasicFilter", "inputs": [0], "field": "year",
                 "op": "eq", "value": 2023},
                {"operation": "Count", "inputs": [2]},
                {"operation": "Math", "inputs": [1, 3], "expression": "100 * #3 / #1"},
            ],
        )
        assert answer == pytest.approx(100 * 2 / 3)

    def test_llm_extract_at_query_time(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "LlmExtract", "inputs": [0], "field": "weather_related",
                 "type": "bool", "model": "sim-oracle"},
                {"operation": "BasicFilter", "inputs": [1],
                 "field": "weather_related", "op": "eq", "value": True},
                {"operation": "Count", "inputs": [2]},
            ],
        )
        assert answer == 2  # wind + icing

    def test_join_two_indexes(self, small_ctx):
        extra = small_ctx.catalog.create("aircraft_db")
        extra.add_documents(
            [Document(properties={"state": "AK", "region": "north"})]
        )
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "QueryIndex", "inputs": [], "index": "aircraft_db"},
                {"operation": "Join", "inputs": [0, 1], "left_on": "state",
                 "right_on": "state"},
                {"operation": "Count", "inputs": [2]},
            ],
        )
        assert answer == 2

    def test_summarize_node(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Summarize", "inputs": [0], "model": "sim-oracle"},
            ],
        )
        assert "Synthesis of 3 documents" in answer

    def test_summarize_empty_set(self, small_ctx):
        answer, _ = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "BasicFilter", "inputs": [0], "field": "state",
                 "op": "eq", "value": "ZZ"},
                {"operation": "Summarize", "inputs": [1]},
            ],
        )
        assert answer == "No matching records."

    def test_type_error_surfaces_as_execution_error(self, small_ctx):
        with pytest.raises(PlanExecutionError):
            self._run(
                small_ctx,
                [
                    {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                    {"operation": "Count", "inputs": [0]},
                    {"operation": "Count", "inputs": [1]},  # count of a scalar
                ],
            )

    def test_trace_records_llm_cost(self, small_ctx):
        _, trace = self._run(
            small_ctx,
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "wind",
                 "model": "sim-large"},
            ],
        )
        llm_entry = trace.entries[1]
        assert llm_entry.llm_calls == 3
        assert llm_entry.llm_cost_usd > 0
        assert trace.total_llm_calls() == 3


class TestOptimizer:
    def _schema(self):
        return {"state": "string", "year": "int", "weather_related": "bool",
                "ceo_changed": "bool"}

    def test_pushdown_moves_basic_before_llm(self):
        # A retrieval scan: the scan-filter fold would otherwise absorb
        # the structured filter this test looks for.
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i", "query": "windy"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "windy"},
                {"operation": "BasicFilter", "inputs": [1], "field": "year",
                 "op": "eq", "value": 2023},
                {"operation": "Count", "inputs": [2]},
            ]
        )
        optimized, log = optimize(BALANCED_POLICY, plan, self._schema())
        assert optimized.nodes[1].operation == "BasicFilter"
        assert optimized.nodes[2].operation == "LlmFilter"
        # The chain wiring must be preserved: each stage reads the previous.
        assert optimized.nodes[1].inputs == [0]
        assert optimized.nodes[2].inputs == [1]
        assert optimized.nodes[3].inputs == [2]
        assert any(line.startswith("reorder:") for line in log)
        optimized.validate()

    def test_pushdown_preserves_count_result(self, small_ctx):
        nodes = [
            {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
            {"operation": "LlmFilter", "inputs": [0], "condition": "caused by wind",
             "model": "sim-oracle"},
            {"operation": "BasicFilter", "inputs": [1], "field": "year",
             "op": "eq", "value": 2023},
            {"operation": "Count", "inputs": [2]},
        ]
        raw_answer, _ = LunaExecutor(small_ctx).execute(plan_from(nodes))
        optimized, _ = optimize(QUALITY_POLICY, plan_from(nodes), {"year": "int"})
        # quality policy re-models the filter; force oracle for equality
        for node in optimized.nodes:
            if node.operation == "LlmFilter":
                node.params["model"] = "sim-oracle"
        opt_answer, _ = LunaExecutor(small_ctx).execute(optimized)
        assert raw_answer == opt_answer == 1

    def test_string_match_substitution(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i", "query": "weather"},
                {"operation": "LlmFilter", "inputs": [0],
                 "condition": "weather related incidents"},
                {"operation": "Count", "inputs": [1]},
            ]
        )
        optimized, log = optimize(BALANCED_POLICY, plan, self._schema())
        assert optimized.nodes[1].operation == "BasicFilter"
        assert optimized.nodes[1].params == {"field": "weather_related", "op": "eq", "value": True}
        assert any("string-match" in line for line in log)

    def test_no_substitution_without_matching_field(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "caused by wind"},
            ]
        )
        optimized, _ = optimize(BALANCED_POLICY, plan, self._schema())
        assert optimized.nodes[1].operation == "LlmFilter"

    def test_fusion_merges_adjacent_llm_filters(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "about wind"},
                {"operation": "LlmFilter", "inputs": [1], "condition": "during landing"},
                {"operation": "Count", "inputs": [2]},
            ]
        )
        optimized, log = optimize(COST_POLICY, plan, {})
        assert optimized.nodes[1].params["condition"] == "about wind and during landing"
        assert optimized.nodes[2].operation == "Identity"
        assert any("fusion" in line for line in log)
        optimized.validate()

    def test_fusion_not_across_fan_out(self):
        # node 1 feeds both a second filter and a count: must not fuse.
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i"},
                {"operation": "LlmFilter", "inputs": [0], "condition": "a"},
                {"operation": "LlmFilter", "inputs": [1], "condition": "b"},
                {"operation": "Count", "inputs": [1]},
                {"operation": "Count", "inputs": [2]},
            ]
        )
        optimized, _ = optimize(COST_POLICY, plan, {})
        assert optimized.nodes[2].operation == "LlmFilter"

    def test_model_selection_per_policy(self):
        plan = plan_from(SIMPLE_PLAN)
        for policy, expected in ((QUALITY_POLICY, "sim-large"), (COST_POLICY, "sim-small")):
            optimized, _ = optimize(policy, plan, {})
            assert optimized.nodes[1].params["model"] == expected

    def test_original_plan_not_mutated(self):
        plan = plan_from(SIMPLE_PLAN)
        optimize(BALANCED_POLICY, plan, {})
        assert "model" not in plan.nodes[1].params


class TestCodegen:
    def test_paper_figure5_shape(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "LlmFilter", "inputs": [0],
                 "condition": "caused by environmental factors"},
                {"operation": "Count", "inputs": [1]},
                {"operation": "LlmFilter", "inputs": [1], "condition": "caused by wind"},
                {"operation": "Count", "inputs": [3]},
                {"operation": "Math", "inputs": [2, 4], "expression": "100 * #4 / #2"},
            ]
        )
        code = generate_code(plan)
        lines = code.splitlines()
        assert lines[0] == "out_0 = context.read.index('ntsb')"
        assert "out_1 = out_0.llm_filter('caused by environmental factors')" in code
        assert "out_2 = out_1.count()" in code
        assert lines[-1] == "result = math_operation(expr='100 * {out_4} / {out_2}')"

    def test_all_operators_render(self):
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "i", "query": "q"},
                {"operation": "BasicFilter", "inputs": [0], "field": "f", "op": "eq", "value": 1},
                {"operation": "LlmExtract", "inputs": [1], "field": "x", "model": "sim-small"},
                {"operation": "Sort", "inputs": [2], "field": "f"},
                {"operation": "Limit", "inputs": [3], "k": 5},
                {"operation": "TopK", "inputs": [4], "field": "f", "k": 2},
            ]
        )
        code = generate_code(plan)
        assert "query='q'" in code
        assert "filter_by_property('f', 'eq', 1)" in code
        assert "extract_properties({'x': 'string'}, model='sim-small')" in code
        assert ".sort('f', descending=False)" in code
        assert ".limit(5)" in code
        assert "top_k('f', k=2, descending=True)" in code


def _scan(index="ntsb", **params):
    return {"operation": "QueryIndex", "inputs": [], "index": index, **params}


#: name -> (optimizer policy, plan). Together the optimized plans use
#: every operation in OPERATOR_SPECS (asserted below).
SCRIPT_PLANS = {
    "scan filter folded into the scan": ("balanced", [
        _scan(),
        {"operation": "BasicFilter", "inputs": [0], "field": "weather_related",
         "op": "eq", "value": True},
        {"operation": "Count", "inputs": [1]},
    ]),
    "retrieval at the default k": ("balanced", [
        _scan(query="icing"),
        {"operation": "Count", "inputs": [0]},
    ]),
    "retrieval at an explicit k": ("balanced", [
        _scan(query="engine failure", k=7),
        {"operation": "Project", "inputs": [0], "fields": ["state", "incident_year"]},
    ]),
    "figure 5: two filter-count branches and math": ("quality", [
        _scan(),
        {"operation": "LlmFilter", "inputs": [0],
         "condition": "caused by environmental factors"},
        {"operation": "Count", "inputs": [1]},
        {"operation": "LlmFilter", "inputs": [1], "condition": "caused by wind"},
        {"operation": "Count", "inputs": [3]},
        {"operation": "Math", "inputs": [2, 4], "expression": "100 * #4 / #2"},
    ]),
    "extract, filter on it, grouped aggregate": ("balanced", [
        _scan(),
        {"operation": "LlmExtract", "inputs": [0], "field": "aircraft_damage",
         "type": "string"},
        {"operation": "BasicFilter", "inputs": [1], "field": "incident_year",
         "op": "ge", "value": 2021},
        {"operation": "Aggregate", "inputs": [2], "func": "sum",
         "field": "injuries_fatal", "group_by": "state"},
    ]),
    "cascade-annotated filter and extract": ("cascade", [
        _scan(),
        {"operation": "LlmFilter", "inputs": [0], "condition": "caused by icing",
         "model": "sim-large"},
        {"operation": "LlmExtract", "inputs": [1], "field": "phase_of_flight",
         "model": "sim-large"},
        {"operation": "Project", "inputs": [2], "fields": ["phase_of_flight"]},
    ]),
    "top-k": ("balanced", [
        _scan(),
        {"operation": "TopK", "inputs": [0], "field": "state", "k": 3},
    ]),
    "sort, limit, identity (a document-set answer)": ("balanced", [
        _scan(),
        {"operation": "Sort", "inputs": [0], "field": "injuries_fatal",
         "descending": True},
        {"operation": "Limit", "inputs": [1], "k": 4},
        {"operation": "Identity", "inputs": [2]},
    ]),
    "distinct": ("balanced", [
        _scan(),
        {"operation": "Distinct", "inputs": [0], "field": "state"},
        {"operation": "Count", "inputs": [1]},
    ]),
    "left join of two scans": ("balanced", [
        _scan(),
        _scan(),
        {"operation": "Join", "inputs": [0, 1], "left_on": "state",
         "right_on": "state", "how": "left"},
        {"operation": "Count", "inputs": [2]},
    ]),
    "summary with a question": ("balanced", [
        _scan(),
        {"operation": "Limit", "inputs": [0], "k": 3},
        {"operation": "Summarize", "inputs": [1], "model": "sim-oracle",
         "question": "what happened?"},
    ]),
    "summary of nothing": ("balanced", [
        _scan(),
        {"operation": "BasicFilter", "inputs": [0], "field": "state", "op": "eq",
         "value": "ZZ"},
        {"operation": "Summarize", "inputs": [1]},
    ]),
}


class TestGeneratedCodeRuns:
    """``LunaResult.code`` is what ran: executing it gives the answer."""

    @staticmethod
    def _comparable(value):
        if isinstance(value, list) and value and isinstance(value[0], Document):
            return [document.to_dict() for document in value]
        return value

    def _assert_script_agrees(self, context, policy, nodes):
        result = Luna(context, policy=policy).execute_plan("q", "ntsb", plan_from(nodes))
        calls_before = context.cost_tracker.summary().calls
        rerun = run_code(result.code, context)
        assert self._comparable(rerun) == self._comparable(result.answer), result.code
        return result, context.cost_tracker.summary().calls - calls_before

    @pytest.mark.parametrize("name", SCRIPT_PLANS)
    def test_script_returns_the_executors_answer(self, indexed_context, name):
        policy, nodes = SCRIPT_PLANS[name]
        self._assert_script_agrees(indexed_context, policy, nodes)

    def test_follow_up_script_rereads_the_previous_answer(self, indexed_context):
        doc_ids = [d.doc_id for d in indexed_context.catalog.get("ntsb").all_documents()][:9]
        result, _ = self._assert_script_agrees(indexed_context, "balanced", [
            {"operation": "FromDocuments", "inputs": [], "index": "ntsb",
             "doc_ids": doc_ids},
            {"operation": "Count", "inputs": [0]},
        ])
        assert result.answer == 9

    def test_every_operator_is_covered(self, indexed_context):
        used = {"FromDocuments"}  # the follow-up test above
        for policy, nodes in SCRIPT_PLANS.values():
            optimized, _ = optimize(
                policy, plan_from(nodes), indexed_context.catalog.get("ntsb").schema
            )
            used.update(node.operation for node in optimized.nodes)
        assert used == set(OPERATOR_SPECS)

    def test_folded_scan_filter_is_in_the_script(self, indexed_context, ntsb_corpus):
        policy, nodes = SCRIPT_PLANS["scan filter folded into the scan"]
        result, _ = self._assert_script_agrees(indexed_context, policy, nodes)
        assert result.optimized_plan.nodes[1].operation == "Identity"  # folded
        assert ".filter_by_property('weather_related', 'eq', True)" in result.code
        docs = indexed_context.catalog.get("ntsb").all_documents()
        assert result.answer == sum(
            1 for d in docs if d.properties.get("weather_related") is True
        ) < len(docs)

    def test_retrieval_prints_its_k(self, indexed_context):
        policy, nodes = SCRIPT_PLANS["retrieval at the default k"]
        result, _ = self._assert_script_agrees(indexed_context, policy, nodes)
        assert "query='icing', k=20" in result.code
        assert result.answer == 20

    def test_cascade_is_in_the_script(self, indexed_context):
        policy, nodes = SCRIPT_PLANS["cascade-annotated filter and extract"]
        result, _ = self._assert_script_agrees(indexed_context, policy, nodes)
        assert result.code.count("cascade={'draft_model': 'sim-small'") == 2

    def test_empty_summary_makes_no_llm_call_on_either_path(self, indexed_context):
        policy, nodes = SCRIPT_PLANS["summary of nothing"]
        result, script_calls = self._assert_script_agrees(indexed_context, policy, nodes)
        assert result.answer == "No matching records."
        assert result.trace.total_llm_calls() == 0
        assert script_calls == 0


class TestConcurrentExecutionsOnOneExecutor:
    """One LunaExecutor, two queries at once: neither sees the other's
    query id, cluster stats or record-loss counts."""

    PLAN = [
        {"operation": "QueryIndex", "inputs": [], "index": None},
        {"operation": "LlmExtract", "inputs": [0], "field": "cause"},
        {"operation": "Count", "inputs": [1]},
    ]
    #: What the stub cluster reports per query: (dead_lettered, skipped).
    LOSSES = {"A": (2, 0), "B": (0, 5)}

    @pytest.fixture()
    def clustered(self):
        import threading
        from types import SimpleNamespace

        with SycamoreContext(parallelism=1, seed=0) as ctx:
            for name in ("a", "b"):
                ctx.catalog.create(name).add_documents(
                    [Document(text=f"{name}{i}", properties={"n": i}) for i in range(3)]
                )
            dispatched = []  # (query_id, first document text), in dispatch order
            b_dispatched = threading.Event()

            def run_segment(documents, spec, query_id="", partial="raise"):
                dispatched.append((query_id, documents[0].text))
                if query_id == "B":
                    b_dispatched.set()
                dead_lettered, skipped = self.LOSSES[query_id]
                return SimpleNamespace(
                    documents=documents, status="ok", llm_calls=0, cost_usd=0.0,
                    dead_lettered=dead_lettered, skipped=skipped,
                )

            ctx.cluster = SimpleNamespace(
                config=SimpleNamespace(min_cluster_docs=0), run_segment=run_segment
            )
            yield ctx, dispatched, b_dispatched

    def _plan(self, index):
        nodes = [dict(node) for node in self.PLAN]
        nodes[0]["index"] = index
        return plan_from(nodes)

    def _run_both(self, executor, a_kwargs, b_done):
        """Run query A (gated by the caller) and query B on two threads;
        B runs to completion while A is held."""
        import threading

        traces = {}

        def run(query_id, index, **kwargs):
            traces[query_id] = executor.execute(
                self._plan(index), query_id=query_id, **kwargs
            )[1]
            if query_id == "B":
                b_done.set()

        a = threading.Thread(target=run, args=("A", "a"), kwargs=a_kwargs)
        b = threading.Thread(target=run, args=("B", "b"))
        a.start()
        b.start()
        for thread in (a, b):
            thread.join(timeout=30)
            assert not thread.is_alive()
        return traces

    def test_a_segment_is_dispatched_under_its_own_query_id(self, clustered):
        import threading

        ctx, dispatched, b_dispatched = clustered
        # Hold A inside its QueryIndex until B has dispatched its segment.
        index_a = ctx.catalog.get("a")
        read_a = index_a.all_documents

        def gated_read():
            assert b_dispatched.wait(timeout=30)
            return read_a()

        index_a.all_documents = gated_read
        self._run_both(LunaExecutor(ctx), {}, threading.Event())
        assert dispatched == [("B", "b0"), ("A", "a0")]

    def test_record_losses_land_on_the_right_trace(self, clustered):
        import threading

        ctx, _, _ = clustered
        b_done = threading.Event()

        def hold_a_until_b_is_done(index, operation, output):
            # A has run its LlmExtract but not yet recorded it.
            if operation == "LlmExtract":
                assert b_done.wait(timeout=30)

        traces = self._run_both(
            LunaExecutor(ctx), {"journal_writer": hold_a_until_b_is_done}, b_done
        )
        for query_id, (dead_lettered, skipped) in self.LOSSES.items():
            entry = traces[query_id].entries[1]
            assert (entry.dead_lettered, entry.skipped) == (dead_lettered, skipped)
            assert traces[query_id].partial


    def test_eight_threads_share_one_executor(self, clustered):
        import sys
        import threading

        ctx, dispatched, _ = clustered
        executor = LunaExecutor(ctx)
        wrong = []

        def run(query_id):
            for _ in range(25):
                trace = executor.execute(
                    self._plan(query_id.lower()), query_id=query_id
                )[1]
                entry = trace.entries[1]
                if (entry.dead_lettered, entry.skipped) != self.LOSSES[query_id]:
                    wrong.append((query_id, entry.dead_lettered, entry.skipped))

        threads = [threading.Thread(target=run, args=("AB"[i % 2],)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        assert len(dispatched) == 8 * 25
        # Index "a" was only ever scattered under query id "A", "b" under "B".
        assert {(query_id, text[0]) for query_id, text in dispatched} == {("A", "a"), ("B", "b")}


class TestLunaEndToEnd:
    def test_query_produces_full_result(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        result = luna.query("How many incidents were caused by icing?", index="ntsb")
        records = [
            d.properties for d in indexed_context.catalog.get("ntsb").all_documents()
        ]
        assert isinstance(result.answer, int)
        assert result.code.startswith("out_0 = context.read.index('ntsb')")
        assert result.trace.entries
        explained = result.explain()
        assert "Plan:" in explained and "Execution trace:" in explained

    def test_unknown_policy_rejected(self, indexed_context):
        with pytest.raises(ValueError, match="unknown policy"):
            Luna(indexed_context, policy="turbo")

    def test_unknown_index_rejected(self, indexed_context):
        luna = Luna(indexed_context)
        with pytest.raises(KeyError):
            luna.query("How many?", index="nope")

    def test_session_inspect_and_edit(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        session = luna.session(
            "How many incidents were caused by weather?", index="ntsb"
        )
        assert "Step 1" in session.show_plan()
        # The user tightens the planner's condition before running.
        llm_nodes = [
            i for i, n in enumerate(session.plan.nodes) if n.operation == "LlmFilter"
        ]
        if llm_nodes:
            session.set_param(llm_nodes[0], "condition", "caused by icing")
        result = session.run()
        assert isinstance(result.answer, int)

    def test_session_remove_filter(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        session = luna.session(
            "How many incidents were caused by icing?", index="ntsb"
        )
        filters = [
            i
            for i, n in enumerate(session.plan.nodes)
            if n.operation in ("LlmFilter", "BasicFilter")
        ]
        for i in filters:
            session.remove_filter(i)
        result = session.run()
        assert result.answer == len(indexed_context.catalog.get("ntsb").all_documents())

    def test_session_replace_node(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        session = luna.session("How many incidents were caused by icing?", index="ntsb")
        last = len(session.plan.nodes) - 1
        session.replace_node(
            last, {"operation": "Summarize", "inputs": [last - 1], "model": "sim-oracle"}
        )
        result = session.run()
        assert isinstance(result.answer, str)

    def test_session_bad_index_errors(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        session = luna.session("How many incidents were caused by icing?", index="ntsb")
        with pytest.raises(IndexError):
            session.set_param(99, "condition", "x")

    def test_execute_explicit_plan(self, indexed_context):
        luna = Luna(indexed_context, policy="quality")
        plan = plan_from(
            [
                {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
                {"operation": "Count", "inputs": [0]},
            ]
        )
        result = luna.execute_plan("count all", "ntsb", plan)
        assert result.answer == len(indexed_context.catalog.get("ntsb").all_documents())

    def test_paper_percentage_query(self, indexed_context, ntsb_corpus):
        records, _ = ntsb_corpus
        # Oracle planner: this test isolates execution fidelity from the
        # planner's (intentional) misinterpretation noise.
        luna = Luna(indexed_context, planner_model="sim-oracle", policy="quality")
        result = luna.query(
            "What percent of environmentally caused incidents were due to wind?",
            index="ntsb",
        )
        env = sum(1 for r in records if r.cause_category == "environmental")
        wind = sum(1 for r in records if r.cause_detail == "wind")
        expected = 100.0 * wind / env
        assert result.answer == pytest.approx(expected, rel=0.35)
