"""C4 — §6.1 claim: "The plan optimizer makes trade-offs based on cost vs
efficiency... and make decisions about what technique (string matching vs
semantic matching), and tool (e.g., GPT-4 versus Llama 7B) to use."

Runs the same question set under the three optimizer policies and
reports dollar cost, virtual latency, and accuracy. Shape: the quality
policy costs roughly an order of magnitude more than the cost policy for
a modest accuracy gain. Also ablates the individual rewrites (filter
pushdown and string-match substitution) the optimizer applies.
"""

import pytest

from conftest import print_table
from repro.evaluation import Grade, grade_exact_count, grade_numeric
from repro.luna import (
    BALANCED_POLICY,
    COST_POLICY,
    LogicalPlan,
    Luna,
    LunaExecutor,
    OptimizerPolicy,
    QUALITY_POLICY,
)
from repro.optimizer import CostBasedOptimizer

QUESTIONS = [
    ("How many incidents were caused by icing?", "count"),
    ("How many incidents were caused by engine failure?", "count"),
    ("What percent of environmentally caused incidents were due to wind?", "pct"),
    ("How many incidents in 2022 were weather related?", "count"),
    ("How many incidents involved a bird strike?", "count"),
]


def _truths(records):
    env = sum(1 for r in records if r.cause_category == "environmental")
    wind = sum(1 for r in records if r.cause_detail == "wind")
    return [
        sum(1 for r in records if r.cause_detail == "icing"),
        sum(1 for r in records if r.cause_detail == "engine_failure"),
        100.0 * wind / env,
        sum(1 for r in records if r.year == 2022 and r.weather_related),
        sum(1 for r in records if r.cause_detail == "bird_strike"),
    ]


def _run_policy(context, policy_name, questions, truths):
    before = context.cost_tracker.summary()
    context.llm.clear_cache()  # fair cost accounting per policy
    luna = Luna(context, planner_model="sim-large", policy=policy_name)
    correct = 0
    for (question, kind), truth in zip(questions, truths):
        try:
            answer = luna.query(question, index="ntsb").answer
        except Exception:
            continue
        if kind == "count":
            grade = grade_exact_count(answer, int(truth), plausible_slack=1)
        else:
            grade = grade_numeric(answer, truth, correct_rel_tol=0.1, correct_abs_tol=2.0)
        correct += grade.grade in (Grade.CORRECT, Grade.PLAUSIBLE)
    after = context.cost_tracker.summary()
    return {
        "accuracy": correct / len(questions),
        "cost_usd": after.cost_usd - before.cost_usd,
        "latency_s": after.latency_s - before.latency_s,
        "calls": after.calls - before.calls,
    }


def test_bench_optimizer_policies(benchmark, bench_context, ntsb_bench_corpus):
    records, _ = ntsb_bench_corpus
    truths = _truths(records)

    def run_all():
        return {
            name: _run_policy(bench_context, name, QUESTIONS, truths)
            for name in ("quality", "balanced", "cost")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [
            name,
            f"{r['accuracy']:.0%}",
            f"${r['cost_usd']:.3f}",
            f"{r['latency_s']:.0f}s",
            r["calls"],
        ]
        for name, r in results.items()
    ]
    print_table(
        "C4: optimizer policy trade-offs (5 analytic questions, 80 docs)",
        ["policy", "accuracy", "LLM cost", "virtual latency", "LLM calls"],
        rows,
    )

    quality, cost = results["quality"], results["cost"]
    # Shape: quality costs much more than cost policy...
    assert quality["cost_usd"] > cost["cost_usd"] * 5
    # ...for an accuracy that is at least as good.
    assert quality["accuracy"] >= cost["accuracy"]
    assert quality["accuracy"] >= 0.8


FILTER_PLAN = [
    {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
    {"operation": "LlmFilter", "inputs": [0], "condition": "caused by icing"},
    {"operation": "BasicFilter", "inputs": [1], "field": "incident_year",
     "op": "eq", "value": 2022},
    {"operation": "Count", "inputs": [2]},
]


def test_bench_pushdown_ablation(benchmark, bench_context):
    """Ablation: filter pushdown cuts the LLM calls a plan makes."""
    executor = LunaExecutor(bench_context)

    def llm_calls_for(policy):
        bench_context.llm.clear_cache()
        plan, _, _ = CostBasedOptimizer(policy).optimize_with_report(
            LogicalPlan.from_json(FILTER_PLAN),
            bench_context.catalog.get("ntsb").schema,
        )
        before = bench_context.cost_tracker.summary().calls
        executor.execute(plan)
        return bench_context.cost_tracker.summary().calls - before

    with_pushdown = benchmark.pedantic(
        llm_calls_for, args=(QUALITY_POLICY,), rounds=1, iterations=1
    )
    no_pushdown = llm_calls_for(
        OptimizerPolicy(
            name="no-pushdown",
            filter_model="sim-large",
            extract_model="sim-large",
            summarize_model="sim-large",
            enable_pushdown=False,
            enable_string_substitution=False,
            enable_fusion=False,
        )
    )
    print(
        f"\nC4 ablation (pushdown): LLM calls with pushdown={with_pushdown}, "
        f"without={no_pushdown}"
    )
    # Year filter keeps ~1/3 of docs, so pushdown should cut calls ~3x.
    assert with_pushdown < no_pushdown


SUBSTITUTION_PLAN = [
    {"operation": "QueryIndex", "inputs": [], "index": "ntsb"},
    {"operation": "LlmFilter", "inputs": [0], "condition": "weather related incidents"},
    {"operation": "Count", "inputs": [1]},
]


def test_bench_string_substitution_ablation(benchmark, bench_context):
    """Ablation: string-match substitution eliminates per-record LLM calls."""
    executor = LunaExecutor(bench_context)
    schema = bench_context.catalog.get("ntsb").schema

    bench_context.llm.clear_cache()
    plan, log, _ = CostBasedOptimizer(BALANCED_POLICY).optimize_with_report(
        LogicalPlan.from_json(SUBSTITUTION_PLAN), schema
    )
    before = bench_context.cost_tracker.summary().calls
    substituted_answer, _trace = benchmark.pedantic(
        executor.execute, args=(plan,), rounds=1, iterations=1
    )
    substituted_calls = bench_context.cost_tracker.summary().calls - before

    no_sub_policy = OptimizerPolicy(
        name="no-sub",
        filter_model="sim-large",
        extract_model="sim-large",
        summarize_model="sim-large",
        enable_string_substitution=False,
    )
    bench_context.llm.clear_cache()
    plan2, _, _ = CostBasedOptimizer(no_sub_policy).optimize_with_report(
        LogicalPlan.from_json(SUBSTITUTION_PLAN), schema
    )
    before = bench_context.cost_tracker.summary().calls
    semantic_answer, _ = executor.execute(plan2)
    semantic_calls = bench_context.cost_tracker.summary().calls - before

    print(
        f"\nC4 ablation (string-match): substituted answer={substituted_answer} "
        f"({substituted_calls} LLM calls) vs semantic answer={semantic_answer} "
        f"({semantic_calls} LLM calls)"
    )
    assert substituted_calls == 0
    assert semantic_calls >= 50
    # Both techniques land on similar answers.
    assert abs(substituted_answer - semantic_answer) <= max(3, semantic_answer * 0.2)
