"""Tests for the cost-based optimizer (`repro.optimizer`).

Covers the stats store (persistence, learned-over-prior preference),
the cost model's equations, the three rewrite families (reorder,
scan-filter folding, cascade annotation), cascade escalation threshold
edges, the plancheck cascade codes, serving-cache fingerprints and the
epoch roll, and the `plan-explain` CLI verb. Byte-identity of optimized
answers is asserted end to end on the deterministic corpora.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro import Luna
from repro.analysis import check_plan
from repro.cli import main as cli_main
from repro.docmodel import Document
from repro.llm.base import DEFAULT_MODELS, get_model_spec
from repro.luna.executor import ExecutionTrace, TraceEntry
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.partitioner import ArynPartitioner
from repro.sycamore import SycamoreContext
from repro.luna.operators import (
    CASCADE_ELIGIBLE_OPERATIONS,
    SHARDABLE_OPERATIONS,
    LogicalPlan,
    PlanNode,
)
from repro.optimizer import (
    CASCADE_POLICY,
    DEFAULT_SOURCE_ROWS,
    POLICIES,
    QUALITY_POLICY,
    SELECTIVITY_PRIORS,
    TOKEN_PROFILES,
    CostBasedOptimizer,
    CostModel,
    StatsStore,
    node_model_key,
    node_signature,
)
from repro.serving.cache import plan_cache_key, result_cache_key
from repro.sycamore.llm_transforms import (
    make_cascade_extract_fn,
    make_cascade_filter_fn,
)

SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
}


def plan(*nodes):
    return LogicalPlan(nodes=list(nodes))


def node(operation, inputs=(), **params):
    return PlanNode(operation=operation, inputs=list(inputs), params=params)


def trace_for(plan_, rows):
    """Synthetic ExecutionTrace: rows is [(records_in, records_out, cost,
    calls, seconds)] aligned with the plan's nodes."""
    trace = ExecutionTrace()
    for index, (n, (rin, rout, cost, calls, secs)) in enumerate(
        zip(plan_.nodes, rows)
    ):
        trace.entries.append(
            TraceEntry(
                index=index,
                operation=n.operation,
                description=n.description,
                records_in=rin,
                records_out=rout,
                duration_s=secs,
                llm_cost_usd=cost,
                llm_calls=calls,
                result_preview="",
            )
        )
    return trace


# ----------------------------------------------------------------------
# Signatures and keys
# ----------------------------------------------------------------------


class TestSignatures:
    def test_llmfilter_signature_normalizes_condition(self):
        a = node("LlmFilter", [0], condition="  About   WIND damage ")
        b = node("LlmFilter", [0], condition="about wind damage")
        assert node_signature(a) == node_signature(b) == "about wind damage"

    def test_basicfilter_signature_is_field_and_op(self):
        n = node("BasicFilter", [0], field="state", op="eq", value="AK")
        assert node_signature(n) == "state:eq"

    def test_cascade_folds_into_model_key(self):
        plain = node("LlmFilter", [0], condition="c", model="sim-large")
        cascaded = node(
            "LlmFilter",
            [0],
            condition="c",
            model="sim-large",
            cascade={
                "draft_model": "sim-small",
                "draft_votes": 2,
                "confidence_threshold": 0.75,
            },
        )
        assert node_model_key(plain) == "sim-large"
        assert node_model_key(cascaded) == "sim-large+cascade:sim-smallx2@0.75"
        assert node_model_key(plain) != node_model_key(cascaded)


# ----------------------------------------------------------------------
# StatsStore
# ----------------------------------------------------------------------


class TestStatsStore:
    def make_observed_store(self):
        store = StatsStore()
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="about wind", model="sim-large"),
            node("Count", [1]),
        )
        store.observe(p, trace_for(p, [
            (0, 100, 0.0, 0, 0.01),
            (100, 25, 0.406, 100, 2.0),
            (25, 1, 0.0, 0, 0.0),
        ]))
        return store, p

    def test_observe_learns_selectivity_and_cost(self):
        store, _ = self.make_observed_store()
        sel = store.selectivity("LlmFilter", "about wind", "sim-large")
        assert sel == pytest.approx(0.25)
        cost = store.cost_per_row("LlmFilter", "about wind", "sim-large")
        assert cost == pytest.approx(0.00406)

    def test_observe_skips_replayed_and_errored(self):
        store = StatsStore()
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="c", model="sim-large"),
        )
        t = trace_for(p, [(0, 10, 0.0, 0, 0.0), (10, 5, 0.1, 10, 1.0)])
        t.entries[1].replayed = True
        assert store.observe(p, t) == 1  # only the scan folded
        t2 = trace_for(p, [(0, 10, 0.0, 0, 0.0), (10, 5, 0.1, 10, 1.0)])
        t2.entries[1].error = "boom"
        store2 = StatsStore()
        assert store2.observe(p, t2) == 1
        assert store2.selectivity("LlmFilter", "c", "sim-large") is None

    def test_scalar_tail_operators_are_not_observed(self):
        store, _ = self.make_observed_store()
        assert store.lookup("Count") is None

    def test_persistence_roundtrip(self, tmp_path):
        store, _ = self.make_observed_store()
        path = tmp_path / "stats.json"
        store.save(path)
        reloaded = StatsStore(path=path)
        assert reloaded.as_dict() == store.as_dict()
        assert reloaded.fingerprint() == store.fingerprint()
        assert reloaded.selectivity(
            "LlmFilter", "about wind", "sim-large"
        ) == pytest.approx(0.25)

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            StatsStore().save()

    def test_snapshot_is_isolated_from_later_observations(self):
        store, p = self.make_observed_store()
        snap = store.snapshot()
        before = snap.fingerprint()
        store.observe(p, trace_for(p, [
            (0, 100, 0.0, 0, 0.01),
            (100, 99, 0.406, 100, 2.0),   # wildly different selectivity
            (99, 1, 0.0, 0, 0.0),
        ]))
        assert snap.fingerprint() == before
        assert store.fingerprint() != before

    def test_fingerprint_quantization_absorbs_small_drift(self):
        store, p = self.make_observed_store()
        before = store.fingerprint()
        # One more observation at the same ratios lands in the same
        # quantization buckets.
        store.observe(p, trace_for(p, [
            (0, 100, 0.0, 0, 0.01),
            (100, 25, 0.406, 100, 2.0),
            (25, 1, 0.0, 0, 0.0),
        ]))
        assert store.fingerprint() == before

    def test_signature_fallback_to_operation_aggregate(self):
        store, _ = self.make_observed_store()
        # A fresh condition has no exact entry but inherits the
        # operation-level aggregate selectivity.
        assert store.selectivity(
            "LlmFilter", "never seen before", "sim-large"
        ) == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


class TestCostModel:
    def test_priors_match_token_profiles(self):
        model = CostModel()
        n = node("LlmFilter", [0], condition="c", model="sim-large")
        spec = get_model_spec("sim-large")
        in_tok, out_tok = TOKEN_PROFILES["LlmFilter"]
        assert model.cost_per_row(n) == pytest.approx(
            spec.cost_usd(in_tok, out_tok)
        )
        assert model.selectivity(n) == SELECTIVITY_PRIORS["LlmFilter"]

    def test_structured_operators_are_free(self):
        model = CostModel()
        assert model.cost_per_row(
            node("BasicFilter", [0], field="f", op="eq", value=1)
        ) == 0.0

    def test_learned_beats_prior(self):
        store = StatsStore()
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="c", model="sim-large"),
        )
        store.observe(p, trace_for(p, [(0, 50, 0.0, 0, 0.0),
                                       (50, 45, 0.5, 50, 1.0)]))
        model = CostModel(store)
        n = node("LlmFilter", [0], condition="c", model="sim-large")
        assert model.selectivity(n) == pytest.approx(0.9)
        assert model.cost_per_row(n) == pytest.approx(0.01)

    def test_cascade_threshold_edges_in_costing(self):
        base = dict(condition="c", model="sim-large")
        plain = node("LlmFilter", [0], **base)
        never = node("LlmFilter", [0], **base, cascade={
            "draft_model": "sim-small", "draft_votes": 2,
            "confidence_threshold": 0.0,
        })
        always = node("LlmFilter", [0], **base, cascade={
            "draft_model": "sim-small", "draft_votes": 2,
            "confidence_threshold": 1.5,
        })
        model = CostModel()
        draft = get_model_spec("sim-small")
        verify = get_model_spec("sim-large")
        in_tok, out_tok = TOKEN_PROFILES["LlmFilter"]
        drafts = 2 * draft.cost_usd(in_tok, out_tok)
        # tau=0: only draft votes are paid, no verify term.
        assert model.cost_per_row(never) == pytest.approx(drafts)
        # tau>1: drafts plus the full verify cost on every row.
        assert model.cost_per_row(always) == pytest.approx(
            drafts + verify.cost_usd(in_tok, out_tok)
        )
        # Drafting on the cheap model undercuts the plain filter.
        assert model.cost_per_row(never) < model.cost_per_row(plain)

    def test_rank_orders_cheap_selective_first(self):
        model = CostModel()
        basic = node("BasicFilter", [0], field="f", op="eq", value=1)
        llm = node("LlmFilter", [0], condition="c", model="sim-large")
        assert model.rank(basic) == 0.0
        assert model.rank(llm) > model.rank(basic)

    def test_estimate_plan_propagates_cardinality(self):
        model = CostModel()
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="c", model="sim-large"),
            node("Count", [1]),
        )
        est = model.estimate_plan(p, source_rows=100.0)
        assert est.nodes[0].rows_out == 100.0
        assert est.nodes[1].rows_in == 100.0
        assert est.nodes[1].rows_out == pytest.approx(
            100.0 * SELECTIVITY_PRIORS["LlmFilter"]
        )
        assert est.nodes[2].rows_out == 1.0
        assert est.cost_usd == pytest.approx(100.0 * model.cost_per_row(p.nodes[1]))

    def test_retrieval_scan_caps_at_k(self):
        model = CostModel()
        p = plan(node("QueryIndex", index="ntsb", query="wind", k=7))
        est = model.estimate_plan(p, source_rows=500.0)
        assert est.nodes[0].rows_out == 7.0


# ----------------------------------------------------------------------
# Rewrites
# ----------------------------------------------------------------------


class TestRewrites:
    def test_scan_filter_folds_into_queryindex(self):
        opt = CostBasedOptimizer("balanced")
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("BasicFilter", [0], field="state", op="eq", value="AK"),
            node("Count", [1]),
        )
        optimized, log, report = opt.optimize_with_report(p, schema=SCHEMA)
        scan = optimized.nodes[0]
        assert scan.params["filter_field"] == "state"
        assert scan.params["filter_op"] == "eq"
        assert scan.params["filter_value"] == "AK"
        assert optimized.nodes[1].operation == "Identity"
        assert len(optimized.nodes) == 3  # swap-in-place: no node removed
        assert any(r.startswith("scan-filter:") for r in log)
        assert report.estimated_after.cost_usd <= report.estimated_before.cost_usd

    def test_unrewritten_plan_estimates_equal_before_and_after(self):
        """The quality policy names the model an unannotated semantic node
        is already priced on, and nothing else applies to this plan: the
        report must not credit the optimizer a latency (or cost) cut."""
        opt = CostBasedOptimizer("quality")
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="caused by wind"),
            node("Count", [1]),
        )
        optimized, log, report = opt.optimize_with_report(p, schema=SCHEMA)
        assert log == ["model: node 1 LlmFilter -> sim-large"]
        assert [n.operation for n in optimized.nodes] == [
            n.operation for n in p.nodes
        ]
        assert report.estimated_before.latency_s > 0
        assert report.estimated_after.latency_s == pytest.approx(
            report.estimated_before.latency_s
        )
        assert report.estimated_after.cost_usd == pytest.approx(
            report.estimated_before.cost_usd
        )

    def test_fold_skips_non_schema_fields_and_retrieval_scans(self):
        opt = CostBasedOptimizer("balanced")
        p = plan(
            node("QueryIndex", index="ntsb", query="wind"),
            node("BasicFilter", [0], field="state", op="eq", value="AK"),
        )
        optimized, _, _ = opt.optimize_with_report(p, schema=SCHEMA)
        assert "filter_field" not in optimized.nodes[0].params
        p2 = plan(
            node("QueryIndex", index="ntsb"),
            node("BasicFilter", [0], field="nonexistent", op="eq", value=1),
        )
        optimized2, _, _ = opt.optimize_with_report(p2, schema=SCHEMA)
        assert "filter_field" not in optimized2.nodes[0].params

    def test_reorder_runs_learned_selective_filter_first(self):
        store = StatsStore()
        observed = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="barely filters", model="sim-large"),
            node("LlmFilter", [1], condition="keeps almost none", model="sim-large"),
        )
        store.observe(observed, trace_for(observed, [
            (0, 100, 0.0, 0, 0.0),
            (100, 95, 0.406, 100, 1.0),   # selectivity 0.95 - pass-through
            (95, 2, 0.386, 95, 1.0),      # selectivity ~0.02 - sharp
        ]))
        opt = CostBasedOptimizer("quality", stats=store)
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="barely filters"),
            node("LlmFilter", [1], condition="keeps almost none"),
            node("Count", [2]),
        )
        optimized, log, _ = opt.optimize_with_report(p, schema=SCHEMA)
        conditions = [
            n.params.get("condition")
            for n in optimized.nodes
            if n.operation == "LlmFilter"
        ]
        assert conditions == ["keeps almost none", "barely filters"]
        assert any(r.startswith("reorder:") for r in log)
        # Swap-in-place: wiring is still a linear chain.
        assert [n.inputs for n in optimized.nodes] == [[], [0], [1], [2]]

    def test_priors_only_reorder_is_a_noop(self):
        opt = CostBasedOptimizer("quality")
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="first"),
            node("LlmFilter", [1], condition="second"),
            node("Count", [2]),
        )
        optimized, log, _ = opt.optimize_with_report(p, schema=SCHEMA)
        conditions = [
            n.params.get("condition")
            for n in optimized.nodes
            if n.operation == "LlmFilter"
        ]
        assert conditions == ["first", "second"]
        assert not any(r.startswith("reorder:") for r in log)

    def test_cascade_policy_annotates_eligible_nodes(self):
        opt = CostBasedOptimizer("cascade")
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="about wind"),
            node("Count", [1]),
        )
        optimized, log, _ = opt.optimize_with_report(p, schema=SCHEMA)
        cascade = optimized.nodes[1].params.get("cascade")
        assert cascade == {
            "draft_model": CASCADE_POLICY.cascade_draft_model,
            "draft_votes": CASCADE_POLICY.cascade_votes,
            "confidence_threshold": CASCADE_POLICY.cascade_confidence_threshold,
        }
        assert optimized.nodes[1].params["model"] != cascade["draft_model"]
        assert optimized.nodes[2].params.get("cascade") is None
        assert any(r.startswith("cascade:") for r in log)

    def test_non_cascade_policies_never_annotate(self):
        for name in ("quality", "balanced", "cost"):
            opt = CostBasedOptimizer(name)
            p = plan(
                node("QueryIndex", index="ntsb"),
                node("LlmFilter", [0], condition="c"),
                node("Count", [1]),
            )
            optimized, _, _ = opt.optimize_with_report(p, schema=SCHEMA)
            assert all("cascade" not in n.params for n in optimized.nodes)

    def test_cascade_onto_same_model_is_skipped(self):
        policy = CASCADE_POLICY.__class__(
            name="selfdraft",
            filter_model=CASCADE_POLICY.cascade_draft_model,
            extract_model=CASCADE_POLICY.cascade_draft_model,
            summarize_model=CASCADE_POLICY.cascade_draft_model,
            enable_fusion=False,
            cascade=True,
        )
        opt = CostBasedOptimizer(policy)
        p = plan(
            node("QueryIndex", index="ntsb"),
            node("LlmFilter", [0], condition="c"),
            node("Count", [1]),
        )
        optimized, _, _ = opt.optimize_with_report(p, schema=SCHEMA)
        assert "cascade" not in optimized.nodes[1].params


# ----------------------------------------------------------------------
# Cascade execution semantics (scripted backend)
# ----------------------------------------------------------------------


class _ScriptedLLM:
    """Answers by rule; records (model, prompt) per call."""

    def __init__(self, rule, json_rule=None):
        self.rule = rule
        self.json_rule = json_rule
        self.calls = []

    def complete(self, prompt, model=None, **_):
        self.calls.append((model, prompt))
        return SimpleNamespace(text=self.rule(model, prompt))

    def complete_json(self, prompt, model=None, **_):
        self.calls.append((model, prompt))
        return self.json_rule(model, prompt)

    def by_model(self, name):
        return [c for c in self.calls if c[0] == name]


def scripted_context(llm):
    return SimpleNamespace(
        llm_for=lambda priority: llm, default_model="sim-large", registry=MetricsRegistry()
    )


class TestCascadeSemantics:
    DOC = Document(text="wind damaged the aircraft")

    def split_vote_llm(self, verify_answer="yes"):
        """Draft votes disagree (vote 0 yes, re-check no); verify decides."""

        def rule(model, prompt):
            if model == "sim-large":
                return verify_answer
            return "no" if "recheck" in prompt else "yes"

        return _ScriptedLLM(rule)

    def test_split_votes_escalate_and_verify_decides(self):
        llm = self.split_vote_llm(verify_answer="yes")
        predicate = make_cascade_filter_fn(
            scripted_context(llm), "about wind", "sim-large", "sim-small",
            draft_votes=2, confidence_threshold=0.75,
        )
        assert predicate(self.DOC) is True
        assert len(llm.by_model("sim-small")) == 2
        assert len(llm.by_model("sim-large")) == 1
        # The escalated prompt is the base prompt - no recheck section.
        assert "recheck" not in llm.by_model("sim-large")[0][1]

        llm_no = self.split_vote_llm(verify_answer="no")
        predicate_no = make_cascade_filter_fn(
            scripted_context(llm_no), "about wind", "sim-large", "sim-small",
            draft_votes=2, confidence_threshold=0.75,
        )
        assert predicate_no(self.DOC) is False

    def test_threshold_zero_never_escalates(self):
        llm = self.split_vote_llm()
        predicate = make_cascade_filter_fn(
            scripted_context(llm), "about wind", "sim-large", "sim-small",
            draft_votes=2, confidence_threshold=0.0,
        )
        # Split 1-1 vote, tie broken by the first ballot (yes).
        assert predicate(self.DOC) is True
        assert len(llm.by_model("sim-large")) == 0

    def test_threshold_above_one_always_escalates(self):
        llm = _ScriptedLLM(lambda model, prompt: "yes")  # unanimous drafts
        predicate = make_cascade_filter_fn(
            scripted_context(llm), "about wind", "sim-large", "sim-small",
            draft_votes=2, confidence_threshold=1.5,
        )
        assert predicate(self.DOC) is True
        assert len(llm.by_model("sim-large")) == 1

    def test_unanimous_drafts_answer_without_verify(self):
        llm = _ScriptedLLM(lambda model, prompt: "no")
        predicate = make_cascade_filter_fn(
            scripted_context(llm), "about wind", "sim-large", "sim-small",
            draft_votes=3, confidence_threshold=0.75,
        )
        assert predicate(self.DOC) is False
        assert len(llm.by_model("sim-small")) == 3
        assert len(llm.by_model("sim-large")) == 0

    def test_extract_escalates_on_null_field(self):
        def json_rule(model, prompt):
            if model == "sim-small":
                return {"state": "AK", "incident_year": None}
            return {"state": "AK", "incident_year": 2020}

        llm = _ScriptedLLM(None, json_rule)
        extract = make_cascade_extract_fn(
            scripted_context(llm),
            {"state": "string", "incident_year": "int"},
            "sim-large", "sim-small", confidence_threshold=0.75,
        )
        out = extract(self.DOC)
        assert out.properties["incident_year"] == 2020
        assert len(llm.by_model("sim-large")) == 1

    def test_extract_confident_draft_skips_verify(self):
        llm = _ScriptedLLM(
            None, lambda model, prompt: {"state": "AK", "incident_year": 2020}
        )
        extract = make_cascade_extract_fn(
            scripted_context(llm),
            {"state": "string", "incident_year": "int"},
            "sim-large", "sim-small", confidence_threshold=0.75,
        )
        out = extract(self.DOC)
        assert out.properties["state"] == "AK"
        assert len(llm.by_model("sim-large")) == 0

    def test_counters_go_to_the_context_registry(self, ntsb_corpus):
        """A context with its own registry sees its cascade's drafts and
        escalations; the process registry sees none of them."""
        _, raws = ntsb_corpus
        registry = MetricsRegistry()
        process = get_registry()
        names = ("optimizer.cascade_drafts", "optimizer.cascade_escalations")
        before = [process.counter(name).value() for name in names]
        with SycamoreContext(seed=0, registry=registry) as ctx:
            (
                ctx.read.raw(raws[:8])
                .partition(ArynPartitioner(seed=0))
                .extract_properties({"state": "string"}, model="sim-oracle")
                .write.index("ntsb")
            )
            result = Luna(ctx, policy="cascade").query(
                "How many incidents were caused by wind?", index="ntsb"
            )
        assert any("cascade" in node.params for node in result.optimized_plan.nodes)
        drafts = registry.counter("optimizer.cascade_drafts").value()
        assert drafts >= 8 * CASCADE_POLICY.cascade_votes
        assert [process.counter(name).value() for name in names] == before


# ----------------------------------------------------------------------
# Plancheck integration
# ----------------------------------------------------------------------


class TestPlancheckCascade:
    def cascaded(self, **overrides):
        cascade = {
            "draft_model": "sim-small",
            "draft_votes": 2,
            "confidence_threshold": 0.75,
        }
        cascade.update(overrides)
        return plan(
            node("QueryIndex", index="ntsb"),
            node(
                "LlmFilter", [0],
                condition="c", model="sim-large", cascade=cascade,
            ),
            node("Count", [1]),
        )

    def test_valid_cascade_is_clean(self):
        assert check_plan(self.cascaded()).ok

    def test_cascade_on_non_eligible_operator_is_error(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("Count", [0], cascade={"draft_model": "sim-small"}),
            )
        )
        assert "bad-cascade" in report.codes()
        assert any(i.code == "bad-cascade" for i in report.errors())

    def test_malformed_cascade_payloads_are_errors(self):
        assert "bad-cascade" in check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("LlmFilter", [0], condition="c", cascade="yes please"),
            )
        ).codes()
        assert "bad-cascade" in check_plan(
            self.cascaded(draft_votes=0)
        ).codes()
        assert "bad-cascade" in check_plan(
            self.cascaded(confidence_threshold="high")
        ).codes()

    def test_unknown_draft_model_is_warning_not_error(self):
        report = check_plan(self.cascaded(draft_model="gpt-99"))
        assert "cascade-unknown-model" in report.codes()
        assert report.ok  # warning only - the plan still executes

    def test_unknown_verify_model_warns_too(self):
        p = self.cascaded()
        p.nodes[1].params["model"] = "gpt-99"
        assert "cascade-unknown-model" in check_plan(p).codes()

    def test_scan_filter_op_is_validated(self):
        report = check_plan(
            plan(
                node(
                    "QueryIndex", index="ntsb",
                    filter_field="state", filter_op="zz", filter_value="AK",
                ),
                node("Count", [0]),
            )
        )
        assert "bad-param" in report.codes()


# ----------------------------------------------------------------------
# Serving-cache keys and the epoch roll
# ----------------------------------------------------------------------


class TestCacheKeys:
    def test_fingerprint_changes_plan_and_result_keys(self, indexed_context):
        index = indexed_context.catalog.get("ntsb")
        a = plan_cache_key("How many?", index, optimizer_fingerprint="cascade:aaa")
        b = plan_cache_key("How many?", index, optimizer_fingerprint="cascade:bbb")
        assert a != b
        ra = result_cache_key("How many?", index, optimizer_fingerprint="cascade:aaa")
        rb = result_cache_key("How many?", index, optimizer_fingerprint="cascade:bbb")
        assert ra != rb

    def test_default_fingerprint_is_backward_compatible(self, indexed_context):
        index = indexed_context.catalog.get("ntsb")
        assert plan_cache_key("q", index) == plan_cache_key(
            "q", index, (), optimizer_fingerprint=""
        )


# ----------------------------------------------------------------------
# Luna integration: reports, byte-identity, learned feedback
# ----------------------------------------------------------------------

QUESTION = "How many incidents were caused by wind?"


def canonical(result):
    return json.dumps(
        {
            "answer": result.answer,
            "supporting_documents": sorted(result.trace.supporting_documents()),
        },
        sort_keys=True,
        default=repr,
    )


class TestLunaIntegration:
    def test_report_attached_and_actuals_recorded(self, indexed_context):
        luna = Luna(indexed_context, policy="balanced")
        result = luna.query(QUESTION, index="ntsb")
        report = result.trace.optimizer_report
        assert report is not None
        assert report.policy == "balanced"
        assert report.actual_cost_usd == pytest.approx(
            result.trace.total_cost_usd()
        )
        assert report.actual_llm_calls == result.trace.total_llm_calls()
        assert "Optimizer report" in result.explain()

    def test_reorder_is_byte_identical_and_cheaper(self, indexed_context):
        """Cold (reorder off) vs cost-optimized execution of the same
        hand-built plan, on both corpora: the LLM predicate is written
        first, the free structured predicate second. Reordering must not
        change a byte of the answer, must shrink the rows the LLM sees,
        and must cost less (response cache cleared before each arm, so
        neither arm rides on the other's calls)."""
        cold_policy = dataclasses.replace(
            QUALITY_POLICY,
            name="cold",
            enable_pushdown=False,
            enable_string_substitution=False,
        )
        workloads = [
            ("ntsb", "incidents wind", "incident_year", 2022),
            ("earnings", "lowered guidance", "sector", "BNPL"),
        ]

        def llm_rows(result):
            return [
                e.records_in
                for e in result.trace.entries
                if e.operation == "LlmFilter"
            ][0]

        for index, condition, field, value in workloads:

            def build():
                return plan(
                    node("QueryIndex", index=index),
                    node("LlmFilter", [0], condition=condition),
                    node("BasicFilter", [1], field=field, op="eq", value=value),
                    node("Count", [2]),
                )

            indexed_context.llm.clear_cache()
            cold = Luna(indexed_context, policy=cold_policy).execute_plan(
                QUESTION, index, build()
            )
            indexed_context.llm.clear_cache()
            optimized = Luna(indexed_context, policy="quality").execute_plan(
                QUESTION, index, build()
            )
            assert cold.answer > 0, index
            assert canonical(optimized) == canonical(cold), index
            assert llm_rows(optimized) < llm_rows(cold), index
            assert (
                optimized.trace.total_cost_usd() < cold.trace.total_cost_usd()
            ), index
            # The saving comes from rewrites that fired, on the optimized
            # arm only: with the reorder off no node moves, so the cold arm
            # runs the plan as written and only picks its model.
            assert [
                n.operation for n in cold.optimized_plan.nodes
            ] == [n.operation for n in build().nodes], index
            assert all(
                r.startswith("model:") for r in cold.trace.optimizer_report.rewrites
            ), index
            rewrites = optimized.trace.optimizer_report.rewrites
            assert any(r.startswith("reorder:") for r in rewrites), index
            assert any(r.startswith("scan-filter:") for r in rewrites), index

    def test_cascade_matches_ground_truth(self, indexed_context):
        """The cascade's verdicts are checked against the concept lexicon
        (the simulation's ground truth), not against sim-large: drafts
        that unanimously disagree with a rare sim-large slip are *right*,
        so byte-identity with the quality policy is the wrong oracle."""
        from repro.llm.knowledge import condition_holds

        index = indexed_context.catalog.get("ntsb")
        expected = sum(
            1
            for d in index.all_documents()
            if condition_holds("incidents wind", d.text_representation())
        )
        indexed_context.llm.clear_cache()
        quality = Luna(indexed_context, policy="quality").query(
            QUESTION, index="ntsb"
        )
        indexed_context.llm.clear_cache()
        cascaded = Luna(indexed_context, policy="cascade").query(
            QUESTION, index="ntsb"
        )
        assert cascaded.answer == expected
        report = cascaded.trace.optimizer_report
        assert any(r.startswith("cascade:") for r in report.rewrites)
        assert report.estimated_after.cost_usd < report.estimated_before.cost_usd
        # Drafting on the cheap model pays off in dollars actually spent,
        # not only in the estimate.
        assert cascaded.trace.total_cost_usd() < quality.trace.total_cost_usd()

    def test_stats_store_learns_across_queries(self, indexed_context):
        store = StatsStore()
        empty_fingerprint = StatsStore().fingerprint()
        luna = Luna(indexed_context, policy="balanced", stats_store=store)
        first = luna.query(QUESTION, index="ntsb")
        assert first.trace.optimizer_report.stats_fingerprint == empty_fingerprint
        assert len(store) > 0
        second = luna.query(QUESTION, index="ntsb")
        # The second plan was optimized against the learned table.
        fp = second.trace.optimizer_report.stats_fingerprint
        assert fp != empty_fingerprint
        assert canonical(second) == canonical(first)

    def test_scan_fold_preserves_answers(self, indexed_context):
        # A question the planner answers with a structured filter; the
        # folded scan must not change the result.
        question = "How many incidents had fatal injuries?"
        reference = Luna(indexed_context, policy="quality").query(
            question, index="ntsb"
        )
        balanced = Luna(indexed_context, policy="balanced").query(
            question, index="ntsb"
        )
        assert balanced.answer == reference.answer


# ----------------------------------------------------------------------
# Registry constants and policy surface
# ----------------------------------------------------------------------


class TestSurface:
    def test_cascade_eligible_subset_of_shardable(self):
        assert set(CASCADE_ELIGIBLE_OPERATIONS) <= set(SHARDABLE_OPERATIONS)

    def test_cascade_policy_registered(self):
        assert POLICIES["cascade"] is CASCADE_POLICY
        assert CASCADE_POLICY.cascade
        assert CASCADE_POLICY.cascade_draft_model in DEFAULT_MODELS
        for name in ("quality", "balanced", "cost"):
            assert not POLICIES[name].cascade

    def test_default_source_rows_positive(self):
        assert DEFAULT_SOURCE_ROWS > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestPlanExplainCli:
    def test_plan_explain_smoke(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        code = cli_main([
            "plan-explain", QUESTION,
            "--docs", "8", "--policy", "cascade",
            "--stats", str(stats_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Optimizer report (policy=cascade)" in out
        assert "cascade:" in out
        assert "answer:" in out
        assert stats_path.exists()
        assert StatsStore(path=stats_path).as_dict()["entries"]
