"""Tests for repro.analysis: lint rules, suppressions, the CLI, plancheck.

Three layers, matching the subsystem:

* **Lint** — per-rule positive/negative fixtures run through
  :func:`lint_source`. Each positive is the bug class the rule encodes;
  each negative is the nearest legitimate idiom (which must NOT fire).
  The ``repro lint`` verb is driven end to end, and the repo itself
  lints clean through it.
* **Plancheck** — one unit per violation code, plus the integration
  contracts: the planner rejects-and-replans on a bad sample,
  ``Luna.execute_plan`` rejects hand-built invalid plans at plan time,
  and the serving plan cache never admits an invalid plan.
* **Hygiene** — the leak sanitizer's detector actually detects.
"""

import json
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    PlanCheckError,
    Rule,
    check_plan,
    leakcheck,
    lint_source,
    load_rules,
)
from repro.cli import main
from repro.embedding.embedder import HashingEmbedder
from repro.indexes.catalog import NamedIndex
from repro.luna import Luna
from repro.luna.operators import LogicalPlan, PlanNode, PlanValidationError
from repro.luna.planner import LunaPlanner


def hits(source, rule):
    """Rule findings for a dedented source snippet."""
    return lint_source(textwrap.dedent(source), rules=[rule])


def codes_of(source, rule):
    return [f.rule for f in hits(source, rule)]


# ----------------------------------------------------------------------
# blocking-call-under-lock
# ----------------------------------------------------------------------


class TestBlockingCallUnderLock:
    RULE = "blocking-call-under-lock"

    def test_sleep_under_lock_fires(self):
        found = hits(
            """
            def f(self):
                with self._lock:
                    time.sleep(1)
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "sleep" in found[0].message

    def test_sleep_outside_lock_is_fine(self):
        assert not hits(
            """
            def f(self):
                with self._lock:
                    x = 1
                time.sleep(1)
            """,
            self.RULE,
        )

    def test_nested_def_body_does_not_run_under_lock(self):
        assert not hits(
            """
            def f(self):
                with self._lock:
                    def later():
                        time.sleep(1)
                    cb = lambda: other.result()
                    return later
            """,
            self.RULE,
        )

    def test_future_result_and_llm_call_fire(self):
        found = hits(
            """
            def f(self):
                with self._lock:
                    value = future.result()
                    answer = self.llm.complete(prompt)
            """,
            self.RULE,
        )
        assert len(found) == 2

    def test_add_done_callback_under_lock_fires(self):
        found = hits(
            """
            def f(self):
                with self._cond:
                    shared.add_done_callback(cb)
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "inline" in found[0].message

    def test_nested_different_lock_fires_same_lock_does_not(self):
        found = hits(
            """
            def f(self):
                with self._cache_lock:
                    with self._counter_lock:
                        n += 1
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "nested locking" in found[0].message
        assert not hits(
            """
            def f(self):
                with self._lock:
                    with self._lock:
                        n += 1
            """,
            self.RULE,
        )

    def test_wait_on_held_condition_is_fine_on_other_object_fires(self):
        assert not hits(
            """
            def f(self):
                with self._cond:
                    self._cond.wait()
            """,
            self.RULE,
        )
        assert len(
            hits(
                """
                def f(self):
                    with self._cond:
                        event.wait()
                """,
                self.RULE,
            )
        ) == 1

    def test_thread_join_fires_but_str_join_does_not(self):
        assert len(
            hits(
                """
                def f(self):
                    with self._lock:
                        worker.join()
                """,
                self.RULE,
            )
        ) == 1
        assert not hits(
            """
            def f(self):
                with self._lock:
                    text = ", ".join(parts)
            """,
            self.RULE,
        )


# ----------------------------------------------------------------------
# bare-lock-acquire
# ----------------------------------------------------------------------


class TestBareLockAcquire:
    RULE = "bare-lock-acquire"

    def test_bare_acquire_fires(self):
        found = hits(
            """
            def f(self):
                self._lock.acquire()
                do_work()
                self._lock.release()
            """,
            self.RULE,
        )
        assert len(found) == 1

    def test_try_finally_release_is_fine(self):
        assert not hits(
            """
            def f(self):
                self._lock.acquire()
                try:
                    do_work()
                finally:
                    self._lock.release()
            """,
            self.RULE,
        )

    def test_non_lockish_receiver_ignored(self):
        assert not hits(
            """
            def f(self):
                self.connection.acquire()
            """,
            self.RULE,
        )


# ----------------------------------------------------------------------
# executor-never-shutdown / thread-never-joined
# ----------------------------------------------------------------------


class TestExecutorNeverShutdown:
    RULE = "executor-never-shutdown"

    def test_class_pool_without_shutdown_fires(self):
        found = hits(
            """
            class Service:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)
            """,
            self.RULE,
        )
        assert len(found) == 1

    def test_class_pool_with_close_is_fine(self):
        assert not hits(
            """
            class Service:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def close(self):
                    self._pool.shutdown(wait=True)
            """,
            self.RULE,
        )

    def test_context_managed_pool_is_fine(self):
        assert not hits(
            """
            def f():
                with ThreadPoolExecutor(max_workers=2) as pool:
                    pool.map(work, items)
            """,
            self.RULE,
        )

    def test_module_level_pool_fires(self):
        assert len(
            hits(
                """
                POOL = ThreadPoolExecutor(max_workers=4)
                """,
                self.RULE,
            )
        ) == 1


class TestThreadNeverJoined:
    RULE = "thread-never-joined"

    def test_self_thread_without_join_fires(self):
        found = hits(
            """
            class Worker:
                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()
            """,
            self.RULE,
        )
        assert len(found) == 1

    def test_joined_thread_is_fine(self):
        assert not hits(
            """
            class Worker:
                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def close(self):
                    self._thread.join()
            """,
            self.RULE,
        )


# ----------------------------------------------------------------------
# swallowed-future / metric-name-drift / naive-wall-clock
# ----------------------------------------------------------------------


class TestSwallowedFuture:
    RULE = "swallowed-future"

    def test_bare_submit_fires(self):
        found = hits(
            """
            def f(pool):
                pool.submit(work)
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "discarded" in found[0].message

    def test_bound_submit_is_fine(self):
        assert not hits(
            """
            def f(pool):
                fut = pool.submit(work)
                fut.add_done_callback(log)
            """,
            self.RULE,
        )


class TestMetricNameDrift:
    RULE = "metric-name-drift"

    def test_off_namespace_literal_fires(self):
        found = hits(
            """
            def f(registry):
                registry.counter("queries.total")
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "queries.total" in found[0].message

    def test_documented_namespaces_are_fine(self):
        assert not hits(
            """
            def f(registry):
                registry.counter("llm.requests")
                registry.gauge("serving.queue_depth")
                registry.histogram("scheduler.batch_ms")
            """,
            self.RULE,
        )

    def test_fstring_head_is_checked(self):
        assert len(
            hits(
                """
                def f(registry, op):
                    registry.counter(f"ops.{op}.count")
                """,
                self.RULE,
            )
        ) == 1
        assert not hits(
            """
            def f(registry, op):
                registry.counter(f"executor.{op}.count")
            """,
            self.RULE,
        )


class TestTimeoutNotPropagated:
    HOT = "src/repro/serving/x.py"

    def hot_hits(self, source, path=None):
        return lint_source(
            textwrap.dedent(source),
            path=path or self.HOT,
            rules=["timeout-not-propagated"],
        )

    def test_future_result_without_timeout_fires(self):
        found = self.hot_hits("value = future.result()\n")
        assert len(found) == 1
        assert "remaining deadline budget" in found[0].message

    def test_future_result_with_timeout_ok(self):
        assert not self.hot_hits("value = future.result(timeout=remaining)\n")
        assert not self.hot_hits("value = future.result(5)\n")

    def test_condition_wait_without_timeout_fires(self):
        found = self.hot_hits("self._cond.wait()\n")
        assert len(found) == 1
        assert not self.hot_hits("self._cond.wait(timeout=0.5)\n")

    def test_event_wait_without_timeout_fires(self):
        assert self.hot_hits("done_event.wait()\n")

    def test_bare_queue_get_fires_but_dict_get_does_not(self):
        assert self.hot_hits("item = self._queue.get()\n")
        assert not self.hot_hits("value = mapping.get('key')\n")
        assert not self.hot_hits("item = self._queue.get(timeout=1.0)\n")

    def test_module_level_wait_function_not_flagged(self):
        # concurrent.futures.wait is a Name call, not an attribute wait.
        assert not self.hot_hits("done, pending = wait(futures)\n")

    def test_only_hot_path_packages_are_checked(self):
        source = "value = future.result()\n"
        assert not self.hot_hits(source, path="src/repro/luna/luna.py")
        assert self.hot_hits(source, path="src/repro/runtime/scheduler.py")
        assert self.hot_hits(source, path="src/repro/execution/executor.py")

    def test_inline_suppression(self):
        source = (
            "x = f.result()  # repro: lint-ignore[timeout-not-propagated]\n"
        )
        assert not self.hot_hits(source)


class TestHandlerBlockingIo:
    """A gateway connection thread parked on an unbounded wait pins the
    connection. ``timeout-not-propagated`` catches it: ``repro/gateway``
    is one of its hot paths."""

    GW = "src/repro/gateway/server.py"

    def gw_hits(self, source, path=None):
        return lint_source(
            textwrap.dedent(source),
            path=path or self.GW,
            rules=["timeout-not-propagated"],
        )

    def test_unbounded_result_fires(self):
        found = self.gw_hits("served = ticket.result()\n")
        assert len(found) == 1
        assert "without a timeout" in found[0].message

    def test_bounded_result_ok(self):
        assert not self.gw_hits(
            "served = ticket.result(timeout=SYNC_TIMEOUT_S)\n"
        )
        assert not self.gw_hits("served = ticket.result(30.0)\n")

    def test_only_gateway_package_is_checked(self):
        source = "value = future.result()\n"
        assert not self.gw_hits(source, path="src/repro/luna/luna.py")
        assert self.gw_hits(source, path="src/repro/gateway/client.py")

    def test_gateway_metric_namespace_is_documented(self):
        from repro.analysis.rules import METRIC_NAMESPACES

        assert "gateway." in METRIC_NAMESPACES
        assert not hits(
            """
            reg.counter("gateway.requests")
            """,
            "metric-name-drift",
        )


class TestNaiveWallClock:
    RULE = "naive-wall-clock"

    def test_time_time_fires_monotonic_does_not(self):
        assert len(
            hits(
                """
                def f():
                    return time.time()
                """,
                self.RULE,
            )
        ) == 1
        assert not hits(
            """
            def f():
                return time.monotonic() + time.perf_counter()
            """,
            self.RULE,
        )

    def test_naive_datetime_now_fires_aware_does_not(self):
        assert len(
            hits(
                """
                def f():
                    return datetime.now()
                """,
                self.RULE,
            )
        ) == 1
        assert not hits(
            """
            def f():
                return datetime.now(timezone.utc)
            """,
            self.RULE,
        )


# ----------------------------------------------------------------------
# Suppressions and the rule registry
# ----------------------------------------------------------------------


class TestSuppressionsAndBaseline:
    def test_same_line_suppression(self):
        assert not hits(
            """
            def f(self):
                with self._lock:
                    time.sleep(1)  # repro: lint-ignore[blocking-call-under-lock]
            """,
            "blocking-call-under-lock",
        )

    def test_line_above_suppression(self):
        assert not hits(
            """
            def f(self):
                with self._lock:
                    # repro: lint-ignore[blocking-call-under-lock]
                    time.sleep(1)
            """,
            "blocking-call-under-lock",
        )

    def test_bare_suppression_silences_all_rules(self):
        assert not hits(
            """
            def f(pool):
                pool.submit(work)  # repro: lint-ignore
            """,
            "swallowed-future",
        )

    def test_wrong_rule_id_does_not_suppress(self):
        assert len(
            hits(
                """
                def f(pool):
                    pool.submit(work)  # repro: lint-ignore[naive-wall-clock]
                """,
                "swallowed-future",
            )
        ) == 1

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1", rules=["no-such-rule"])

    def test_syntax_error_becomes_finding(self):
        found = lint_source("def broken(:\n")
        assert [f.rule for f in found] == ["syntax-error"]

    def test_repo_lints_clean_against_committed_baseline(self, repo_lint_report):
        # No baseline is committed any more: clean means no finding at all.
        _, report = repo_lint_report
        single_file = {
            rule_id for rule_id, rule in load_rules().items() if isinstance(rule, Rule)
        }
        found = [f for f in report["findings"] if f["rule"] in single_file]
        assert report["files_checked"] > 50
        assert found == [], json.dumps(found, indent=1)

    def test_rule_catalog_is_complete(self):
        assert set(load_rules()) == {
            "blocking-call-under-lock",
            "bare-lock-acquire",
            "executor-never-shutdown",
            "thread-never-joined",
            "swallowed-future",
            "metric-name-drift",
            "naive-wall-clock",
            "timeout-not-propagated",
            "lock-order-inversion",
            "future-escape",
            "prompt-taint",
        }


# ----------------------------------------------------------------------
# The `repro lint` verb
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


class TestLintCli:
    def run_lint(self, capsys, *args):
        code = main(["lint", *map(str, args)])
        return code, capsys.readouterr().out

    def test_repo_lints_clean(self, repo_lint_report):
        code, report = repo_lint_report
        assert code == 0, json.dumps(report["findings"], indent=1)
        assert report["ok"] is True
        assert report["findings"] == []

    def test_single_file_finding_fails_with_json_report(self, tmp_path, capsys):
        (tmp_path / "clock.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        code, out = self.run_lint(capsys, tmp_path, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("naive-wall-clock", 4)
        ]

    def test_whole_program_finding_fails(self, capsys):
        code, out = self.run_lint(
            capsys, REPO / "tests" / "fixtures" / "deadlock_demo", "--json"
        )
        assert code == 1
        rules = [f["rule"] for f in json.loads(out)["findings"]]
        assert rules == ["lock-order-inversion"]

    def test_each_file_is_parsed_once(self, monkeypatch, capsys):
        import ast

        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        fixture = REPO / "tests" / "fixtures" / "deadlock_demo"
        code, out = self.run_lint(capsys, fixture)
        assert sorted(Path(name).name for name in parsed) == ["mod_a.py", "mod_b.py"]
        assert code == 1
        assert "1 finding(s) in 2 file(s)" in out

    def test_syntax_error_is_reported_once(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
        code, out = self.run_lint(capsys, tmp_path, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["files_checked"] == 2
        assert [f["rule"] for f in report["findings"]] == ["syntax-error"]


# ----------------------------------------------------------------------
# Plancheck units
# ----------------------------------------------------------------------

SCHEMA = {"state": "string", "incident_year": "int"}
KNOWN = {"ntsb": SCHEMA}


def plan(*nodes):
    return LogicalPlan(nodes=list(nodes))


def node(operation, inputs=(), **params):
    return PlanNode(operation=operation, inputs=list(inputs), params=params)


class TestPlanCheck:
    def test_valid_plan_is_clean(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("BasicFilter", [0], field="state", op="eq", value="CA"),
                node("Count", [1]),
            ),
            schema=SCHEMA,
            known_indexes=KNOWN,
        )
        assert report.ok and not report.issues

    def test_empty_plan(self):
        assert "empty-plan" in check_plan(plan()).codes()

    def test_unknown_operator(self):
        assert "unknown-operator" in check_plan(
            plan(node("Frobnicate"))
        ).codes()

    def test_missing_param(self):
        report = check_plan(
            plan(node("QueryIndex", index="ntsb"), node("BasicFilter", [0]))
        )
        assert "missing-param" in report.codes()

    def test_bad_params(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("BasicFilter", [0], field="state", op="zz", value=1),
                node("Limit", [1], k=0),
                node("Aggregate", [2], func="mode", field="state"),
            )
        )
        assert report.codes() >= {"bad-param"}
        assert len([i for i in report.errors() if i.code == "bad-param"]) == 3

    def test_arity_mismatch(self):
        report = check_plan(plan(node("QueryIndex", index="ntsb"), node("Count")))
        assert "arity-mismatch" in report.codes()

    def test_dangling_input(self):
        report = check_plan(
            plan(node("QueryIndex", index="ntsb"), node("Count", [5]))
        )
        assert "dangling-input" in report.codes()

    def test_nontopological_self_reference(self):
        report = check_plan(
            plan(node("QueryIndex", index="ntsb"), node("Count", [1]))
        )
        assert "nontopological-input" in report.codes()

    def test_cycle_through_math_references(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("Math", [0], expression="#2 + 1"),
                node("Math", [0], expression="#1 + 1"),
            )
        )
        assert "cycle" in report.codes()

    def test_unknown_index(self):
        report = check_plan(
            plan(node("QueryIndex", index="nope"), node("Count", [0])),
            known_indexes=KNOWN,
        )
        assert "unknown-index" in report.codes()

    def test_unknown_field(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("BasicFilter", [0], field="altitude", op="eq", value=1),
            ),
            schema=SCHEMA,
            known_indexes=KNOWN,
        )
        assert "unknown-field" in report.codes()

    def test_extracted_field_is_known_downstream(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("LlmExtract", [0], field="cause"),
                node("BasicFilter", [1], field="cause", op="eq", value="wind"),
                node("Aggregate", [2], func="count", field="cause"),
            ),
            schema=SCHEMA,
            known_indexes=KNOWN,
        )
        assert report.ok, report.render()

    def test_aggregate_over_unextracted_field(self):
        bad = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("Aggregate", [0], func="sum", field="altitude"),
            ),
            schema=SCHEMA,
        )
        assert "aggregate-unextracted" in bad.codes()
        # count doesn't read the field's value: exempt.
        counted = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("Aggregate", [0], func="count", field="altitude"),
            ),
            schema=SCHEMA,
        )
        assert counted.ok

    def test_dotted_fields_are_exempt(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("Sort", [0], field="properties.depth"),
            ),
            schema=SCHEMA,
        )
        assert report.ok

    def test_warnings_do_not_fail_the_plan(self):
        report = check_plan(
            plan(
                node("QueryIndex", index="ntsb"),
                node("QueryIndex", index="ntsb"),  # dead node
                node("Project", [0], fields=["state", "ghost"]),
            ),
            schema=SCHEMA,
            known_indexes=KNOWN,
        )
        assert report.ok
        warned = {i.code for i in report.warnings()}
        assert warned >= {"dead-node", "project-unknown"}

    def test_ensure_valid_plan_raises_structured_error(self):
        with pytest.raises(PlanCheckError) as excinfo:
            from repro.analysis import ensure_valid_plan

            ensure_valid_plan(
                plan(node("QueryIndex", index="ntsb"), node("Count", [5]))
            )
        assert isinstance(excinfo.value, PlanValidationError)
        assert "dangling-input" in excinfo.value.report.codes()


# ----------------------------------------------------------------------
# Plancheck integration: planner / Luna / serving
# ----------------------------------------------------------------------


class ScriptedPlannerLLM:
    """An LLM stub whose complete_json returns scripted plan payloads."""

    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.calls = 0

    def complete_json(self, prompt, model="stub", **kwargs):
        self.calls += 1
        return self.payloads.pop(0)


def scripted_index():
    return NamedIndex(name="ntsb", embedder=HashingEmbedder(), schema=dict(SCHEMA))


BAD_PLAN_PAYLOAD = [
    {"operation": "QueryIndex", "index": "ntsb", "inputs": []},
    {
        "operation": "BasicFilter",
        "field": "altitude",
        "op": "eq",
        "value": 1,
        "inputs": [0],
    },
    {"operation": "Count", "inputs": [1]},
]

GOOD_PLAN_PAYLOAD = [
    {"operation": "QueryIndex", "index": "ntsb", "inputs": []},
    {
        "operation": "BasicFilter",
        "field": "state",
        "op": "eq",
        "value": "CA",
        "inputs": [0],
    },
    {"operation": "Count", "inputs": [1]},
]


class TestPlannerIntegration:
    def test_planner_rejects_bad_sample_and_replans_once(self):
        llm = ScriptedPlannerLLM([BAD_PLAN_PAYLOAD, GOOD_PLAN_PAYLOAD])
        planner = LunaPlanner(llm, max_plan_retries=2)
        result = planner.plan("how many CA incidents?", scripted_index())
        assert llm.calls == 2
        assert result.nodes[1].params["field"] == "state"

    def test_planner_gives_up_after_retries(self):
        llm = ScriptedPlannerLLM([BAD_PLAN_PAYLOAD] * 3)
        planner = LunaPlanner(llm, max_plan_retries=2)
        with pytest.raises(PlanValidationError):
            planner.plan("how many CA incidents?", scripted_index())
        assert llm.calls == 3


class TestLunaExecutePlanGate:
    def test_dangling_ref_rejected_at_plan_time(self, indexed_context):
        luna = Luna(indexed_context)
        with pytest.raises(PlanCheckError) as excinfo:
            luna.execute_plan(
                "count",
                "ntsb",
                plan(node("QueryIndex", index="ntsb"), node("Count", [5])),
            )
        assert "dangling-input" in excinfo.value.report.codes()

    def test_unknown_field_rejected_at_plan_time(self, indexed_context):
        luna = Luna(indexed_context)
        with pytest.raises(PlanCheckError) as excinfo:
            luna.execute_plan(
                "filter",
                "ntsb",
                plan(
                    node("QueryIndex", index="ntsb"),
                    node(
                        "BasicFilter", [0], field="altitude", op="eq", value=1
                    ),
                    node("Count", [1]),
                ),
            )
        assert "unknown-field" in excinfo.value.report.codes()

    def test_valid_hand_built_plan_executes(self, indexed_context):
        luna = Luna(indexed_context)
        result = luna.execute_plan(
            "count all",
            "ntsb",
            plan(node("QueryIndex", index="ntsb"), node("Count", [0])),
        )
        assert result.answer == 30


class TestServingPlanCacheGate:
    def test_invalid_plans_never_enter_the_plan_cache(self, monkeypatch):
        from repro.serving import QueryService, ServiceConfig
        from tests.test_serving import build_served_context

        ctx = build_served_context(n_docs=6, seed=7)
        service = QueryService(ctx, ServiceConfig(max_workers=1))
        try:
            bad = plan(
                node("QueryIndex", index="ntsb"), node("Count", [5])
            )
            monkeypatch.setattr(
                LunaPlanner, "plan", lambda self, *a, **kw: bad
            )
            ticket = service.submit("how many incidents?", "ntsb")
            with pytest.raises(PlanCheckError):
                ticket.result(timeout=30)
            assert len(service.plan_cache) == 0
            assert len(service.result_cache) == 0

            # With the stub gone, the same question plans and caches.
            monkeypatch.undo()
            served = service.query("how many incidents?", "ntsb")
            assert served.result.answer is not None
            assert len(service.plan_cache) == 1
        finally:
            service.close()
            ctx.close()


# ----------------------------------------------------------------------
# Leak sanitizer self-test
# ----------------------------------------------------------------------


class TestLeakcheck:
    def test_detects_leaked_thread_then_clears_after_join(self):
        before = leakcheck.thread_snapshot()
        stop = threading.Event()
        thread = threading.Thread(
            target=stop.wait, name="leaky-self-test", daemon=False
        )
        thread.start()
        leaked = leakcheck.find_leaked_threads(before, grace_s=0.2)
        assert any("leaky-self-test" in desc for desc in leaked)
        stop.set()
        thread.join()
        assert leakcheck.find_leaked_threads(before, grace_s=0.5) == []

    def test_daemon_threads_do_not_count(self):
        before = leakcheck.thread_snapshot()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        try:
            assert leakcheck.find_leaked_threads(before, grace_s=0.2) == []
        finally:
            stop.set()
            thread.join()


# ----------------------------------------------------------------------
# Suppression edge cases
# ----------------------------------------------------------------------


class TestSuppressionEdgeCases:
    def test_multiline_statement_suppressed_on_first_line(self):
        # The finding anchors to the statement's first line, so the tag
        # there (or the line above) silences it even though the call
        # spans several lines.
        assert not hits(
            """
            def f(pool):
                pool.submit(  # repro: lint-ignore[swallowed-future]
                    work,
                    arg,
                )
            """,
            "swallowed-future",
        )

    def test_tag_on_last_line_of_multiline_call_does_not_suppress(self):
        assert len(hits(
            """
            def f(pool):
                pool.submit(
                    work,
                )  # repro: lint-ignore[swallowed-future]
            """,
            "swallowed-future",
        )) == 1

    def test_suppression_inside_decorated_function(self):
        # Decorators shift the def downward; the finding still anchors
        # to the offending statement, so line-above suppression works
        # unchanged inside a decorated function.
        assert not hits(
            """
            @retry(3)
            @traced
            def f(pool):
                # repro: lint-ignore[swallowed-future]
                pool.submit(work)
            """,
            "swallowed-future",
        )

    def test_decorator_line_tag_does_not_leak_onto_body(self):
        # A tag on the decorator line must not silence findings in the
        # function body below it.
        assert len(hits(
            """
            @retry(3)  # repro: lint-ignore[swallowed-future]
            def f(pool):
                pool.submit(work)
            """,
            "swallowed-future",
        )) == 1

    def test_suppression_with_spaces_in_rule_list(self):
        assert not hits(
            """
            def f(pool):
                pool.submit(work)  # repro: lint-ignore[ swallowed-future , naive-wall-clock ]
            """,
            "swallowed-future",
        )
