"""Whole-program analysis (``repro.analysis.crossmod``) tests.

Covers the project index, all four cross-module rules with positive and
negative fixtures, slice scoping, suppressions, the committed-baseline
self-test, and the scripted two-module deadlock fixture that both the
static rule and the runtime locksmith must catch (and agree on in the
cross-check report).
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline
from repro.analysis.crossmod import (
    XRULES,
    build_index,
    build_lock_graph,
    xlint_paths,
)
from repro.analysis import locksmith

FIXTURES = Path(__file__).parent / "fixtures"


def make_project(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def rules_of(report):
    return sorted({f.rule for f in report.findings})


class TestProjectIndex:
    def test_index_collects_modules_functions_and_locks(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/box.py": """
                    import threading

                    class Box:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def poke(self):
                            with self._lock:
                                return 1
                """,
            },
        )
        index = build_index([root])
        assert "repro.box" in index.modules
        assert "repro.box:Box.poke" in index.functions
        assert "repro.box:Box._lock" in index.locks
        decl = index.locks["repro.box:Box._lock"]
        assert decl.kind == "Lock"
        assert decl.path.endswith("box.py")

    def test_call_graph_resolves_cross_module_calls(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/a.py": """
                    from repro.b import helper

                    def caller():
                        return helper()
                """,
                "repro/b.py": """
                    def helper():
                        return 1
                """,
            },
        )
        index = build_index([root])
        callees = {e.callee for e in index.callees_of("repro.a:caller")}
        assert "repro.b:helper" in callees

    def test_whole_repo_indexes_in_one_pass(self):
        index = build_index(["src/repro"])
        assert len(index.modules) > 100
        assert len(index.functions) > 1000
        assert len(index.locks) > 20


class TestLockOrderInversion:
    def test_two_module_cycle_detected(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod_a.py": """
                    import threading
                    from mod_b import credit

                    class AccountA:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def transfer(self, other, amount):
                            with self._lock:
                                credit(other, amount)

                        def debit(self, amount):
                            with self._lock:
                                pass
                """,
                "mod_b.py": """
                    import threading
                    from mod_a import AccountA

                    class AccountB:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def reverse(self, a: AccountA, amount):
                            with self._lock:
                                a.debit(amount)

                    def credit(b: "AccountB", amount):
                        with b._lock:
                            pass
                """,
            },
        )
        report = xlint_paths([root], rules=["lock-order-inversion"])
        assert rules_of(report) == ["lock-order-inversion"]
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "mod_a:AccountA._lock" in message
        assert "mod_b:AccountB._lock" in message
        assert "via" in message  # call-chain provenance

    def test_consistent_order_is_clean(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    import threading

                    A = threading.Lock()
                    B = threading.Lock()

                    def one():
                        with A:
                            with B:
                                pass

                    def two():
                        with A:
                            with B:
                                pass
                """,
            },
        )
        report = xlint_paths([root], rules=["lock-order-inversion"])
        assert report.findings == []

    def test_direct_nesting_inversion_same_module(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    import threading

                    A = threading.Lock()
                    B = threading.Lock()

                    def one():
                        with A:
                            with B:
                                pass

                    def two():
                        with B:
                            with A:
                                pass
                """,
            },
        )
        report = xlint_paths([root], rules=["lock-order-inversion"])
        assert len(report.findings) == 1

    def test_repo_lock_graph_is_acyclic(self):
        index = build_index(["src/repro"])
        graph = build_lock_graph(index)
        assert graph.cycles() == []


class TestFutureEscape:
    def _tree(self, body):
        return {
            "repro/__init__.py": "",
            "repro/serving/__init__.py": "",
            "repro/serving/mod.py": body,
        }

    def test_discarded_and_dead_local_flagged(self, tmp_path):
        root = make_project(
            tmp_path,
            self._tree(
                """
                def make_future(pool):
                    return pool.submit(len, "x")

                def dropper(pool):
                    make_future(pool)

                def dead_local(pool):
                    fut = make_future(pool)
                    return 2
                """
            ),
        )
        report = xlint_paths([root], rules=["future-escape"])
        lines = sorted(f.line for f in report.findings)
        assert len(report.findings) == 2
        assert all(f.rule == "future-escape" for f in report.findings)

    def test_consumed_and_forwarded_are_clean(self, tmp_path):
        root = make_project(
            tmp_path,
            self._tree(
                """
                def make_future(pool):
                    return pool.submit(len, "x")

                def consumer(pool):
                    fut = make_future(pool)
                    return fut.result()

                def forwarder(pool):
                    return make_future(pool)

                def passer(pool, sink):
                    fut = make_future(pool)
                    sink(fut)
                """
            ),
        )
        report = xlint_paths([root], rules=["future-escape"])
        assert report.findings == []

    def test_cold_path_not_audited(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/datagen/__init__.py": "",
                "repro/datagen/mod.py": """
                    def make_future(pool):
                        return pool.submit(len, "x")

                    def dropper(pool):
                        make_future(pool)
                """,
            },
        )
        report = xlint_paths([root], rules=["future-escape"])
        assert report.findings == []

    def test_inline_suppression_applies(self, tmp_path):
        root = make_project(
            tmp_path,
            self._tree(
                """
                def make_future(pool):
                    return pool.submit(len, "x")

                def dropper(pool):
                    make_future(pool)  # repro: lint-ignore[future-escape]
                """
            ),
        )
        report = xlint_paths([root], rules=["future-escape"])
        assert report.findings == []
        assert report.suppressed == 1


class TestPromptTaint:
    def test_document_text_to_prompt_flagged(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import append_section

                    def bad(document):
                        return append_section("p", "document", document.text)
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint"])
        assert len(report.findings) == 1
        assert "neutralize_markers" in report.findings[0].message

    def test_sanitized_flow_is_clean(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import append_section, neutralize_markers

                    def good(document):
                        return append_section(
                            "p", "document", neutralize_markers(document.text)
                        )
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint"])
        assert report.findings == []

    def test_cross_module_flow_via_helper(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "producer.py": """
                    from sink import helper

                    def indirect(document):
                        body = document.text_representation()
                        return helper(body)
                """,
                "sink.py": """
                    from repro.llm.prompts import render_task_prompt

                    def helper(body: str):
                        return render_task_prompt("t", {"document": body})
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint"])
        paths = {Path(f.path).name for f in report.findings}
        # Flagged at the sink function (str param named `body`) and at
        # the caller handing document text into it.
        assert "sink.py" in paths
        assert "producer.py" in paths

    def test_taint_survives_a_list_append_and_a_join(self, tmp_path):
        # summarize_collection's shape: sliced document text appended to
        # a list, joined, and handed over as a section.
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import neutralize_markers, render_task_prompt

                    def bad(documents):
                        parts = []
                        for document in documents:
                            text = document.text_representation()
                            parts.append(text[:1500])
                        sections = {"documents": "\\n---\\n".join(parts), "max_sentences": "1"}
                        return render_task_prompt("summarize_collection", sections)

                    def good(documents):
                        parts = []
                        for document in documents:
                            parts.append(neutralize_markers(document.text_representation())[:1500])
                        sections = {"documents": "\\n---\\n".join(parts)}
                        return render_task_prompt("summarize_collection", sections)
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint"])
        assert [f.line for f in report.findings] == [10]

    def test_taint_safe_with_reason_accepts_flow(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import append_section

                    def accepted(document):
                        # repro: taint-safe[corpus is synthetic and marker-free]
                        return append_section("p", "document", document.text)
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint", "unjustified-taint-safe"])
        assert report.findings == []

    def test_bare_taint_safe_is_itself_a_finding(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import append_section

                    def accepted(document):
                        # repro: taint-safe
                        return append_section("p", "document", document.text)
                """,
            },
        )
        report = xlint_paths([root], rules=["prompt-taint", "unjustified-taint-safe"])
        found = rules_of(report)
        # The bare tag does NOT cover the sink and is flagged itself.
        assert found == ["prompt-taint", "unjustified-taint-safe"]

    def test_tag_inside_string_literal_ignored(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    MESSAGE = "write '# repro: taint-safe' somewhere"
                """,
            },
        )
        report = xlint_paths([root], rules=["unjustified-taint-safe"])
        assert report.findings == []


class TestEventLoopBlocker:
    def test_sleep_reachable_from_dispatch_root(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/runtime/__init__.py": "",
                "repro/runtime/scheduler.py": """
                    import time

                    class RequestScheduler:
                        def _run(self):
                            self._work()

                        def _work(self):
                            time.sleep(0.1)
                """,
            },
        )
        report = xlint_paths([root], rules=["event-loop-blocker"])
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "time.sleep()" in message
        assert "chain:" in message

    def test_bounded_waits_and_dict_get_are_clean(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/runtime/__init__.py": "",
                "repro/runtime/scheduler.py": """
                    class RequestScheduler:
                        def _run(self):
                            self._work({}, None)

                        def _work(self, d, fut):
                            d.get("key")
                            "x".join(["a"])
                            if fut is not None:
                                fut.result(timeout=2.0)
                """,
            },
        )
        report = xlint_paths([root], rules=["event-loop-blocker"])
        assert report.findings == []

    def test_unbounded_queue_get_flagged(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/runtime/__init__.py": "",
                "repro/runtime/scheduler.py": """
                    import queue

                    class RequestScheduler:
                        def __init__(self):
                            self._queue = queue.Queue()

                        def _run(self):
                            item = self._queue.get()
                            return item
                """,
            },
        )
        report = xlint_paths([root], rules=["event-loop-blocker"])
        assert len(report.findings) == 1

    def test_unreachable_sleep_not_flagged(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/runtime/__init__.py": "",
                "repro/runtime/scheduler.py": """
                    import time

                    class RequestScheduler:
                        def _run(self):
                            pass

                    def offline_tool():
                        time.sleep(5)
                """,
            },
        )
        report = xlint_paths([root], rules=["event-loop-blocker"])
        assert report.findings == []


class TestSliceScoping:
    def test_changed_files_scope_reporting(self, tmp_path):
        files = {
            "repro/__init__.py": "",
            "repro/serving/__init__.py": "",
            "repro/serving/hot.py": """
                def make_future(pool):
                    return pool.submit(len, "x")

                def dropper(pool):
                    make_future(pool)
            """,
            "repro/serving/cold.py": """
                def other_make(pool):
                    return pool.submit(len, "y")

                def other_dropper(pool):
                    other_make(pool)
            """,
        }
        root = make_project(tmp_path, files)
        full = xlint_paths([root], rules=["future-escape"])
        assert len(full.findings) == 2

        scoped = xlint_paths(
            [root],
            rules=["future-escape"],
            changed_files=[str(root / "repro/serving/hot.py")],
        )
        assert len(scoped.findings) == 1
        assert scoped.findings[0].path.endswith("hot.py")
        assert scoped.out_of_scope == 1


class TestDeadlockFixtureBothWays:
    """The scripted two-module deadlock: static rule and runtime
    sanitizer must both catch it, and the cross-check must agree."""

    FIXTURE = FIXTURES / "deadlock_demo"

    def _replay(self):
        """Run both acquisition orders (single thread — the sanitizer
        flags the ordering violation, not an actual hang)."""
        sys.path.insert(0, str(self.FIXTURE))
        try:
            for name in ("mod_a", "mod_b"):
                sys.modules.pop(name, None)
            import mod_a
            import mod_b

            a = mod_a.AccountA()
            b = mod_b.AccountB()
            a.transfer(b, 5)  # A -> B
            b.reverse(a, 5)  # B -> A: inversion
        finally:
            sys.path.remove(str(self.FIXTURE))
            sys.modules.pop("mod_a", None)
            sys.modules.pop("mod_b", None)

    @staticmethod
    def _scoped_report(full, needle="deadlock_demo"):
        sites = {k: v for k, v in full["sites"].items() if needle in k}
        return {
            "installed": True,
            "sites": sites,
            "edges": [
                e for e in full["edges"] if e["a"] in sites and e["b"] in sites
            ],
            "inversions": [
                i
                for i in full["inversions"]
                if i["a"] in sites and i["b"] in sites
            ],
        }

    def test_static_rule_catches_fixture(self):
        report = xlint_paths([self.FIXTURE], rules=["lock-order-inversion"])
        assert len(report.findings) == 1
        assert "AccountA._lock" in report.findings[0].message

    @pytest.mark.locksmith_intentional
    def test_runtime_sanitizer_catches_fixture_and_cross_check_agrees(self):
        already = locksmith.installed()
        if not already:
            locksmith.install()
        before = len(locksmith.inversions())
        try:
            self._replay()
            new = locksmith.inversions()[before:]
            runtime = self._scoped_report(locksmith.report())
        finally:
            if not already:
                locksmith.uninstall()

        assert len(new) == 1
        inversion = new[0]
        assert inversion.stack, "forward acquisition stack recorded"
        assert inversion.reverse_stack, "reverse acquisition stack recorded"
        assert "mod_a.py" in inversion.a + inversion.b
        assert "mod_b.py" in inversion.a + inversion.b

        # Cross-check: the static cycle is confirmed by the runtime
        # observations, with no runtime-only leftovers.
        index = build_index([self.FIXTURE])
        graph = build_lock_graph(index)
        assert len(graph.cycles()) == 1
        cross = locksmith.cross_check(graph, runtime)
        assert len(cross["confirmed"]) == 1
        assert cross["static_only"] == []
        assert cross["runtime_only"] == []
        # Both fixture locks joined on their creation sites.
        assert len(cross["matched_sites"]) == 2

    def test_static_only_when_runtime_never_exercised(self):
        index = build_index([self.FIXTURE])
        graph = build_lock_graph(index)
        empty = {"installed": True, "sites": {}, "edges": [], "inversions": []}
        cross = locksmith.cross_check(graph, empty)
        assert cross["confirmed"] == []
        assert len(cross["static_only"]) == 1


class TestRepoSelfTest:
    def test_all_rules_registered(self):
        assert set(XRULES) == {
            "lock-order-inversion",
            "future-escape",
            "prompt-taint",
            "unjustified-taint-safe",
            "event-loop-blocker",
        }

    def test_repo_is_xlint_clean_against_committed_baseline(self):
        baseline = Baseline.load(".xlint-baseline.json")
        report = xlint_paths(["src/repro"], baseline=baseline)
        assert report.findings == [], "\n" + "\n".join(
            f"{f.path}:{f.line} {f.rule}: {f.message}" for f in report.findings
        )
        assert report.stale == [], (
            "stale xlint baseline entries: " + ", ".join(report.stale)
        )
