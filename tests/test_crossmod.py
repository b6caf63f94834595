"""Whole-program analysis (``repro.analysis.crossmod``) tests.

Covers the project index, the three whole-program rules with positive
and negative fixtures, suppressions, the scripted two-module deadlock
fixture the static lock-order rule must catch, and the repo's own
whole-program self-test. The tests that need an index of all of
``src/repro`` share one, built once per session.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import ProgramRule, lint_paths, load_rules, read_files
from repro.analysis.crossmod import ProjectIndex, build_lock_graph

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def build_index(paths):
    return ProjectIndex.build(read_files(paths))


@pytest.fixture(scope="session")
def repo_index():
    """One index of all of ``src/repro``, shared by every test that needs it."""
    return build_index([SRC])


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

    def test_whole_repo_indexes_in_one_pass(self, repo_index):
        assert len(repo_index.modules) > 100
        assert len(repo_index.functions) > 1000
        assert len(repo_index.locks) > 20


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
        report = lint_paths([root], rules=["lock-order-inversion"])
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
        report = lint_paths([root], rules=["lock-order-inversion"])
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
        report = lint_paths([root], rules=["lock-order-inversion"])
        assert len(report.findings) == 1

    def test_repo_lock_graph_is_acyclic(self, repo_index):
        assert build_lock_graph(repo_index).cycles() == []


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
        report = lint_paths([root], rules=["future-escape"])
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
        report = lint_paths([root], rules=["future-escape"])
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
        report = lint_paths([root], rules=["future-escape"])
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
        report = lint_paths([root], rules=["future-escape"])
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
        report = lint_paths([root], rules=["prompt-taint"])
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
        report = lint_paths([root], rules=["prompt-taint"])
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
        report = lint_paths([root], rules=["prompt-taint"])
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
        report = lint_paths([root], rules=["prompt-taint"])
        assert [f.line for f in report.findings] == [10]

    def test_lint_ignore_accepts_flow(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "mod.py": """
                    from repro.llm.prompts import append_section

                    def accepted(document):
                        # repro: lint-ignore[prompt-taint]
                        return append_section("p", "document", document.text)
                """,
            },
        )
        report = lint_paths([root], rules=["prompt-taint"])
        assert report.findings == []
        assert report.suppressed == 1


class TestDeadlockFixtureBothWays:
    """The scripted two-module deadlock: each module is fine on its
    own, and only the whole-program lock graph holds the cycle."""

    FIXTURE = FIXTURES / "deadlock_demo"

    def test_static_rule_catches_fixture(self):
        report = lint_paths([self.FIXTURE], rules=["lock-order-inversion"])
        assert len(report.findings) == 1
        assert "AccountA._lock" in report.findings[0].message


def program_rule_ids():
    return {
        rule_id
        for rule_id, rule in load_rules().items()
        if isinstance(rule, ProgramRule)
    }


class TestRepoSelfTest:
    """The whole-program rules, in the one registry and over all of
    ``src/`` (the shared ``repro lint`` run)."""

    def test_all_rules_registered(self):
        assert program_rule_ids() == {
            "lock-order-inversion",
            "future-escape",
            "prompt-taint",
        }

    def test_repo_is_xlint_clean_against_committed_baseline(self, repo_lint_report):
        # No baseline is committed any more: clean means no finding at all.
        _, report = repo_lint_report
        found = [f for f in report["findings"] if f["rule"] in program_rule_ids()]
        assert found == [], "\n".join(
            f"{f['path']}:{f['line']} {f['rule']}: {f['message']}" for f in found
        )
