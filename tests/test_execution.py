"""Tests for the execution substrate: plans, executor, caches, lineage."""

import threading

import pytest

from repro.docmodel import Document
from repro.execution import (
    DiskCache,
    Executor,
    Lineage,
    MemoryCache,
    Plan,
    TaskError,
)


class TestPlanBuilding:
    def test_chain_and_explain(self):
        plan = (
            Plan.from_items([1, 2, 3], name="src")
            .map(lambda x: x + 1, name="inc")
            .filter(lambda x: x > 2, name="big")
        )
        explained = plan.explain()
        assert "source[src]" in explained
        assert "map[inc]" in explained
        assert "filter[big]" in explained
        assert len(plan.nodes()) == 3

    def test_from_items_snapshots(self):
        items = [1, 2]
        plan = Plan.from_items(items)
        items.append(3)
        assert Executor().take_all(plan) == [1, 2]

    def test_source_called_per_execution(self):
        calls = []

        def items():
            calls.append(1)
            return iter([1])

        plan = Plan.source(items)
        executor = Executor()
        executor.take_all(plan)
        executor.take_all(plan)
        assert len(calls) == 2


class TestExecutionSemantics:
    def test_map_filter_flat_map(self):
        plan = (
            Plan.from_items(range(6))
            .map(lambda x: x * 2)
            .filter(lambda x: x % 3 == 0)
            .flat_map(lambda x: [x, x + 1])
        )
        assert Executor().take_all(plan) == [0, 1, 6, 7]

    def test_aggregate_is_barrier(self):
        plan = Plan.from_items([3, 1, 2]).aggregate(lambda xs: sorted(xs))
        assert Executor().take_all(plan) == [1, 2, 3]

    def test_count_and_lazy_execution(self):
        seen = []
        plan = Plan.from_items(range(10)).map(lambda x: seen.append(x) or x)
        executor = Executor()
        iterator = executor.execute(plan)
        assert seen == []  # nothing ran yet
        next(iterator)
        assert len(seen) >= 1

    def test_plan_fan_out_shares_prefix(self):
        base = Plan.from_items(range(4)).map(lambda x: x * 10)
        left = base.filter(lambda x: x < 20)
        right = base.filter(lambda x: x >= 20)
        executor = Executor()
        assert executor.take_all(left) == [0, 10]
        assert executor.take_all(right) == [20, 30]

    def test_parallel_preserves_order(self):
        plan = Plan.from_items(range(100)).map(lambda x: x * x)
        result = Executor(parallelism=8).take_all(plan)
        assert result == [x * x for x in range(100)]

    def test_parallel_filter(self):
        plan = Plan.from_items(range(50)).filter(lambda x: x % 2 == 0)
        assert Executor(parallelism=4).take_all(plan) == list(range(0, 50, 2))

    def test_parallel_actually_uses_threads(self):
        thread_names = set()

        def record(x):
            thread_names.add(threading.current_thread().name)
            return x

        Executor(parallelism=4).take_all(Plan.from_items(range(64)).map(record))
        assert len(thread_names) > 1

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Executor(parallelism=0)


class TestRetries:
    """The executor retries nothing: a task runs once, and the default
    ``fail`` policy turns its failure into a TaskError."""

    def test_permanent_failure_raises_task_error(self):
        calls = []

        def always_fails(x):
            calls.append(x)
            raise ValueError("nope")

        executor = Executor()
        with pytest.raises(TaskError) as excinfo:
            executor.take_all(Plan.from_items([1]).map(always_fails, name="boom"))
        assert excinfo.value.node_name == "boom"
        assert isinstance(excinfo.value.cause, ValueError)
        assert calls == [1]


class TestStats:
    def test_records_in_out(self):
        plan = Plan.from_items(range(10)).filter(lambda x: x < 3, name="f")
        executor = Executor()
        executor.take_all(plan)
        stats = executor.last_stats
        assert stats.node("f").records_in == 10
        assert stats.node("f").records_out == 3

    def test_flat_map_expansion_counted(self):
        plan = Plan.from_items(range(3)).flat_map(lambda x: [x, x], name="fm")
        executor = Executor()
        executor.take_all(plan)
        assert executor.last_stats.node("fm").records_out == 6


class TestMaterialize:
    def test_memory_cache_skips_upstream(self):
        calls = []
        cache = MemoryCache()
        plan = (
            Plan.from_items(range(3))
            .map(lambda x: calls.append(x) or x, name="work")
            .materialize(cache)
        )
        executor = Executor()
        assert executor.take_all(plan) == [0, 1, 2]
        assert executor.take_all(plan) == [0, 1, 2]
        assert len(calls) == 3  # upstream ran once

    def test_memory_cache_invalidate(self):
        cache = MemoryCache()
        cache.write([1])
        assert cache.is_valid()
        cache.invalidate()
        assert not cache.is_valid()
        with pytest.raises(RuntimeError):
            cache.read()

    def test_disk_cache_roundtrip_documents(self, tmp_path):
        cache = DiskCache(tmp_path / "stage.jsonl")
        docs = [Document.from_text(f"d{i}") for i in range(3)]
        plan = Plan.from_items(docs).materialize(cache)
        executor = Executor()
        first = executor.take_all(plan)
        assert (tmp_path / "stage.jsonl").exists()
        second = executor.take_all(plan)
        assert [d.doc_id for d in first] == [d.doc_id for d in second]
        assert all(isinstance(d, Document) for d in second)

    def test_disk_cache_plain_values(self, tmp_path):
        cache = DiskCache(tmp_path / "vals.jsonl")
        cache.write([1, "two", {"three": 3}])
        assert cache.read() == [1, "two", {"three": 3}]

    def test_disk_cache_missing_read(self, tmp_path):
        cache = DiskCache(tmp_path / "missing.jsonl")
        with pytest.raises(RuntimeError):
            cache.read()


class TestLineage:
    def test_edges_recorded_for_derived_documents(self):
        lineage = Lineage()
        parent = Document.from_text("parent")

        def derive(doc):
            return doc.derive(text="child")

        executor = Executor(lineage=lineage)
        children = executor.take_all(Plan.from_items([parent]).map(derive, name="t"))
        assert lineage.parents_of(children[0].doc_id) == [parent.doc_id]
        assert lineage.children_of(parent.doc_id) == [children[0].doc_id]

    def test_ancestors_transitive(self):
        lineage = Lineage()
        lineage.record("a", "d1", "d2")
        lineage.record("b", "d2", "d3")
        assert lineage.ancestors_of("d3") == ["d1", "d2"]
        assert lineage.root_sources_of("d3") == ["d1"]

    def test_root_of_underived_doc_is_itself(self):
        lineage = Lineage()
        assert lineage.root_sources_of("solo") == ["solo"]

    def test_trace_ordered(self):
        lineage = Lineage()
        lineage.record("t1", "a", "b")
        lineage.record("t2", "b", "c")
        lineage.record("t3", "x", "y")  # unrelated
        trace = lineage.trace("c")
        assert [(e.source_id, e.target_id) for e in trace] == [("a", "b"), ("b", "c")]

    def test_same_id_transform_not_recorded(self):
        lineage = Lineage()
        doc = Document.from_text("x")
        executor = Executor(lineage=lineage)
        executor.take_all(Plan.from_items([doc]).map(lambda d: d))
        assert lineage.edges() == []

    def test_clear(self):
        lineage = Lineage()
        lineage.record("t", "a", "b")
        lineage.clear()
        assert lineage.edges() == []
