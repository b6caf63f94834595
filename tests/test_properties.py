"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_earnings_corpus, generate_ntsb_corpus
from repro.docmodel import BoundingBox, Document, Element, Node, Table, TableCell, TableElement
from repro.embedding import HashingEmbedder
from repro.execution import Executor, Plan
from repro.indexes import KeywordIndex, VectorIndex
from repro.llm import count_tokens, repair_json, render_task_prompt, parse_task_prompt, truncate_to_tokens
from repro.llm.errors import MalformedOutputError
from repro.luna import evaluate, MathEvaluationError
from repro.partitioner import ArynPartitioner
from repro.sycamore.aggregates import aggregate_field, sort_documents, top_k_values

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)


@st.composite
def bboxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(st.floats(min_value=0, max_value=500, allow_nan=False))
    h = draw(st.floats(min_value=0, max_value=500, allow_nan=False))
    return BoundingBox(x1, y1, x1 + w, y1 + h)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


# ----------------------------------------------------------------------
# Geometry invariants
# ----------------------------------------------------------------------


class TestBBoxProperties:
    @given(bboxes(), bboxes())
    def test_iou_symmetric_and_bounded(self, a, b):
        iou = a.iou(b)
        assert 0.0 <= iou <= 1.0 + 1e-9
        assert iou == pytest.approx(b.iou(a))

    @given(bboxes())
    def test_self_iou_is_one(self, box):
        assert box.iou(box) == pytest.approx(1.0)

    @given(bboxes(), bboxes())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(bboxes(), bboxes())
    def test_intersection_subset_of_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_box(inter)
            assert b.contains_box(inter)
            assert inter.area <= min(a.area, b.area) + 1e-9

    @given(bboxes())
    def test_dict_roundtrip(self, box):
        assert BoundingBox.from_dict(box.to_dict()) == box


# ----------------------------------------------------------------------
# Table invariants
# ----------------------------------------------------------------------


@st.composite
def tables(draw):
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 4))
    rows = [
        [draw(st.text(max_size=8)) for _ in range(n_cols)] for _ in range(n_rows)
    ]
    return Table.from_rows(rows, header=draw(st.booleans()))


@st.composite
def spanned_tables(draw):
    """Non-overlapping cells with row/col spans on a grid with holes:
    ragged rows, unused trailing slots, possibly no cells at all."""
    widths = draw(st.lists(st.integers(1, 5), max_size=5))
    free = {(r, c) for r, width in enumerate(widths) for c in range(width)}
    cells = []
    for row, col in sorted(free):
        if (row, col) not in free or draw(st.booleans()):
            continue
        rowspan, colspan = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cell = TableCell(row, col, draw(st.text(max_size=4)), rowspan=rowspan, colspan=colspan)
        if free.issuperset(cell.covered_slots()):
            free.difference_update(cell.covered_slots())
            cells.append(cell)
    return Table(cells=draw(st.permutations(cells)))


def reference_grid(table):
    """``Table.to_grid`` as first written: every slot through covered_slots()."""
    grid = [["" for _ in range(table.num_cols)] for _ in range(table.num_rows)]
    for cell in table.cells:
        for r, c in cell.covered_slots():
            grid[r][c] = cell.text
    return grid


class TestTableProperties:
    @given(spanned_tables())
    def test_grid_equals_reference(self, table):
        table.validate()
        grid = table.to_grid()
        assert grid == reference_grid(table)
        assert len({id(row) for row in grid}) == len(grid)

    @given(tables())
    def test_grid_dimensions_consistent(self, table):
        grid = table.to_grid()
        assert len(grid) == table.num_rows
        assert all(len(row) == table.num_cols for row in grid)

    @given(tables())
    def test_serde_roundtrip(self, table):
        restored = Table.from_dict(table.to_dict())
        assert restored.to_grid() == table.to_grid()

    @given(tables())
    def test_csv_has_row_per_grid_row(self, table):
        csv_text = table.to_csv()
        # csv module may quote embedded newlines; row count >= grid rows
        assert csv_text.count("\n") >= table.num_rows

    @given(tables())
    def test_records_match_body(self, table):
        records = table.to_records()
        assert len(records) == len(table.body_rows())


# ----------------------------------------------------------------------
# Document serde
# ----------------------------------------------------------------------


class TestDocumentProperties:
    @given(
        st.text(max_size=50),
        st.dictionaries(
            st.text(min_size=1, max_size=8), json_values, max_size=4
        ),
    )
    def test_document_json_roundtrip(self, text, properties):
        doc = Document.from_text(text, properties=properties)
        restored = Document.from_json(doc.to_json())
        assert restored.text == doc.text
        assert restored.properties == doc.properties
        assert restored.doc_id == doc.doc_id

    @given(st.lists(st.text(max_size=20), max_size=5))
    def test_elements_preserved_in_order(self, texts):
        doc = Document.from_elements([Element(text=t) for t in texts])
        restored = Document.from_json(doc.to_json())
        assert [e.text for e in restored.elements] == texts


@functools.lru_cache(maxsize=None)
def _partitioned_corpus():
    raws = generate_ntsb_corpus(6, seed=31)[1] + generate_earnings_corpus(6, seed=32)[1]
    partitioner = ArynPartitioner(seed=0)
    return [partitioner.partition(raw) for raw in raws]


@st.composite
def partitioned_documents(draw):
    """A partitioned NTSB or earnings report (sections, tables, pictures)
    carrying generated properties on the document and on one node."""
    doc = draw(st.sampled_from(_partitioned_corpus())).copy()
    keys = st.text(min_size=1, max_size=8)
    doc.properties.update(draw(st.dictionaries(keys, json_values, max_size=4)))
    nodes = [n for n in doc.walk() if isinstance(n, Node)]
    draw(st.sampled_from(nodes)).properties.update(draw(st.dictionaries(keys, json_values, max_size=2)))
    return doc


class TestDocumentCopyProperties:
    @given(partitioned_documents())
    @settings(max_examples=40)
    def test_copy_serialises_the_same(self, doc):
        clone = doc.copy()
        assert clone.to_dict() == doc.to_dict()
        assert clone is not doc and clone.root is not doc.root

    @given(partitioned_documents(), json_values)
    @settings(max_examples=40)
    def test_mutating_the_copy_leaves_the_original(self, doc, value):
        before = json.dumps(doc.to_dict(), sort_keys=True)
        clone = doc.copy()
        clone.properties["added"] = value
        for held in clone.properties.values():
            if isinstance(held, (list, dict)):
                held.clear()
        for node in clone.walk():
            node.properties["touched"] = True
            if isinstance(node, Node):
                node.title += "!"
                node.children.reverse()
                node.children.append(Element(text="appended"))
            else:
                node.text = "rewritten"
            if isinstance(node, TableElement):
                for cell in node.table.cells:
                    cell.text = "x"
                node.table.cells.pop()
                node.table.caption = "changed"
        assert json.dumps(doc.to_dict(), sort_keys=True) == before


# ----------------------------------------------------------------------
# Tokens
# ----------------------------------------------------------------------


class TestTokenProperties:
    @given(st.text(max_size=500))
    def test_count_nonnegative_and_monotone(self, text):
        n = count_tokens(text)
        assert n >= 0
        assert count_tokens(text + " extra") >= n

    @given(st.text(max_size=500), st.integers(1, 50))
    def test_truncate_never_exceeds_budget(self, text, budget):
        assert count_tokens(truncate_to_tokens(text, budget)) <= budget


# ----------------------------------------------------------------------
# Prompt format
# ----------------------------------------------------------------------

section_names = st.text(alphabet="abcdefghij_", min_size=1, max_size=10)
# Section bodies must not themselves contain marker lines.
section_bodies = st.text(max_size=80).filter(
    lambda s: "<<TASK:" not in s and "<<SECTION:" not in s
)


class TestPromptProperties:
    @given(section_names, st.dictionaries(section_names, section_bodies, max_size=4))
    def test_prompt_roundtrip(self, task, sections):
        prompt = render_task_prompt(task, sections)
        parsed_task, parsed_sections = parse_task_prompt(prompt)
        assert parsed_task == task
        for name, body in sections.items():
            assert parsed_sections[name] == body.strip("\n")


# ----------------------------------------------------------------------
# JSON repair
# ----------------------------------------------------------------------


class TestRepairProperties:
    @given(json_values)
    def test_clean_json_unchanged(self, value):
        assert repair_json(json.dumps(value)) == value

    @given(
        st.dictionaries(
            st.text(alphabet="abcxyz", min_size=1, max_size=6),
            st.integers(-100, 100) | st.text(alphabet="mnop ", max_size=10),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 100),
    )
    def test_truncated_object_repairs_to_subset(self, obj, cut_percent):
        serialized = json.dumps(obj)
        cut = max(1, len(serialized) * cut_percent // 100)
        fragment = serialized[:cut]
        try:
            repaired = repair_json(fragment)
        except MalformedOutputError:
            return  # some cuts are hopeless; that's allowed
        if isinstance(repaired, dict):
            for key, value in repaired.items():
                if key in obj and value is not None:
                    # recovered values are either exact or a truncation
                    if isinstance(obj[key], str) and isinstance(value, str):
                        assert obj[key].startswith(value) or obj[key] == value


# ----------------------------------------------------------------------
# Math evaluation vs Python eval
# ----------------------------------------------------------------------


class TestMathProperties:
    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(1, 50),
    )
    def test_matches_python_arithmetic(self, a, b, c):
        expression = "#1 + #2 * 3 - #3 / 2"
        expected = a + b * 3 - c / 2
        assert evaluate(expression, {1: a, 2: b, 3: c}) == pytest.approx(expected)

    @given(st.text(max_size=30))
    def test_never_executes_arbitrary_code(self, text):
        # Any input either evaluates to a float or raises MathEvaluationError.
        try:
            result = evaluate(text, {})
        except MathEvaluationError:
            return
        assert isinstance(result, float)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


class TestAggregateProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30))
    def test_sum_avg_consistent(self, values):
        docs = [Document(properties={"v": v}) for v in values]
        total = aggregate_field(docs, "sum", "v")
        avg = aggregate_field(docs, "avg", "v")
        assert total == pytest.approx(sum(values))
        assert avg == pytest.approx(sum(values) / len(values))
        assert aggregate_field(docs, "min", "v") == min(values)
        assert aggregate_field(docs, "max", "v") == max(values)

    @given(st.lists(st.integers(0, 20), max_size=30))
    def test_sort_is_ordered_and_total(self, values):
        docs = [Document(properties={"v": v}) for v in values]
        ordered = sort_documents(docs, "v")
        assert len(ordered) == len(docs)
        numbers = [d.properties["v"] for d in ordered]
        assert numbers == sorted(values)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
    def test_top_k_counts_exact(self, values):
        docs = [Document(properties={"g": v}) for v in values]
        (winner, count), *_ = top_k_values(docs, "g", k=1)
        assert count == max(values.count(x) for x in set(values))
        assert values.count(winner) == count


# ----------------------------------------------------------------------
# Execution engine
# ----------------------------------------------------------------------


class TestExecutionProperties:
    @given(st.lists(st.integers(-100, 100), max_size=50), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_parallel_equals_serial(self, items, workers):
        plan = Plan.from_items(items).map(lambda x: x * 2).filter(lambda x: x % 3 != 0)
        serial = Executor(parallelism=1).take_all(plan)
        parallel = Executor(parallelism=workers).take_all(plan)
        assert serial == parallel

    @given(st.lists(st.integers(), max_size=30))
    def test_count_equals_len(self, items):
        plan = Plan.from_items(items)
        assert Executor().count(plan) == len(items)


# ----------------------------------------------------------------------
# Index invariants
# ----------------------------------------------------------------------

words = st.text(alphabet="abcdefg ", min_size=1, max_size=30).filter(str.strip)


class TestIndexProperties:
    @given(st.dictionaries(st.uuids().map(str), words, min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_bm25_results_only_contain_matching_docs(self, corpus):
        index = KeywordIndex()
        for doc_id, text in corpus.items():
            index.add(doc_id, text)
        query_word = next(iter(corpus.values())).split()[0]
        for hit in index.search(query_word, k=20):
            assert query_word in corpus[hit.doc_id].split()

    @given(st.lists(st.text(alphabet="abcdef gh", min_size=3, max_size=30), min_size=1, max_size=15, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_vector_self_retrieval(self, texts):
        embedder = HashingEmbedder(dimensions=64)
        index = VectorIndex(dimensions=64)
        for i, text in enumerate(texts):
            index.add(str(i), embedder.embed(text))
        # searching for an indexed text must rank it first (or tie).
        target = texts[0]
        hits = index.search(embedder.embed(target), k=len(texts))
        top_score = hits[0].score
        target_score = next(h.score for h in hits if h.doc_id == "0")
        assert target_score == pytest.approx(top_score, abs=1e-9) or target_score <= top_score

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8))
    def test_vector_scores_bounded(self, vector):
        index = VectorIndex(dimensions=8)
        index.add("a", [1, 0, 0, 0, 0, 0, 0, 0])
        for hit in index.search(vector, k=1):
            assert -1.0 - 1e-9 <= hit.score <= 1.0 + 1e-9
