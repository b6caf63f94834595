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
from repro.llm import ReliableLLM, SimulatedLLM
from repro.luna import (
    LogicalPlan,
    LunaExecutor,
    MathEvaluationError,
    PlanExecutionError,
    PlanValidationError,
    evaluate,
    referenced_nodes,
)
from repro.luna.lowering import Scope, lower
from repro.partitioner import ArynPartitioner
from repro.runtime import Priority
from repro.sycamore import SycamoreContext, aggregates
from repro.sycamore.aggregates import aggregate_field, sort_documents, top_k_values
from repro.sycamore.llm_transforms import (
    make_cascade_extract_fn,
    make_cascade_filter_fn,
    make_extract_properties_fn,
    make_llm_filter_fn,
    summarize_collection,
)

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

    @given(
        json_values,
        st.integers(0, 100),
        st.sampled_from(["{}", "```json\n{}\n```", "Sure: {} ok?", "```\n{}", "{},", "[{},]"]),
    )
    def test_lazy_candidates_repair_like_the_eager_list(self, value, cut_percent, frame):
        """``repair_json`` used to build every candidate before parsing any."""
        import re
        from repro.llm.client import _close_brackets

        def eager(text):
            candidates = [text]
            fenced = re.search(r"```(?:json)?\s*(.*?)```", text, re.DOTALL)
            if fenced:
                candidates.append(fenced.group(1))
            for opener, closer in (("{", "}"), ("[", "]")):
                start = text.find(opener)
                end = text.rfind(closer)
                if start != -1 and end > start:
                    candidates.append(text[start : end + 1])
                if start != -1:
                    candidates.append(_close_brackets(text[start:]))
            for candidate in candidates:
                for attempt in (candidate, re.sub(r",\s*([}\]])", r"\1", candidate)):
                    try:
                        return json.loads(attempt)
                    except (json.JSONDecodeError, ValueError):
                        continue
            return MalformedOutputError

        serialized = json.dumps(value)
        text = frame.replace("{}", serialized[: len(serialized) * cut_percent // 100])
        try:
            repaired = repair_json(text)
        except MalformedOutputError:
            repaired = MalformedOutputError
        assert repaired == eager(text)


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


# ----------------------------------------------------------------------
# Luna plan execution vs the per-operator interpreter it replaced
# ----------------------------------------------------------------------


class ReferenceInterpreter:
    """The ``_op_*`` handlers ``LunaExecutor`` had before every operator
    was lowered through ``repro.luna.lowering.LOWERING``, kept as the
    reference the walker is compared against. Runs on one thread and
    counts a node's LLM calls off the backend's own call counter."""

    def __init__(self, context, backend):
        self.context = context
        self.backend = backend

    def run(self, plan):
        """Per node: (records_in, records_out, llm_calls, document_ids, output)."""
        results, rows = {}, []
        for index, node in enumerate(plan.nodes):
            inputs = [results[i] for i in node.inputs]
            calls_before = self.backend.calls
            output = getattr(self, f"_op_{node.operation.lower()}")(node, inputs, results)
            results[index] = output
            rows.append(
                (
                    (len(inputs[0]) if isinstance(inputs[0], list) else 1) if inputs else 0,
                    len(output) if isinstance(output, list) else 1,
                    self.backend.calls - calls_before,
                    self._document_ids(output),
                    output,
                )
            )
        return rows

    @staticmethod
    def _document_ids(value, cap=50):
        if isinstance(value, list) and value and isinstance(value[0], Document):
            return [d.doc_id for d in value[:cap]]
        return []

    def _run_docset_plan(self, plan):
        return self.context.executor(on_error=None).take_all(plan)

    @staticmethod
    def _require_documents(node, value):
        if isinstance(value, list) and all(isinstance(v, Document) for v in value):
            return value
        raise PlanValidationError(
            f"{node.operation} expects a document set input, got {type(value).__name__}"
        )

    @staticmethod
    def _comparator(op):
        comparators = {
            "eq": lambda a, b: a == b,
            "ne": lambda a, b: a != b,
            "lt": lambda a, b: a < b,
            "le": lambda a, b: a <= b,
            "gt": lambda a, b: a > b,
            "ge": lambda a, b: a >= b,
            "contains": lambda a, b: str(b).lower() in str(a).lower(),
        }
        if op not in comparators:
            raise PlanValidationError(f"unknown comparison operator {op!r}")
        return comparators[op]

    def _structured_filter(self, documents, field_name, op, value):
        get = aggregates.property_getter(field_name)
        compare = self._comparator(op)
        kept = []
        for document in documents:
            actual = get(document)
            if actual is None:
                continue
            try:
                if compare(actual, value):
                    kept.append(document)
            except TypeError:
                continue
        return kept

    def _op_queryindex(self, node, inputs, _):
        index = self.context.catalog.get(str(node.params["index"]))
        query = node.params.get("query")
        if query:
            return index.search_hybrid(str(query), k=int(node.params.get("k", 20)))
        documents = index.all_documents()
        filter_field = node.params.get("filter_field")
        if filter_field:
            return self._structured_filter(
                documents,
                str(filter_field),
                str(node.params.get("filter_op", "eq")),
                node.params.get("filter_value"),
            )
        return documents

    def _op_fromdocuments(self, node, inputs, _):
        index = self.context.catalog.get(str(node.params["index"]))
        return index.docstore.get_many([str(d) for d in node.params.get("doc_ids", [])])

    def _op_basicfilter(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        return self._structured_filter(
            documents, str(node.params["field"]), str(node.params["op"]), node.params["value"]
        )

    def _op_llmfilter(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        cascade = node.params.get("cascade")
        if isinstance(cascade, dict):
            predicate = make_cascade_filter_fn(
                self.context,
                condition=str(node.params["condition"]),
                verify_model=str(node.params.get("model") or self.context.default_model),
                draft_model=str(cascade.get("draft_model", "sim-small")),
                draft_votes=int(cascade.get("draft_votes", 2)),
                confidence_threshold=float(cascade.get("confidence_threshold", 0.75)),
                priority=Priority.INTERACTIVE,
            )
            return self._run_docset_plan(Plan.from_items(documents).filter(predicate))
        predicate = make_llm_filter_fn(
            self.context,
            condition=str(node.params["condition"]),
            model=node.params.get("model"),
            priority=Priority.INTERACTIVE,
        )
        return self._run_docset_plan(Plan.from_items(documents).filter(predicate))

    def _op_llmextract(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        schema = {str(node.params["field"]): str(node.params.get("type", "string"))}
        cascade = node.params.get("cascade")
        if isinstance(cascade, dict):
            fn = make_cascade_extract_fn(
                self.context,
                schema,
                verify_model=str(node.params.get("model") or self.context.default_model),
                draft_model=str(cascade.get("draft_model", "sim-small")),
                confidence_threshold=float(cascade.get("confidence_threshold", 0.75)),
                priority=Priority.INTERACTIVE,
            )
            return self._run_docset_plan(Plan.from_items(documents).map(fn))
        fn = make_extract_properties_fn(
            self.context, schema, model=node.params.get("model"), priority=Priority.INTERACTIVE
        )
        return self._run_docset_plan(Plan.from_items(documents).map(fn))

    def _op_count(self, node, inputs, _):
        return len(self._require_documents(node, inputs[0]))

    def _op_aggregate(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        func, field_name = str(node.params["func"]), str(node.params["field"])
        group_by = node.params.get("group_by")
        if group_by:
            return aggregates.grouped_aggregate(documents, func, field_name, str(group_by))
        return aggregates.aggregate_field(documents, func, field_name)

    def _op_topk(self, node, inputs, _):
        return aggregates.top_k_values(
            self._require_documents(node, inputs[0]),
            str(node.params["field"]),
            k=int(node.params.get("k", 1)),
            descending=bool(node.params.get("descending", True)),
        )

    def _op_sort(self, node, inputs, _):
        return aggregates.sort_documents(
            self._require_documents(node, inputs[0]),
            str(node.params["field"]),
            descending=bool(node.params.get("descending", False)),
        )

    def _op_limit(self, node, inputs, _):
        return self._require_documents(node, inputs[0])[: int(node.params["k"])]

    def _op_distinct(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        get = aggregates.property_getter(str(node.params["field"]))
        seen = set()
        kept = []
        for document in documents:
            value = get(document)
            try:
                key = value if not isinstance(value, list) else tuple(value)
                hash(key)
            except TypeError:
                key = str(value)
            if key in seen:
                continue
            seen.add(key)
            kept.append(document)
        return kept

    def _op_project(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        fields = node.params["fields"]
        if isinstance(fields, str):
            fields = [fields]
        getters = [aggregates.property_getter(str(f)) for f in fields]
        if len(getters) == 1:
            return [getters[0](d) for d in documents]
        return [tuple(get(d) for get in getters) for d in documents]

    def _op_join(self, node, inputs, _):
        return aggregates.hash_join(
            self._require_documents(node, inputs[0]),
            self._require_documents(node, inputs[1]),
            str(node.params["left_on"]),
            str(node.params["right_on"]),
            how=str(node.params.get("how", "inner")),
        )

    def _op_math(self, node, inputs, results):
        expression = str(node.params["expression"])
        values = {}
        for reference in referenced_nodes(expression):
            if reference not in results:
                raise MathEvaluationError(
                    f"expression references unevaluated node #{reference}"
                )
            value = results[reference]
            if not isinstance(value, (int, float)):
                raise MathEvaluationError(f"node result {value!r} is not numeric")
            values[reference] = float(value)
        return evaluate(expression, values)

    def _op_summarize(self, node, inputs, _):
        documents = self._require_documents(node, inputs[0])
        if not documents:
            return "No matching records."
        return summarize_collection(
            self.context,
            documents,
            model=node.params.get("model"),
            question=node.params.get("question"),
            priority=Priority.INTERACTIVE,
        )

    def _op_identity(self, node, inputs, _):
        return inputs[0]


#: A small corpus with every awkwardness the operators must tolerate:
#: missing values, a field whose type varies (comparing or sorting it
#: raises TypeError), a list-valued field, a nested one.
LUNA_CORPUS = [
    ("gusty crosswind during the landing flare", {"state": "AK", "year": 2021, "n": 3, "tags": ["wind", "landing"], "meta": {"pages": 4}}),
    ("engine failure shortly after takeoff", {"state": "TX", "year": 2022, "n": "three", "tags": ["engine"], "meta": {"pages": 9}}),
    ("severe airframe icing in cruise", {"state": "AK", "year": 2022, "n": 7.5, "tags": ["wind", "landing"]}),
    ("wind shear on short final", {"state": None, "year": 2023, "n": None, "tags": [], "meta": {"pages": 4}}),
    ("fuel exhaustion over open water", {"year": 2021, "n": 3, "tags": [["nested"], "x"]}),
    ("bird strike on the initial climb", {"state": "ak", "year": 2023, "n": True, "tags": "engine"}),
    ("runway excursion in a strong crosswind", {"state": "TX", "year": 2020, "n": -2}),
]
LUNA_FIELDS = ["state", "year", "n", "tags", "meta.pages", "absent"]
LUNA_VALUES = ["AK", "a", 2022, 3, 7.5, True, None, "three", ["wind", "landing"]]

luna_fields = st.sampled_from(LUNA_FIELDS)
basic_filter_steps = st.builds(
    lambda f, op, v: {"operation": "BasicFilter", "field": f, "op": op, "value": v},
    luna_fields,
    st.sampled_from(sorted(aggregates.COMPARATORS)),
    st.sampled_from(LUNA_VALUES),
)
record_steps = st.one_of(
    basic_filter_steps,
    st.builds(
        lambda f, d: {"operation": "Sort", "field": f, "descending": d},
        luna_fields,
        st.booleans(),
    ),
    st.builds(lambda k: {"operation": "Limit", "k": k}, st.integers(1, len(LUNA_CORPUS) + 3)),
    st.builds(lambda f: {"operation": "Distinct", "field": f}, luna_fields),
    st.just({"operation": "Identity"}),
)
terminal_steps = st.one_of(
    st.just({"operation": "Count"}),
    st.builds(
        lambda func, f, g: {"operation": "Aggregate", "func": func, "field": f, "group_by": g},
        st.sampled_from(aggregates.AGG_FUNCS),
        luna_fields,
        st.none() | luna_fields,
    ),
    st.builds(
        lambda f, k, d: {"operation": "TopK", "field": f, "k": k, "descending": d},
        luna_fields,
        st.integers(1, 4),
        st.booleans(),
    ),
    st.builds(
        lambda fs: {"operation": "Project", "fields": fs},
        st.lists(luna_fields, min_size=1, max_size=3),
    ),
    st.just({"operation": "Summarize", "model": "sim-oracle"}),
)
scans = st.one_of(
    st.just({"operation": "QueryIndex", "index": "luna"}),
    st.builds(
        lambda q, k: {"operation": "QueryIndex", "index": "luna", "query": q, "k": k},
        st.sampled_from(["crosswind landing", "engine"]),
        st.integers(1, 9),
    ),
    st.builds(
        lambda f, op, v: {
            "operation": "QueryIndex", "index": "luna",
            "filter_field": f, "filter_op": op, "filter_value": v,
        },
        luna_fields,
        st.sampled_from(sorted(aggregates.COMPARATORS)),
        st.sampled_from(LUNA_VALUES),
    ),
)


@st.composite
def luna_plans(draw, record_steps=record_steps, trunk=None):
    """A scan, a chain of record operators, then either one terminal
    (linear) or two counted branches off the chain joined by a Math node,
    or a Join of the chain with a second scan (fan-out). ``record_steps``
    lets a test mix its own operators into the chains, ``trunk`` (a
    strategy for a list of steps) shape the first chain."""
    nodes = [dict(draw(scans), inputs=[])]

    def chain(source, steps):
        for step in steps:
            nodes.append(dict(step, inputs=[source]))
            source = len(nodes) - 1
        return source

    if trunk is None:
        trunk = st.lists(record_steps, max_size=3)
    trunk = chain(0, draw(trunk))
    shape = draw(st.sampled_from(["linear", "linear", "math", "join"]))
    if shape == "linear":
        chain(trunk, draw(st.lists(terminal_steps, max_size=1)))
    elif shape == "math":
        counts = []
        for _ in range(2):
            branch = chain(trunk, draw(st.lists(record_steps, max_size=2)))
            counts.append(chain(branch, [{"operation": "Count"}]))
        expression = draw(st.sampled_from(["100 * #{1} / #{0}", "#{0} - #{1}", "#{0} * 2"]))
        nodes.append(
            {"operation": "Math", "inputs": counts, "expression": expression.format(*counts)}
        )
    else:
        nodes.append(dict(draw(scans), inputs=[]))
        nodes.append(
            {
                "operation": "Join",
                "inputs": [trunk, len(nodes) - 1],
                "left_on": draw(luna_fields),
                "right_on": draw(luna_fields),
                "how": draw(st.sampled_from(["inner", "left"])),
            }
        )
        chain(len(nodes) - 1, draw(st.lists(terminal_steps, max_size=1)))
    return LogicalPlan.from_json(nodes)


@functools.lru_cache(maxsize=None)
def _luna_context():
    backend = SimulatedLLM(seed=0)
    context = SycamoreContext(llm=ReliableLLM(backend, cache_enabled=False), parallelism=1)
    context.catalog.create("luna").add_documents(
        [
            Document(doc_id=f"luna-{i}", text=text, properties=dict(properties))
            for i, (text, properties) in enumerate(LUNA_CORPUS)
        ]
    )
    return context, backend


def _comparable(value):
    if isinstance(value, list) and value and isinstance(value[0], Document):
        return [document.to_dict() for document in value]
    return value


def assert_walker_matches_reference(plan):
    context, backend = _luna_context()
    try:
        expected = ReferenceInterpreter(context, backend).run(plan)
    except Exception as exc:  # noqa: BLE001 - the walker must fail the same way
        with pytest.raises(type(exc) if isinstance(exc, TypeError) else PlanExecutionError) as caught:
            LunaExecutor(context).execute(plan)
        assert str(exc) in str(caught.value)
        return
    answer, trace = LunaExecutor(context).execute(plan)
    assert _comparable(answer) == _comparable(expected[-1][-1])
    actual = [
        (e.records_in, e.records_out, e.llm_calls, e.document_ids) for e in trace.entries
    ]
    assert actual == [row[:4] for row in expected]


class TestLunaWalkerMatchesReferenceInterpreter:
    @given(luna_plans())
    @settings(max_examples=150, deadline=None)
    def test_generated_plans(self, plan):
        assert_walker_matches_reference(plan)

    @pytest.mark.parametrize("cascade", [None, {"draft_model": "sim-small", "draft_votes": 3, "confidence_threshold": 0.9}, {"confidence_threshold": 2}])
    def test_llm_operators_and_cascades(self, cascade):
        annotate = {} if cascade is None else {"cascade": cascade}
        assert_walker_matches_reference(
            LogicalPlan.from_json(
                [
                    {"operation": "QueryIndex", "inputs": [], "index": "luna"},
                    {"operation": "LlmFilter", "inputs": [0], "model": "sim-oracle",
                     "condition": "caused by wind", **annotate},
                    {"operation": "Count", "inputs": [1]},
                    {"operation": "LlmExtract", "inputs": [0], "model": "sim-oracle",
                     "field": "weather_related", "type": "bool", **annotate},
                    {"operation": "BasicFilter", "inputs": [3], "field": "weather_related",
                     "op": "eq", "value": True},
                    {"operation": "Count", "inputs": [4]},
                    {"operation": "Math", "inputs": [2, 5], "expression": "#2 + #5"},
                ]
            )
        )

    def test_follow_up_source(self):
        assert_walker_matches_reference(
            LogicalPlan.from_json(
                [
                    {"operation": "FromDocuments", "inputs": [], "index": "luna",
                     "doc_ids": ["luna-4", "luna-0", "luna-missing"]},
                    {"operation": "Project", "inputs": [0], "fields": ["year"]},
                ]
            )
        )

    @pytest.mark.parametrize("k", [0, len(LUNA_CORPUS) + 5])
    def test_limit_at_the_edges(self, k):
        # plancheck rejects k < 1 before execution, so compare the
        # operator itself: its lowering against the old handler.
        context, backend = _luna_context()
        documents = context.catalog.get("luna").all_documents()
        node = LogicalPlan.from_json([{"operation": "Limit", "inputs": [0], "k": k}]).nodes[0]
        lowered = lower("Limit", node.params, Scope(context), [context.read.documents(documents)])
        assert lowered.take_all() == ReferenceInterpreter(context, backend)._op_limit(
            node, [documents], {}
        )
