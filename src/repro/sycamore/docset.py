"""DocSet: the reliable distributed collection at the core of Sycamore.

"DocSets are reliable distributed collections, similar to Spark
DataFrames, but the elements are hierarchical documents represented with
semantic trees and additional metadata" (§3). A DocSet wraps a lazy
execution plan over :class:`~repro.docmodel.document.Document` records;
transforms compose new plans, and terminal operations (count, take,
write) trigger execution on the context's executor.

The transform catalogue follows the paper's Table 1:

=============  ==================================================
Core           ``map``, ``filter``, ``flat_map``
Structural     ``partition``, ``explode``, ``merge_elements``
Analytic       ``reduce_by_key``, ``sort``, ``top_k``, ``aggregate``,
               ``filter_by_property``, ``join``
LLM-powered    ``llm_query``, ``llm_filter``, ``extract_properties``,
               ``summarize``, ``classify``, ``embed``
=============  ==================================================
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..docmodel.document import Document, Node
from ..docmodel.elements import Element
from ..execution.executor import ExecutionStats
from ..execution.materialize import DiskCache, MemoryCache
from ..execution.plan import Plan
from ..llm.prompts import PromptTemplate
from . import aggregates, llm_transforms
from .context import SycamoreContext


class DocSet:
    """A lazy collection of documents bound to a context."""

    def __init__(self, context: SycamoreContext, plan: Plan):
        self.context = context
        self.plan = plan

    @classmethod
    def from_documents(cls, context: SycamoreContext, documents: Sequence[Document]) -> "DocSet":
        """DocSet over an in-memory document list."""
        return cls(context, Plan.from_items(documents, name="read_documents"))

    # ------------------------------------------------------------------
    # Core functional transforms
    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Document], Document],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Apply an arbitrary per-document UDF.

        ``on_error`` sets this transform's failure-containment policy
        (``fail`` | ``skip`` | ``dead_letter``); the default
        defers to the context.
        """
        return DocSet(self.context, self.plan.map(fn, name=name, on_error=on_error))

    def filter(
        self,
        fn: Callable[[Document], bool],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Keep documents satisfying an arbitrary predicate UDF."""
        return DocSet(self.context, self.plan.filter(fn, name=name, on_error=on_error))

    def flat_map(
        self,
        fn: Callable[[Document], Iterable[Document]],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Map each document to zero or more documents."""
        return DocSet(self.context, self.plan.flat_map(fn, name=name, on_error=on_error))

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------

    def partition(self, partitioner: Any, name: str = "partition") -> "DocSet":
        """Parse raw binary documents into semantic trees (§4, Fig. 3).

        ``partitioner`` is any object with ``partition(document) ->
        Document`` (e.g. :class:`repro.partitioner.ArynPartitioner`).
        """
        return self.map(partitioner.partition, name=name)

    def explode(self, name: str = "explode") -> "DocSet":
        """One document per leaf element (chunk preparation, §5.2).

        Child documents inherit the parent's properties, carry the element
        text as their text, and record ``parent_id`` for lineage.
        """

        def explode_document(document: Document) -> List[Document]:
            children = []
            for position, element in enumerate(document.elements):
                child = Document(
                    text=element.text_representation(),
                    parent_id=document.doc_id,
                    properties=dict(document.properties),
                )
                child.properties.update(
                    {
                        "element_type": element.type,
                        "element_index": position,
                        "page": element.page,
                    }
                )
                child.root = Node(label="chunk", children=[element.copy()])
                children.append(child)
            return children

        return self.flat_map(explode_document, name=name)

    def map_elements(
        self, fn: Callable[[Element], Element], name: str = "map_elements"
    ) -> "DocSet":
        """Apply a UDF to every leaf element, preserving tree structure."""

        def apply(document: Document) -> Document:
            result = document.copy()
            _rewrite_elements(result.root, fn)
            return result

        return self.map(apply, name=name)

    def filter_elements(
        self, predicate: Callable[[Element], bool], name: str = "filter_elements"
    ) -> "DocSet":
        """Drop leaf elements failing the predicate (e.g. page furniture)."""

        def apply(document: Document) -> Document:
            result = document.copy()
            _prune_elements(result.root, predicate)
            return result

        return self.map(apply, name=name)

    def flatten_properties(self, separator: str = ".") -> "DocSet":
        """Flatten nested property objects into dotted keys (Table 1 'flatten').

        ``{"meta": {"year": 2023}}`` becomes ``{"meta.year": 2023}`` so
        analytic transforms and index schemas can address nested fields
        directly.
        """

        def apply(document: Document) -> Document:
            result = document.copy()
            result.properties = _flatten(result.properties, separator)
            return result

        return self.map(apply, name="flatten_properties")

    def merge_elements(
        self,
        should_merge: Callable[[Element, Element], bool],
        name: str = "merge_elements",
    ) -> "DocSet":
        """Coalesce adjacent leaf elements when ``should_merge`` approves.

        Used to stitch fragmented text regions back together before
        chunking (a structural transform in the sense of Table 1).
        """

        def merge(document: Document) -> Document:
            result = document.copy()
            merged: List[Element] = []
            for element in result.elements:
                if merged and should_merge(merged[-1], element):
                    merged[-1] = merged[-1].copy()
                    merged[-1].text = f"{merged[-1].text}\n{element.text}"
                else:
                    merged.append(element)
            result.root = Node(label="document", children=merged)
            return result

        return self.map(merge, name=name)

    # ------------------------------------------------------------------
    # Analytic transforms (property-oriented; missing values tolerated)
    # ------------------------------------------------------------------

    def filter_by_property(
        self, field: str, op: str, value: Any, name: Optional[str] = None
    ) -> "DocSet":
        """Structured filter on a property; missing values never match."""
        predicate = aggregates.property_predicate(field, op, value)
        return DocSet(
            self.context,
            self.plan.filter(predicate, name=name or f"filter_{field}_{op}", inline=True),
        )

    def _barrier(self, name: str, fn: Callable[..., List[Document]], *args: Any) -> "DocSet":
        """A collection transform: ``fn(documents, *args)`` sees the whole input."""
        return DocSet(
            self.context, self.plan.aggregate(lambda docs: fn(docs, *args), name=name)
        )

    def sort(self, field: str, descending: bool = False) -> "DocSet":
        """Sort by property (barrier); missing values sort last."""
        return self._barrier(f"sort_{field}", aggregates.sort_documents, field, descending)

    def limit(self, k: int) -> "DocSet":
        """Keep the first ``k`` documents."""
        if k < 0:
            raise ValueError("limit must be non-negative")
        return self._barrier(f"limit_{k}", lambda docs: docs[:k])

    def reduce_by_key(
        self,
        key: Union[str, Callable[[Document], Any]],
        reduce_fn: Callable[[List[Document]], Any],
    ) -> "DocSet":
        """Group-and-reduce (Table 1); result docs have ``key``/``value``."""
        key_fn = aggregates.property_getter(key) if isinstance(key, str) else key
        return self._barrier("reduce_by_key", aggregates.reduce_by_key, key_fn, reduce_fn)

    def distinct(self, field: str) -> "DocSet":
        """Keep the first document per distinct value of a property."""
        return self._barrier(f"distinct_{field}", aggregates.distinct_documents, field)

    def join(
        self, other: "DocSet", left_on: str, right_on: str, how: str = "inner"
    ) -> "DocSet":
        """Property-equality join with another DocSet (barrier on both sides)."""
        return self._barrier(
            f"join_{left_on}_{right_on}",
            aggregates.hash_join,
            other.take_all(),
            left_on,
            right_on,
            how,
        )

    # ------------------------------------------------------------------
    # LLM-powered transforms
    # ------------------------------------------------------------------

    def llm_query(
        self,
        prompt: "PromptTemplate | str",
        output_property: str,
        model: Optional[str] = None,
        num_elements: Optional[int] = None,
        parse_json: bool = False,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Run a prompt against each document, storing the output (§5.2)."""
        fn = llm_transforms.make_llm_query_fn(
            self.context, prompt, output_property, model, num_elements, parse_json
        )
        return self.map(fn, name=f"llm_query_{output_property}", on_error=on_error)

    def extract_properties(
        self,
        schema: Dict[str, str],
        model: Optional[str] = None,
        num_elements: Optional[int] = None,
        on_error: Optional[str] = None,
        cascade: Optional[Dict[str, Any]] = None,
    ) -> "DocSet":
        """Extract schema fields from each document into properties (Fig. 3).

        ``cascade`` (``draft_model``, ``confidence_threshold``) drafts on
        a cheap model and re-extracts on ``model`` only where the draft
        left a field empty; see :func:`make_cascade_extract_fn`.
        """
        if cascade is None:
            fn = llm_transforms.make_extract_properties_fn(
                self.context, schema, model, num_elements
            )
        else:
            fn = llm_transforms.make_cascade_extract_fn(
                self.context,
                schema,
                verify_model=model or self.context.default_model,
                num_elements=num_elements,
                **_given(cascade, "draft_model", "confidence_threshold"),
            )
        return self.map(fn, name="extract_properties", on_error=on_error)

    def llm_filter(
        self,
        condition: str,
        model: Optional[str] = None,
        num_elements: Optional[int] = None,
        on_error: Optional[str] = None,
        cascade: Optional[Dict[str, Any]] = None,
    ) -> "DocSet":
        """Keep documents satisfying a natural-language condition.

        ``cascade`` (``draft_model``, ``draft_votes``,
        ``confidence_threshold``) judges each document on a cheap model
        first and asks ``model`` only where the draft votes disagree; see
        :func:`make_cascade_filter_fn`.
        """
        if cascade is None:
            fn = llm_transforms.make_llm_filter_fn(
                self.context, condition, model, num_elements
            )
        else:
            fn = llm_transforms.make_cascade_filter_fn(
                self.context,
                condition,
                verify_model=model or self.context.default_model,
                num_elements=num_elements,
                **_given(cascade, "draft_model", "draft_votes", "confidence_threshold"),
            )
        return self.filter(fn, name="llm_filter", on_error=on_error)

    def summarize(
        self,
        output_property: str = "summary",
        model: Optional[str] = None,
        max_sentences: int = 3,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Per-document summary into a property."""
        fn = llm_transforms.make_summarize_fn(
            self.context, output_property, model, max_sentences
        )
        return self.map(fn, name="summarize", on_error=on_error)

    def classify(
        self,
        categories: Sequence[str],
        output_property: str,
        model: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Assign each document one of ``categories``."""
        fn = llm_transforms.make_classify_fn(self.context, categories, output_property, model)
        return self.map(fn, name=f"classify_{output_property}", on_error=on_error)

    def extract_entities(
        self,
        output_property: str = "entities",
        model: Optional[str] = None,
        num_elements: Optional[int] = None,
        on_error: Optional[str] = None,
    ) -> "DocSet":
        """Extract entity/relation triples into a property (§7)."""
        fn = llm_transforms.make_extract_entities_fn(
            self.context, output_property, model, num_elements
        )
        return self.map(fn, name="extract_entities", on_error=on_error)

    def embed(self, on_error: Optional[str] = None) -> "DocSet":
        """Attach an embedding vector property to each document (Fig. 3)."""
        return self.map(
            llm_transforms.make_embed_fn(self.context), name="embed", on_error=on_error
        )

    # ------------------------------------------------------------------
    # Materialization and terminals
    # ------------------------------------------------------------------

    def materialize(self, path: Optional[Path] = None) -> "DocSet":
        """Cache boundary: to memory, or to disk when ``path`` is given (§5.3).

        Disk materializations are stamped with the upstream plan's
        structural fingerprint, so a cache file left by a *different*
        pipeline is recomputed instead of served stale.
        """
        if path is not None:
            from ..execution.materialize import plan_fingerprint

            cache: Any = DiskCache(path, fingerprint=plan_fingerprint(self.plan))
        else:
            cache = MemoryCache()
        return DocSet(self.context, self.plan.materialize(cache))

    def execute(
        self, on_error: Optional[str] = None, limit: Optional[int] = None
    ) -> Tuple[List[Document], ExecutionStats]:
        """Run the plan: (up to ``limit`` documents, the run's stats).

        The one run path: every terminal below, each Luna plan node and
        each cluster shard goes through it. ``on_error`` overrides the
        context's failure-containment policy for this run.
        """
        return self._run(lambda records: list(islice(records, limit)), on_error)

    def _run(
        self, consume: Callable[[Iterable[Document]], Any], on_error: Optional[str] = None
    ) -> Tuple[Any, ExecutionStats]:
        executor = self.context.executor(on_error=on_error)
        consumed = consume(executor.execute(self.plan))
        self.context.last_stats = executor.last_stats
        return consumed, executor.last_stats

    def take_all(self) -> List[Document]:
        """Execute the plan and collect every document."""
        return self.execute()[0]

    def take(self, k: int) -> List[Document]:
        """Execute and collect up to k output documents."""
        return self.execute(limit=k)[0]

    def first(self) -> Optional[Document]:
        """The first output document, or None."""
        taken = self.take(1)
        return taken[0] if taken else None

    def count(self) -> int:
        """Execute and count the documents (streamed, never collected)."""
        return self._run(lambda records: sum(1 for _ in records))[0]

    def project(self, fields: "str | Sequence[str]") -> List[Any]:
        """Values of the named properties, per document (terminal).

        One field yields a flat list; several yield tuples.
        """
        return aggregates.project_fields(self.take_all(), fields)

    def top_k(self, field: str, k: int = 1, descending: bool = True) -> List[tuple]:
        """(value, count) pairs of the most/least frequent property values."""
        return aggregates.top_k_values(self.take_all(), field, k, descending)

    def aggregate(
        self, func: str, field: str, group_by: Optional[str] = None
    ) -> Union[Optional[float], Dict[Any, Optional[float]]]:
        """Numeric aggregate over a property, optionally grouped."""
        documents = self.take_all()
        if not group_by:
            return aggregates.aggregate_field(documents, func, field)
        return aggregates.grouped_aggregate(documents, func, field, group_by)

    def summarize_all(
        self,
        model: Optional[str] = None,
        question: Optional[str] = None,
    ) -> str:
        """Collection-level synthesis (terminal)."""
        return llm_transforms.summarize_collection(
            self.context, self.take_all(), model=model, question=question
        )

    def explain(self) -> str:
        """Render the logical plan (the user-facing debugging view)."""
        return self.plan.explain()

    # ------------------------------------------------------------------

    @property
    def write(self) -> "DocSetWriter":
        """The terminal-sink namespace for this DocSet."""
        return DocSetWriter(self)


def _given(options: Dict[str, Any], *names: str) -> Dict[str, Any]:
    """The named entries that are present; absent ones keep the callee's default."""
    return {name: options[name] for name in names if name in options}


def _rewrite_elements(node: Optional[Node], fn: Callable[[Element], Element]) -> None:
    if node is None:
        return
    for position, child in enumerate(node.children):
        if isinstance(child, Node):
            _rewrite_elements(child, fn)
        else:
            node.children[position] = fn(child)


def _prune_elements(node: Optional[Node], predicate: Callable[[Element], bool]) -> None:
    if node is None:
        return
    kept = []
    for child in node.children:
        if isinstance(child, Node):
            _prune_elements(child, predicate)
            kept.append(child)
        elif predicate(child):
            kept.append(child)
    node.children[:] = kept


def _flatten(properties: Dict[str, Any], separator: str) -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in properties.items():
        if isinstance(value, dict) and value:
            for sub_key, sub_value in _flatten(value, separator).items():
                flat[f"{key}{separator}{sub_key}"] = sub_value
        else:
            flat[key] = value
    return flat


class DocSetWriter:
    """The ``docset.write`` namespace: terminal sinks."""

    def __init__(self, docset: DocSet):
        self._docset = docset

    def index(self, name: str, create: bool = True) -> int:
        """Write into a named catalog index (docstore + keyword + vector).

        Returns the number of documents written. The index schema is
        refreshed from the written documents' properties, which is how
        Luna's planner learns what fields exist.
        """
        context = self._docset.context
        if create:
            index = context.catalog.create(name, exist_ok=True)
        else:
            index = context.catalog.get(name)
        documents = self._docset.take_all()
        index.add_documents(documents)
        return len(documents)

    def docstore(self, store: Any) -> int:
        """Write every document into the given DocStore."""
        documents = self._docset.take_all()
        store.put_many(documents)
        return len(documents)

    def jsonl(self, path: Path) -> int:
        """Read/write documents as JSON lines at the path."""
        documents = self._docset.take_all()
        with open(path, "w", encoding="utf-8") as handle:
            for document in documents:
                handle.write(document.to_json())
                handle.write("\n")
        return len(documents)

    def knowledge_graph(
        self,
        store: Any,
        model: Optional[str] = None,
        triples_property: str = "entities",
    ) -> int:
        """Extract entities with an LLM and assert them into a graph (§7).

        Documents that already carry extracted triples (in
        ``triples_property``) are used as-is; others go through the
        ``extract_entities`` transform first. Every triple is asserted
        with the source document id as provenance — the audit trail the
        paper's accuracy tenet demands. Returns the number of triples
        written.
        """
        documents = self._docset.take_all()
        context = self._docset.context
        fn = llm_transforms.make_extract_entities_fn(
            context, output_property=triples_property, model=model
        )
        written = 0
        for document in documents:
            triples = document.properties.get(triples_property)
            if triples is None:
                triples = fn(document).properties[triples_property]
            for triple in triples:
                store.add_triple(
                    triple["subject"],
                    triple["predicate"],
                    triple["object"],
                    source_doc_id=document.doc_id,
                )
                written += 1
        return written

    def graph(
        self,
        store: Any,
        subject_property: str,
        edges: Sequence[tuple],
    ) -> int:
        """Project properties into a knowledge graph (pay-as-you-go, §7).

        ``edges`` is a sequence of (predicate, object_property) pairs; for
        each document a triple (subject, predicate, object_value) is
        asserted with the document as provenance.
        """
        documents = self._docset.take_all()
        get_subject = aggregates.property_getter(subject_property)
        written = 0
        for document in documents:
            subject = get_subject(document)
            if subject is None:
                continue
            for predicate, object_property in edges:
                value = aggregates.property_getter(object_property)(document)
                if value is None:
                    continue
                store.add_triple(
                    str(subject), predicate, str(value), source_doc_id=document.doc_id
                )
                written += 1
        return written
