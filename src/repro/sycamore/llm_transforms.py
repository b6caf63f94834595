"""LLM-powered transform implementations for DocSets.

Per §5.2: "LLM-powered transforms are used to enrich Documents. The most
basic, llm_query, allows callers to specify a prompt that will be used to
process each document... The output is stored in a property of the input
document. Sycamore includes a number of more specific transforms like
extract_properties and summarize that leverage built-in prompts."

Each factory returns a per-document callable suitable for a plan ``map``
or ``filter`` node; prompt assembly, JSON parsing and retries all go
through the context's one reliability-wrapped client, ``context.llm``.

The static part of each prompt (instructions, schema, condition, ...) is
identical for every document, so a factory renders it once and appends
only the document section per call.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..docmodel.document import Document
from ..llm.prompts import (
    CLASSIFY_TEXT,
    EXTRACT_PROPERTIES,
    FILTER_DOCUMENT,
    PromptTemplate,
    SUMMARIZE_DOCUMENT,
    append_section,
    neutralize_markers,
    render_task_prompt,
)
from .context import SycamoreContext


def _document_text(document: Document, num_elements: Optional[int]) -> str:
    """The one door through which document text enters a prompt.

    Document bodies are untrusted: a line-initial <<SECTION:...>> in the
    text could inject its own prompt section (prompt-taint lint). A
    stored document keeps the neutralised full text on its sealed view,
    so it is computed once per stored version, not once per call.
    """
    sealed = document.sealed if num_elements is None else None
    if sealed is None:
        return neutralize_markers(
            document.text_representation(max_elements=num_elements)
        )
    if sealed.prompt_text is None:
        sealed.prompt_text = neutralize_markers(sealed.text)
    return sealed.prompt_text


def _template_prefix(template: PromptTemplate, **static: str) -> str:
    sections = {"instructions": template.instructions}
    sections.update(static)
    return render_task_prompt(template.task, sections)


def make_extract_properties_fn(
    context: SycamoreContext,
    schema: Dict[str, str],
    model: Optional[str] = None,
    num_elements: Optional[int] = None,
) -> Callable[[Document], Document]:
    """Per-document property extraction against a JSON schema (Fig. 3/4)."""
    schema_json = json.dumps(schema, sort_keys=True)
    model_name = model or context.default_model
    llm = context.llm
    prefix = _template_prefix(EXTRACT_PROPERTIES, schema=schema_json)

    def extract(document: Document) -> Document:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        values = llm.complete_json(prompt, model=model_name)
        result = document.copy()
        if isinstance(values, dict):
            for key in schema:
                result.properties[key] = values.get(key)
        return result

    return extract


def make_llm_query_fn(
    context: SycamoreContext,
    prompt: "PromptTemplate | str",
    output_property: str,
    model: Optional[str] = None,
    num_elements: Optional[int] = None,
    parse_json: bool = False,
) -> Callable[[Document], Document]:
    """The generic ``llm_query`` transform.

    ``prompt`` may be a :class:`PromptTemplate` (rendered with the
    document text) or a plain instruction string. Instruction strings may
    reference document properties with ``{property_name}`` placeholders,
    matching the paper's "parameterized by the content ... and/or the
    properties of the document".
    """
    model_name = model or context.default_model
    llm = context.llm
    if isinstance(prompt, PromptTemplate):
        missing = [name for name in prompt.required_fields if name != "document"]
        if missing:
            raise ValueError(f"missing prompt fields: {missing}")
        static_prefix: Optional[str] = _template_prefix(prompt)
    else:
        # A plain instruction string without placeholders is static too;
        # one with placeholders must be re-filled per document.
        has_placeholders = "{" in prompt
        static_prefix = (
            None
            if has_placeholders
            else render_task_prompt("llm_query", {"instructions": prompt})
        )

    def query(document: Document) -> Document:
        text = _document_text(document, num_elements)
        if static_prefix is not None:
            rendered = append_section(static_prefix, "document", text)
        else:
            instructions = _fill_placeholders(str(prompt), document.properties)
            rendered = render_task_prompt(
                "llm_query", {"instructions": instructions, "document": text}
            )
        result = document.copy()
        if parse_json:
            result.properties[output_property] = llm.complete_json(
                rendered, model=model_name
            )
        else:
            result.properties[output_property] = llm.complete(
                rendered, model=model_name
            ).text
        return result

    return query


def make_llm_filter_fn(
    context: SycamoreContext,
    condition: str,
    model: Optional[str] = None,
    num_elements: Optional[int] = None,
) -> Callable[[Document], bool]:
    """Semantic filter: keep documents satisfying a natural-language condition."""
    model_name = model or context.default_model
    llm = context.llm
    prefix = _template_prefix(FILTER_DOCUMENT, condition=condition)

    def predicate(document: Document) -> bool:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        answer = llm.complete(prompt, model=model_name).text
        return answer.strip().lower().startswith("y")

    return predicate


def make_cascade_filter_fn(
    context: SycamoreContext,
    condition: str,
    verify_model: str,
    draft_model: str = "sim-small",
    draft_votes: int = 2,
    confidence_threshold: float = 0.75,
    num_elements: Optional[int] = None,
) -> Callable[[Document], bool]:
    """Draft/verify semantic filter (the optimizer's predicate cascade).

    Each document is judged ``draft_votes`` times on the cheap
    ``draft_model``; the vote-agreement fraction is the confidence. Below
    ``confidence_threshold`` the document escalates to ``verify_model``
    with the *same* prompt a plain :func:`make_llm_filter_fn` would send —
    escalated rows therefore get exactly the answer the expensive filter
    would have produced. A threshold of 0 never escalates; above 1 every
    row escalates (the cascade degenerates to the plain filter plus draft
    overhead). Semantics and cost math: ``docs/OPTIMIZER.md``.
    """
    llm = context.llm
    prefix = _template_prefix(FILTER_DOCUMENT, condition=condition)
    votes = max(1, int(draft_votes))
    m_drafts = context.registry.counter("optimizer.cascade_drafts")
    m_escalations = context.registry.counter("optimizer.cascade_escalations")

    def predicate(document: Document) -> bool:
        base_prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        ballots = []
        for vote in range(votes):
            prompt = base_prompt
            if vote:
                # Re-votes append an instruction section; the condition and
                # document are untouched (same ground truth), but the
                # changed prompt decorrelates per-call model noise.
                prompt = append_section(
                    prompt, "recheck", f"Independent re-check #{vote}."
                )
            answer = llm.complete(prompt, model=draft_model).text
            ballots.append(answer.strip().lower().startswith("y"))
        m_drafts.inc(votes)
        agreement = max(ballots.count(True), ballots.count(False)) / votes
        if agreement < confidence_threshold or confidence_threshold > 1.0:
            m_escalations.inc()
            answer = llm.complete(base_prompt, model=verify_model).text
            return answer.strip().lower().startswith("y")
        return ballots.count(True) > ballots.count(False) or (
            ballots.count(True) == ballots.count(False) and ballots[0]
        )

    return predicate


def make_cascade_extract_fn(
    context: SycamoreContext,
    schema: Dict[str, str],
    verify_model: str,
    draft_model: str = "sim-small",
    confidence_threshold: float = 0.75,
    num_elements: Optional[int] = None,
) -> Callable[[Document], Document]:
    """Draft/verify property extraction (the optimizer's cascade).

    One draft extraction runs on ``draft_model``; its confidence is 1.0
    when every schema field came back non-null and 0.0 otherwise (a null
    is the model saying "I could not find it" — exactly the row worth the
    expensive retry). Low-confidence rows re-extract on ``verify_model``
    with the plain prompt. Threshold 0 never escalates; above 1 always.
    """
    schema_json = json.dumps(schema, sort_keys=True)
    llm = context.llm
    prefix = _template_prefix(EXTRACT_PROPERTIES, schema=schema_json)
    m_drafts = context.registry.counter("optimizer.cascade_drafts")
    m_escalations = context.registry.counter("optimizer.cascade_escalations")

    def extract(document: Document) -> Document:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        values = llm.complete_json(prompt, model=draft_model)
        m_drafts.inc()
        confident = isinstance(values, dict) and all(
            values.get(key) is not None for key in schema
        )
        confidence = 1.0 if confident else 0.0
        if confidence < confidence_threshold or confidence_threshold > 1.0:
            m_escalations.inc()
            values = llm.complete_json(prompt, model=verify_model)
        result = document.copy()
        if isinstance(values, dict):
            for key in schema:
                result.properties[key] = values.get(key)
        return result

    return extract


def make_summarize_fn(
    context: SycamoreContext,
    output_property: str = "summary",
    model: Optional[str] = None,
    max_sentences: int = 3,
    num_elements: Optional[int] = None,
) -> Callable[[Document], Document]:
    """Per-document summarization into a property."""
    model_name = model or context.default_model
    llm = context.llm
    prefix = _template_prefix(SUMMARIZE_DOCUMENT, max_sentences=str(max_sentences))

    def summarize(document: Document) -> Document:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        result = document.copy()
        result.properties[output_property] = llm.complete(
            prompt, model=model_name
        ).text
        return result

    return summarize


def make_classify_fn(
    context: SycamoreContext,
    categories: Sequence[str],
    output_property: str,
    model: Optional[str] = None,
    num_elements: Optional[int] = None,
) -> Callable[[Document], Document]:
    """Classify each document into one of ``categories``."""
    model_name = model or context.default_model
    llm = context.llm
    category_list = ", ".join(categories)
    prefix = _template_prefix(CLASSIFY_TEXT, categories=category_list)

    def classify(document: Document) -> Document:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        result = document.copy()
        answer = llm.complete(prompt, model=model_name).text.strip()
        result.properties[output_property] = answer if answer in categories else None
        return result

    return classify


def make_extract_entities_fn(
    context: SycamoreContext,
    output_property: str = "entities",
    model: Optional[str] = None,
    num_elements: Optional[int] = None,
) -> Callable[[Document], Document]:
    """Extract (subject, predicate, object) triples into a property.

    The first step of pay-as-you-go knowledge-graph construction (§7);
    ``DocSetWriter.knowledge_graph`` asserts the extracted triples into a
    graph store with document provenance.
    """
    from ..llm.prompts import EXTRACT_ENTITIES

    model_name = model or context.default_model
    llm = context.llm
    prefix = _template_prefix(EXTRACT_ENTITIES)

    def extract(document: Document) -> Document:
        prompt = append_section(
            prefix, "document", _document_text(document, num_elements)
        )
        payload = llm.complete_json(prompt, model=model_name)
        result = document.copy()
        triples = []
        if isinstance(payload, list):
            for item in payload:
                if (
                    isinstance(item, dict)
                    and {"subject", "predicate", "object"} <= set(item)
                ):
                    triples.append(
                        {
                            "subject": str(item["subject"]),
                            "predicate": str(item["predicate"]),
                            "object": str(item["object"]),
                        }
                    )
        result.properties[output_property] = triples
        return result

    return extract


def make_embed_fn(context: SycamoreContext) -> Callable[[Document], Document]:
    """Attach an embedding vector (as a list, for serializability)."""

    def embed(document: Document) -> Document:
        result = document.copy()
        text = result.text_representation() or result.text
        result.properties["embedding"] = [float(x) for x in context.embedder.embed(text)]
        return result

    return embed


def summarize_collection(
    context: SycamoreContext,
    documents: List[Document],
    model: Optional[str] = None,
    question: Optional[str] = None,
    per_doc_sentences: int = 1,
    max_docs: int = 50,
) -> str:
    """Collection-level synthesis used by terminal summarize and Luna.

    Packs per-document text (truncated) into one prompt, separated by
    ``---`` markers, and asks for a synthesis; an optional ``question``
    focuses it. An empty collection has nothing to synthesise and makes
    no LLM call.
    """
    if not documents:
        return "No matching records."
    model_name = model or context.default_model
    parts = []
    for document in documents[:max_docs]:
        parts.append(_document_text(document, None)[:1500])
    sections = {
        "documents": "\n---\n".join(parts),
        "max_sentences": str(per_doc_sentences),
    }
    if question:
        sections["question"] = question
    prompt = render_task_prompt("summarize_collection", sections)
    return context.llm.complete(prompt, model=model_name).text


def _fill_placeholders(template: str, properties: Dict[str, Any]) -> str:
    result = template
    for key, value in properties.items():
        # Property values were extracted from untrusted document text by
        # an LLM — sanitize them like the text they came from.
        result = result.replace("{" + key + "}", neutralize_markers(str(value)))
    return result
