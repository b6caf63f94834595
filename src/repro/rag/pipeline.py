"""The retrieval-augmented generation baseline.

This is the architecture the paper argues *against* for analytics (§2):
chunk the corpus, embed the chunks, retrieve the top-k most similar to
the question, stuff them into a single prompt, and generate. It is
implemented faithfully — including its real constraints (top-k retrieval
bounded by the model's context window) — because benches C1/C2 measure
exactly where it breaks: answers requiring a sweep over many documents
cannot fit through a k-chunk keyhole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Optional, Sequence

from ..docmodel.document import Document
from ..indexes.catalog import NamedIndex
from ..llm.client import ReliableLLM
from ..llm.errors import ContextWindowExceededError
from ..llm.prompts import ANSWER_QUESTION, neutralize_markers, split_into_chunks
from ..llm.tokens import count_tokens
from ..llm.base import get_model_spec
from ..observability.metrics import get_registry

RetrievalMode = Literal["vector", "keyword", "hybrid"]


@dataclass
class RagAnswer:
    """A generated answer plus its provenance (the retrieved chunks)."""

    question: str
    answer: str
    retrieved_chunk_ids: List[str] = field(default_factory=list)
    context_tokens: int = 0
    truncated: bool = False


class RagPipeline:
    """Chunk -> embed -> retrieve -> generate.

    Parameters
    ----------
    index:
        The :class:`NamedIndex` holding the chunked corpus (see
        :meth:`ingest`).
    llm:
        Reliability-wrapped LLM for generation.
    model:
        Generation model; its context window caps how much retrieved text
        one call can see.
    top_k:
        Chunks retrieved per question.
    retrieval:
        ``vector``, ``keyword`` or ``hybrid``.
    """

    def __init__(
        self,
        index: NamedIndex,
        llm: ReliableLLM,
        model: str = "sim-large",
        top_k: int = 5,
        retrieval: RetrievalMode = "vector",
    ):
        self.index = index
        self.llm = llm
        self.model = model
        self.top_k = top_k
        self.retrieval = retrieval

    # ------------------------------------------------------------------

    @staticmethod
    def ingest(
        index: NamedIndex,
        documents: Sequence[Document],
        chunk_tokens: int = 220,
        overlap_tokens: int = 20,
    ) -> int:
        """Chunk documents into the index (the classic RAG ETL step).

        Chunking is structure-blind by design: it splits the flat text
        representation on token boundaries, exactly the behaviour whose
        limitations §2 describes for tables and long documents.
        """
        written = 0
        for document in documents:
            text = document.text_representation() or document.text
            for position, chunk in enumerate(
                split_into_chunks(text, chunk_tokens, overlap_tokens)
            ):
                chunk_doc = Document(
                    text=chunk,
                    parent_id=document.doc_id,
                    properties={
                        "chunk_index": position,
                        "source_doc_id": document.doc_id,
                    },
                )
                index.add_document(chunk_doc)
                written += 1
        index.refresh_schema()
        return written

    # ------------------------------------------------------------------

    def retrieve(self, question: str, k: Optional[int] = None) -> List[Document]:
        """Top-k chunks for a question using the configured mode."""
        k = k or self.top_k
        if self.retrieval == "vector":
            return self.index.search_vector(question, k=k)
        if self.retrieval == "keyword":
            return self.index.search_keyword(question, k=k)
        return self.index.search_hybrid(question, k=k)

    def answer(self, question: str) -> RagAnswer:
        """Retrieve context and generate a grounded answer."""
        registry = get_registry()
        registry.counter("rag.questions").inc()
        # User questions are untrusted prompt input (prompt-taint lint).
        question = neutralize_markers(question)
        chunks = self.retrieve(question)
        context, used, truncated = self._pack_context(question, chunks)
        if truncated:
            registry.counter("rag.context_truncations").inc()
        prompt = ANSWER_QUESTION.render(question=question, context=context)
        response = self.llm.complete(prompt, model=self.model)
        registry.histogram("rag.context_tokens").observe(count_tokens(context))
        return RagAnswer(
            question=question,
            answer=response.text,
            retrieved_chunk_ids=[c.doc_id for c in used],
            context_tokens=count_tokens(context),
            truncated=truncated,
        )

    def _pack_context(
        self, question: str, chunks: List[Document]
    ) -> "tuple[str, List[Document], bool]":
        """Pack chunks into the prompt up to the model's context window.

        Leaves headroom for the question, instructions and the answer;
        drops chunks that do not fit (this is the keyhole).
        """
        window = get_model_spec(self.model).context_window
        budget = window - count_tokens(question) - 400
        parts: List[str] = []
        used: List[Document] = []
        spent = 0
        truncated = False
        for chunk in chunks:
            # Chunk bodies are document text: sanitize before packing.
            text = neutralize_markers(chunk.text or chunk.text_representation())
            cost = count_tokens(text) + 2
            if spent + cost > budget:
                truncated = True
                break
            parts.append(text)
            used.append(chunk)
            spent += cost
        return "\n---\n".join(parts), used, truncated

    # ------------------------------------------------------------------

    def provenance(self, answer: RagAnswer) -> List[str]:
        """Source document ids behind an answer's retrieved chunks."""
        sources = []
        for chunk_id in answer.retrieved_chunk_ids:
            chunk = self.index.docstore.get(chunk_id)
            if chunk is None:
                continue
            source = chunk.properties.get("source_doc_id")
            if source is not None and source not in sources:
                sources.append(source)
        return sources
