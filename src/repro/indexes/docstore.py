"""Document store: the system of record Sycamore writes processed DocSets to.

Holds full :class:`~repro.docmodel.document.Document` objects by id with
optional JSONL persistence. The keyword/vector indexes store only ids and
scores; query execution fetches the documents themselves from here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from ..docmodel.document import Document


class DocStore:
    """In-memory document store with JSONL save/load.

    The store keeps the objects it is given and hands the same objects
    back (``get``, ``get_many``, ``scan``), so a stored document is
    immutable by contract: change a :meth:`~Document.copy` and ``put``
    that. ``put`` seals the document (:meth:`Document.seal`), which is
    what lets its text be rendered once per stored version instead of
    once per LLM call; a copy carries no seal, and putting a changed
    object again renders it again.
    """

    def __init__(self) -> None:
        self._docs: Dict[str, Document] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def put(self, document: Document) -> None:
        """Store and seal one document, replacing any same-id entry."""
        document.seal()
        self._docs[document.doc_id] = document

    def put_many(self, documents: List[Document]) -> None:
        """Store several documents."""
        for document in documents:
            self.put(document)

    def get(self, doc_id: str) -> Optional[Document]:
        """Fetch by id (None/KeyError when absent, per container)."""
        return self._docs.get(doc_id)

    def get_many(self, doc_ids: List[str]) -> List[Document]:
        """Fetch documents by id, silently skipping unknown ids."""
        return [self._docs[d] for d in doc_ids if d in self._docs]

    def delete(self, doc_id: str) -> bool:
        """Remove by id; returns False when absent."""
        return self._docs.pop(doc_id, None) is not None

    def scan(self, predicate: Optional[Callable[[Document], bool]] = None) -> Iterator[Document]:
        """All documents in insertion order, optionally filtered."""
        for document in self._docs.values():
            if predicate is None or predicate(document):
                yield document

    def doc_ids(self) -> List[str]:
        """All stored document ids."""
        return list(self._docs)

    def clear(self) -> None:
        """Remove all entries."""
        self._docs.clear()

    # ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Persist to the given path."""
        with open(path, "w", encoding="utf-8") as handle:
            for document in self._docs.values():
                handle.write(document.to_json())
                handle.write("\n")

    @classmethod
    def load(cls, path: Path) -> "DocStore":
        """Restore from a path written by ``save``."""
        store = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    store.put(Document.from_json(line))
        return store
