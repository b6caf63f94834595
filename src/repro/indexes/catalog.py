"""The index catalog: named, multi-modal indexes plus their schemas.

Luna plans name an index ("read from the 'ntsb' index"); the catalog is
where that name resolves. Each named index bundles a keyword index, a
vector index, the backing doc store, and the *data schema* Luna's planner
consults — "Luna uses this schema during the query planning phase to
determine the appropriate set of operators" (§6.1). The schema can evolve
as new properties are extracted, which :meth:`NamedIndex.refresh_schema`
implements by sampling stored documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..docmodel.document import Document
from ..embedding.embedder import Embedder, HashingEmbedder
from .docstore import DocStore
from .graph import GraphStore
from .keyword import KeywordIndex, SearchHit
from .vector import VectorIndex


def infer_schema(documents: List[Document], sample: int = 100) -> Dict[str, str]:
    """Infer {field -> type} from document properties.

    A field's type is the dominant JSON type among non-null values in the
    sample. This is the "schema discovered in the data" the paper's
    planner relies on.
    """
    counts: Dict[str, Dict[str, int]] = {}
    for document in documents[:sample]:
        for key, value in document.properties.items():
            if value is None:
                continue
            counts.setdefault(key, {})
            name = _type_name(value)
            counts[key][name] = counts[key].get(name, 0) + 1
    return {
        key: max(sorted(type_counts), key=lambda t: type_counts[t])
        for key, type_counts in counts.items()
    }


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "object"
    return "string"


@dataclass
class NamedIndex:
    """One logical dataset: documents plus retrieval structures and schema."""

    name: str
    embedder: Embedder
    docstore: DocStore = field(default_factory=DocStore)
    keyword: KeywordIndex = field(default_factory=KeywordIndex)
    vector: Optional[VectorIndex] = None
    graph: GraphStore = field(default_factory=GraphStore)
    schema: Dict[str, str] = field(default_factory=dict)
    description: str = ""
    #: Monotonically increasing corpus version, bumped on every mutation
    #: (document ingest). Serving-layer result caches key on it, so a
    #: version bump is the invalidation signal for cached answers.
    version: int = 0

    def __post_init__(self) -> None:
        if self.vector is None:
            self.vector = VectorIndex(dimensions=self.embedder.dimensions)

    def __len__(self) -> int:
        return len(self.docstore)

    def add_document(self, document: Document, embed: bool = True) -> None:
        """Store and index one document (text + optional vector).

        The docstore seals the document, so the text rendered here for
        the keyword and vector indexes is the same string every later
        prompt over this stored version gets. The caller must not mutate
        ``document`` afterwards; re-ingest a changed copy under the same
        ``doc_id`` instead.
        """
        self.docstore.put(document)
        text = document.text_representation() or document.text
        self.keyword.add(document.doc_id, text)
        if embed:
            self.vector.add(document.doc_id, self.embedder.embed(text))
        self.version += 1

    def add_documents(self, documents: List[Document], embed: bool = True) -> None:
        """Store and index several documents, then refresh the schema."""
        for document in documents:
            self.add_document(document, embed=embed)
        self.refresh_schema()

    def all_documents(self) -> List[Document]:
        """Every stored document, in insertion order."""
        return list(self.docstore.scan())

    def search_keyword(self, query: str, k: int = 10) -> List[Document]:
        """Top-k documents by BM25."""
        hits = self.keyword.search(query, k=k)
        return self.docstore.get_many([h.doc_id for h in hits])

    def search_vector(self, query: str, k: int = 10, approximate: bool = False) -> List[Document]:
        """Top-k documents by embedding similarity."""
        hits = self.vector.search(self.embedder.embed(query), k=k, approximate=approximate)
        return self.docstore.get_many([h.doc_id for h in hits])

    def search_hybrid(self, query: str, k: int = 10, alpha: float = 0.5) -> List[Document]:
        """Reciprocal-rank-fusion of keyword and vector rankings."""
        keyword_hits = self.keyword.search(query, k=k * 2)
        vector_hits = self.vector.search(self.embedder.embed(query), k=k * 2)
        scores: Dict[str, float] = {}
        for rank, hit in enumerate(keyword_hits):
            scores[hit.doc_id] = scores.get(hit.doc_id, 0.0) + (1 - alpha) / (rank + 60)
        for rank, hit in enumerate(vector_hits):
            scores[hit.doc_id] = scores.get(hit.doc_id, 0.0) + alpha / (rank + 60)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return self.docstore.get_many([d for d, _ in ranked[:k]])

    def refresh_schema(self) -> Dict[str, str]:
        """Re-infer the schema from stored document properties."""
        self.schema = infer_schema(self.all_documents())
        return self.schema

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: Path) -> None:
        """Persist the whole index (documents, retrieval structures,
        schema) to a directory for reuse across sessions."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.docstore.save(directory / "documents.jsonl")
        self.keyword.save(directory / "keyword.json")
        self.vector.save(directory / "vector.json")
        self.graph.save(directory / "graph.json")
        (directory / "meta.json").write_text(
            json.dumps(
                {
                    "name": self.name,
                    "description": self.description,
                    "schema": self.schema,
                    "version": self.version,
                }
            )
        )

    @classmethod
    def load(cls, directory: Path, embedder: Embedder) -> "NamedIndex":
        """Restore an index previously written by :meth:`save`."""
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text())
        index = cls(
            name=meta["name"],
            embedder=embedder,
            docstore=DocStore.load(directory / "documents.jsonl"),
            keyword=KeywordIndex.load(directory / "keyword.json"),
            vector=VectorIndex.load(directory / "vector.json"),
            graph=GraphStore.load(directory / "graph.json"),
            schema=dict(meta.get("schema", {})),
            description=meta.get("description", ""),
            version=int(meta.get("version", 0)),
        )
        return index

    def schema_for_planner(self) -> Dict[str, Any]:
        """The schema payload placed in the planner prompt."""
        return {
            "index": self.name,
            "description": self.description,
            "fields": dict(self.schema),
        }


class IndexCatalog:
    """Registry of named indexes shared by Sycamore writers and Luna.

    The catalog carries a monotonically increasing :meth:`version`
    covering every mutation under it — index creation, deletion, and
    document ingest into any member index. Serving-layer caches use it
    (and the per-index ``version``) as their invalidation signal.
    """

    def __init__(self, embedder: Optional[Embedder] = None):
        self.embedder = embedder or HashingEmbedder()
        self._indexes: Dict[str, NamedIndex] = {}
        #: Mutations not captured by live index versions (create/drop/load,
        #: plus the final versions of dropped indexes so the total never
        #: goes backwards).
        self._retired_versions = 0

    def version(self) -> int:
        """Monotonic catalog version: bumps on create/drop/load and on
        every document ingested into any member index."""
        return self._retired_versions + sum(
            index.version for index in self._indexes.values()
        )

    def versions(self) -> Dict[str, int]:
        """Per-index corpus versions (for status displays)."""
        return {name: self._indexes[name].version for name in sorted(self._indexes)}

    def create(self, name: str, description: str = "", exist_ok: bool = False) -> NamedIndex:
        """Create (or with exist_ok, fetch) a named index."""
        if name in self._indexes:
            if exist_ok:
                return self._indexes[name]
            raise ValueError(f"index {name!r} already exists")
        index = NamedIndex(name=name, embedder=self.embedder, description=description)
        self._indexes[name] = index
        self._retired_versions += 1
        return index

    def get(self, name: str) -> NamedIndex:
        """Fetch by id (None/KeyError when absent, per container)."""
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(
                f"unknown index {name!r}; known: {sorted(self._indexes)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def names(self) -> List[str]:
        """Sorted names of all registered indexes."""
        return sorted(self._indexes)

    def drop(self, name: str) -> bool:
        """Remove an index; returns False when absent."""
        dropped = self._indexes.pop(name, None)
        if dropped is None:
            return False
        # Fold the dropped index's version into the retired tally so the
        # catalog version stays monotonic across drop + recreate.
        self._retired_versions += dropped.version + 1
        return True

    def save(self, directory: Path) -> None:
        """Persist every index to ``directory/<name>/``."""
        directory = Path(directory)
        for name, index in self._indexes.items():
            index.save(directory / name)

    def load(self, directory: Path) -> List[str]:
        """Load every index found under ``directory``; returns their names."""
        directory = Path(directory)
        loaded = []
        for child in sorted(directory.iterdir()):
            if (child / "meta.json").exists():
                index = NamedIndex.load(child, embedder=self.embedder)
                replaced = self._indexes.get(index.name)
                if replaced is not None:
                    self._retired_versions += replaced.version
                self._indexes[index.name] = index
                self._retired_versions += 1
                loaded.append(index.name)
        return loaded
