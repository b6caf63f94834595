"""The data lake: file-based storage of raw, unprocessed documents.

Figure 1 shows Sycamore reading from "a data lake (or similar) where
unstructured data is kept". This module implements that corner of the
architecture: a directory of ``.rawdoc`` files (the raw-document binary
format), written by crawlers/generators and read lazily by
``context.read.lake`` so ingestion never holds the whole corpus in
memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from ..docmodel.raw import RawDocument

RAW_SUFFIX = ".rawdoc"


class DataLake:
    """A directory of raw documents.

    Filenames are ``<doc_id><suffix>``; doc ids therefore must be valid
    filename stems (the generators' ids are).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def write(self, document: RawDocument) -> Path:
        """Store one raw document; returns its path."""
        path = self._path_for(document.doc_id)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(document.to_bytes())
        tmp.replace(path)
        return path

    def write_many(self, documents: Iterable[RawDocument]) -> int:
        """Store several raw documents; returns the count."""
        count = 0
        for document in documents:
            self.write(document)
            count += 1
        return count

    # ------------------------------------------------------------------

    def doc_ids(self) -> List[str]:
        """All stored document ids."""
        return sorted(p.stem for p in self.root.glob(f"*{RAW_SUFFIX}"))

    def __len__(self) -> int:
        return len(self.doc_ids())

    def __contains__(self, doc_id: str) -> bool:
        return self._path_for(doc_id).exists()

    def read_bytes(self, doc_id: str) -> bytes:
        """One stored document as the bytes on disk, unparsed."""
        path = self._path_for(doc_id)
        if not path.exists():
            raise KeyError(f"no raw document {doc_id!r} in lake {self.root}")
        return path.read_bytes()

    def read(self, doc_id: str) -> RawDocument:
        """Load and parse one stored document by id."""
        return RawDocument.from_bytes(self.read_bytes(doc_id))

    def scan(self) -> Iterator[RawDocument]:
        """Lazily yield every raw document, sorted by id."""
        for doc_id in self.doc_ids():
            yield self.read(doc_id)

    def delete(self, doc_id: str) -> bool:
        """Remove by id; returns False when absent."""
        path = self._path_for(doc_id)
        if not path.exists():
            return False
        path.unlink()
        return True

    def _path_for(self, doc_id: str) -> Path:
        if "/" in doc_id or "\\" in doc_id or doc_id in ("", ".", ".."):
            raise ValueError(f"doc id {doc_id!r} is not a valid lake filename")
        return self.root / f"{doc_id}{RAW_SUFFIX}"
