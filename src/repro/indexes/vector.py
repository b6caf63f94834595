"""Vector index: exact cosine search plus an IVF-Flat approximate mode.

The vector store of Figure 1. Exact mode scans a packed matrix (fast
enough at bench scale); IVF mode clusters vectors into ``n_cells``
centroids with a small k-means and probes only the ``n_probe`` nearest
cells at query time — the standard recall/latency trade-off, which the
ablation benches can sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .keyword import SearchHit


#: Rows the buffer starts with once the first vector arrives.
_MIN_CAPACITY = 16


@dataclass
class _IvfState:
    centroids: np.ndarray  # (n_cells, dim)
    assignments: Dict[str, int]


class VectorIndex:
    """Cosine-similarity nearest-neighbour index over named vectors."""

    def __init__(self, dimensions: int):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self._ids: List[str] = []
        self._id_to_row: Dict[str, int] = {}
        # Rows beyond len(self._ids) are spare capacity, doubled when it
        # runs out, so n adds copy O(n) rows in total, not O(n^2).
        self._buffer = np.zeros((0, dimensions), dtype=np.float64)
        self._ivf: Optional[_IvfState] = None

    @property
    def _matrix(self) -> np.ndarray:
        """The filled rows, one per id (a view of the buffer)."""
        return self._buffer[: len(self._ids)]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._id_to_row

    def add(self, doc_id: str, vector: Sequence[float]) -> None:
        """Add (or replace) a vector. Vectors are L2-normalized on entry."""
        array = np.asarray(vector, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise ValueError(
                f"expected vector of dimension {self.dimensions}, got {array.shape}"
            )
        norm = float(np.linalg.norm(array))
        if norm > 1e-12:
            array = array / norm
        else:
            array = np.zeros_like(array)
        row = self._id_to_row.get(doc_id)
        if row is not None:
            self._buffer[row] = array
        else:
            filled = len(self._ids)
            if filled == len(self._buffer):
                grown = np.zeros(
                    (max(_MIN_CAPACITY, 2 * filled), self.dimensions), dtype=np.float64
                )
                grown[:filled] = self._buffer
                self._buffer = grown
            self._buffer[filled] = array
            self._id_to_row[doc_id] = filled
            self._ids.append(doc_id)
        self._ivf = None  # clustering is stale

    def add_many(self, items: Dict[str, Sequence[float]]) -> None:
        """Add several entries."""
        for doc_id, vector in items.items():
            self.add(doc_id, vector)

    def remove(self, doc_id: str) -> bool:
        """Remove by id; returns False when absent."""
        row = self._id_to_row.pop(doc_id, None)
        if row is None:
            return False
        self._buffer = np.delete(self._matrix, row, axis=0)
        self._ids.pop(row)
        self._id_to_row = {d: i for i, d in enumerate(self._ids)}
        self._ivf = None
        return True

    def get(self, doc_id: str) -> Optional[np.ndarray]:
        """Fetch by id (None/KeyError when absent, per container)."""
        row = self._id_to_row.get(doc_id)
        if row is None:
            return None
        return self._matrix[row].copy()

    # ------------------------------------------------------------------

    def search(
        self,
        query: Sequence[float],
        k: int = 10,
        approximate: bool = False,
        n_probe: int = 4,
    ) -> List[SearchHit]:
        """Top-``k`` by cosine similarity. ``approximate`` uses IVF probing."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dimensions,):
            raise ValueError(f"query dimension mismatch: {q.shape}")
        if k <= 0 or not self._ids:
            return []
        norm = float(np.linalg.norm(q))
        # Denormal norms lose precision under division; treat near-zero
        # vectors as zero (every similarity is then 0).
        if norm > 1e-12:
            q = q / norm
        else:
            q = np.zeros_like(q)
        if approximate and len(self._ids) >= 64:
            rows = self._ivf_candidate_rows(q, n_probe)
        else:
            rows = np.arange(len(self._ids))
        scores = np.clip(self._matrix[rows] @ q, -1.0, 1.0)
        order = np.argsort(-scores, kind="stable")[:k]
        return [
            SearchHit(doc_id=self._ids[int(rows[i])], score=float(scores[i]))
            for i in order
        ]

    # ------------------------------------------------------------------
    # IVF clustering
    # ------------------------------------------------------------------

    def _ivf_candidate_rows(self, q: np.ndarray, n_probe: int) -> np.ndarray:
        state = self._ensure_ivf()
        sims = state.centroids @ q
        probe = np.argsort(-sims)[: max(1, n_probe)]
        probe_set = set(int(c) for c in probe)
        rows = [
            self._id_to_row[doc_id]
            for doc_id, cell in state.assignments.items()
            if cell in probe_set
        ]
        if not rows:  # pathological clustering; fall back to exact
            return np.arange(len(self._ids))
        return np.asarray(sorted(rows))

    def _ensure_ivf(self, n_cells: Optional[int] = None, iterations: int = 8) -> _IvfState:
        if self._ivf is not None:
            return self._ivf
        n = len(self._ids)
        cells = n_cells or max(2, int(np.sqrt(n)))
        cells = min(cells, n)
        rng = np.random.default_rng(0)
        centroids = self._matrix[rng.choice(n, size=cells, replace=False)].copy()
        assignments = np.zeros(n, dtype=np.int64)
        for _ in range(iterations):
            sims = self._matrix @ centroids.T  # (n, cells)
            assignments = np.argmax(sims, axis=1)
            for cell in range(cells):
                members = self._matrix[assignments == cell]
                if len(members):
                    centroid = members.mean(axis=0)
                    norm = np.linalg.norm(centroid)
                    if norm > 0:
                        centroids[cell] = centroid / norm
        self._ivf = _IvfState(
            centroids=centroids,
            assignments={
                self._ids[i]: int(assignments[i]) for i in range(n)
            },
        )
        return self._ivf

    # ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Persist to the given path."""
        payload = {
            "dimensions": self.dimensions,
            "ids": self._ids,
            "matrix": self._matrix.tolist(),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Path) -> "VectorIndex":
        """Restore from a path written by ``save``."""
        payload = json.loads(Path(path).read_text())
        index = cls(dimensions=payload["dimensions"])
        index._ids = list(payload["ids"])
        index._id_to_row = {d: i for i, d in enumerate(index._ids)}
        matrix = np.asarray(payload["matrix"], dtype=np.float64)
        if matrix.size == 0:
            matrix = np.zeros((0, index.dimensions), dtype=np.float64)
        index._buffer = matrix
        return index
