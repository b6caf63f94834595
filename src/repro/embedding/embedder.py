"""Deterministic feature-hashing text embedder.

Design: each token (and each token bigram, to capture a little word
order) is hashed into a fixed-dimension vector with a signed hash — the
classic "hashing trick". Token weights are sublinear TF with an IDF-like
damping of very common words. A light *semantic smoothing* step adds a
fraction of each domain concept's centroid when concept keywords are
present, so "gust" and "crosswind" land near each other the way learned
embeddings put synonyms near each other.

The embedder is stateless and seeded: the same text always produces the
same vector, so tests, indexes and benchmarks are reproducible.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Protocol

import numpy as np

from ..llm import knowledge

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: How many texts an embedder remembers the vector of, least recently
#: used first out. Query texts repeat; an ingested document's text is
#: embedded once and must not stay pinned for the life of the context.
RECENT_EMBEDDINGS = 512

#: How many tokens (and bigrams) an embedder remembers the hashed slot
#: of. A corpus keeps using the same few thousand, so a document's ~360
#: slots cost a dictionary lookup each and not a blake2b; about 1 MB
#: when full.
RECENT_SLOTS = 4096

#: Words too common to carry signal; damped rather than dropped so that
#: texts made only of stopwords still embed to something.
_COMMON = frozenset(
    """the a an and or of to in on for with was were is are that this it as
    at by from be been has have had not no""".split()
)


def tokenize(text: str) -> List[str]:
    """Lowercase word tokens of ``text``."""
    return _TOKEN_RE.findall(text.lower())


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero vectors have similarity 0 to everything."""
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension vector."""

    dimensions: int

    def embed(self, text: str) -> np.ndarray:
        """Embedding vector for the text."""
        ...

    def embed_many(self, texts: Iterable[str]) -> List[np.ndarray]:
        """Embedding vectors for several texts."""
        ...


class HashingEmbedder:
    """Feature-hashing embedder with optional concept smoothing.

    Parameters
    ----------
    dimensions:
        Embedding width. 256 is plenty for the corpus sizes benches use.
    seed:
        Hash salt; different seeds produce incompatible spaces.
    concept_weight:
        Strength of semantic smoothing toward domain-concept centroids
        (0 disables it; 1.0 balances synonym clustering against lexical
        signal).
    """

    def __init__(self, dimensions: int = 256, seed: int = 0, concept_weight: float = 1.0):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self.seed = seed
        self.concept_weight = concept_weight
        self._recent = lru_cache(maxsize=RECENT_EMBEDDINGS)(self._embed)
        self._slot = lru_cache(maxsize=RECENT_SLOTS)(self._hash_slot)
        self._concept_vectors: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------

    def embed(self, text: str) -> np.ndarray:
        """L2-normalized embedding of ``text`` (zero vector for empty text).

        The array is read-only: callers asking for the same text again
        may be handed the same object.
        """
        return self._recent(text)

    def _embed(self, text: str) -> np.ndarray:
        vector = self._embed_lexical(text)
        lexical_norm = float(np.linalg.norm(vector))
        if lexical_norm > 0.0:
            vector = vector / lexical_norm
        if self.concept_weight > 0.0:
            vector = vector + self.concept_weight * self._concept_component(text)
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector = vector / norm
        vector.setflags(write=False)
        return vector

    def embed_many(self, texts: Iterable[str]) -> List[np.ndarray]:
        """Embedding vectors for several texts."""
        return [self.embed(t) for t in texts]

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two texts' embeddings."""
        return cosine_similarity(self.embed(a), self.embed(b))

    # ------------------------------------------------------------------

    def _embed_lexical(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        vector = np.zeros(self.dimensions, dtype=np.float64)
        if not tokens:
            return vector
        counts: Dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for token, count in counts.items():
            weight = np.log1p(count)
            if token in _COMMON:
                weight *= 0.1
            index, sign = self._slot(token)
            vector[index] += sign * weight
        if len(tokens) > 1:
            slots = [self._slot(f"{first}__{second}") for first, second in zip(tokens, tokens[1:])]
            indices, signs = zip(*slots)
            # Unbuffered and in order: each slot sees the additions a
            # loop of ``vector[index] += sign * 0.5`` would make.
            np.add.at(vector, np.array(indices), np.array(signs) * 0.5)
        return vector

    def _concept_component(self, text: str) -> np.ndarray:
        component = np.zeros(self.dimensions, dtype=np.float64)
        present = knowledge.concepts_in(text)
        for concept, centroid in self._concepts().items():
            if concept in present:
                component += centroid
        norm = float(np.linalg.norm(component))
        if norm > 0.0:
            component = component / norm
        return component

    def _concepts(self) -> Dict[str, np.ndarray]:
        if self._concept_vectors is None:
            vectors = {}
            for concept in knowledge.CONCEPT_KEYWORDS:
                index, sign = self._slot(f"concept::{concept}")
                centroid = np.zeros(self.dimensions, dtype=np.float64)
                centroid[index] = sign
                # Spread onto a couple more slots so concepts are not
                # mutually orthogonal one-hot spikes.
                for salt in ("b", "c"):
                    index2, sign2 = self._slot(f"concept::{concept}::{salt}")
                    centroid[index2] = sign2 * 0.5
                vectors[concept] = centroid / np.linalg.norm(centroid)
            self._concept_vectors = vectors
        return self._concept_vectors

    def _hash_slot(self, token: str) -> tuple:
        digest = hashlib.blake2b(
            f"{self.seed}:{token}".encode("utf-8"), digest_size=8
        ).digest()
        value = int.from_bytes(digest, "big")
        index = value % self.dimensions
        sign = 1.0 if (value >> 62) & 1 else -1.0
        return index, sign
