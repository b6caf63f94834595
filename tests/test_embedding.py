"""Tests for the hashing embedder."""

import hashlib

import numpy as np
import pytest

from repro.embedding import HashingEmbedder, cosine_similarity, tokenize
from repro.embedding.embedder import _COMMON, RECENT_SLOTS


class TestTokenize:
    def test_lowercase_words(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_empty(self):
        assert tokenize("") == []


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


class TestHashingEmbedder:
    def test_deterministic(self):
        e = HashingEmbedder(seed=1)
        a = e.embed("the quick brown fox")
        b = HashingEmbedder(seed=1).embed("the quick brown fox")
        assert np.allclose(a, b)

    def test_normalized(self):
        e = HashingEmbedder()
        assert np.linalg.norm(e.embed("some text here")) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        e = HashingEmbedder()
        assert np.linalg.norm(e.embed("")) == 0.0

    def test_dimensions_respected(self):
        e = HashingEmbedder(dimensions=64)
        assert e.embed("x").shape == (64,)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimensions=0)

    def test_seed_changes_space(self):
        a = HashingEmbedder(seed=1).embed("hello world")
        b = HashingEmbedder(seed=2).embed("hello world")
        assert not np.allclose(a, b)

    def test_vectors_are_readonly(self):
        e = HashingEmbedder()
        v = e.embed("abc")
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_embed_many(self):
        e = HashingEmbedder()
        vectors = e.embed_many(["a b", "c d"])
        assert len(vectors) == 2


class TestSemanticBehaviour:
    def test_lexical_overlap_increases_similarity(self):
        e = HashingEmbedder(concept_weight=0.0)
        same_topic = e.similarity("the pilot landed the plane", "the pilot landed safely")
        different = e.similarity("the pilot landed the plane", "quarterly revenue fell")
        assert same_topic > different

    def test_concept_smoothing_clusters_synonyms(self):
        with_concepts = HashingEmbedder(concept_weight=1.0)
        without = HashingEmbedder(concept_weight=0.0)
        pair = ("a strong gust hit the runway", "severe crosswind during approach")
        assert with_concepts.similarity(*pair) > without.similarity(*pair)

    def test_unrelated_topics_stay_unrelated(self):
        e = HashingEmbedder()
        sim = e.similarity("gusty crosswind on final", "fatigue crack in the engine")
        assert sim < 0.3

    def test_word_order_matters_slightly(self):
        e = HashingEmbedder(concept_weight=0.0)
        assert e.similarity("dog bites man", "man bites dog") < 1.0


def reference_slot(embedder, token):
    """``_slot`` as it was: one blake2b per call."""
    digest = hashlib.blake2b(f"{embedder.seed}:{token}".encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    return value % embedder.dimensions, 1.0 if (value >> 62) & 1 else -1.0


def reference_embed_lexical(embedder, text):
    """``_embed_lexical`` as it was: every term added to its slot by a
    scalar ``+=``, unigrams then bigrams in text order."""
    tokens = tokenize(text)
    vector = np.zeros(embedder.dimensions, dtype=np.float64)
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    for token, count in counts.items():
        weight = np.log1p(count)
        if token in _COMMON:
            weight *= 0.1
        index, sign = reference_slot(embedder, token)
        vector[index] += sign * weight
    for first, second in zip(tokens, tokens[1:]):
        index, sign = reference_slot(embedder, f"{first}__{second}")
        vector[index] += sign * 0.5
    return vector


class TestHashOnceAndAddAt:
    """A memoised ``_slot`` and one in-order ``np.add.at`` give the bits
    the per-occurrence blake2b and the scalar loop gave."""

    def test_bit_identical_on_both_corpora(self, ntsb_corpus, earnings_corpus, monkeypatch):
        texts = [raw.all_text() for raw in ntsb_corpus[1] + earnings_corpus[1]]
        # Narrow vectors too: 16 slots make every bigram collide with others.
        for dimensions, seed in ((256, 0), (16, 3)):
            embedder = HashingEmbedder(dimensions=dimensions, seed=seed)
            reference = HashingEmbedder(dimensions=dimensions, seed=seed)
            monkeypatch.setattr(
                reference, "_embed_lexical", lambda text, e=reference: reference_embed_lexical(e, text)
            )
            for text in texts:
                assert np.array_equal(
                    embedder._embed_lexical(text), reference_embed_lexical(embedder, text)
                )
                assert np.array_equal(embedder.embed(text), reference.embed(text))
            assert 0 < embedder._slot.cache_info().currsize <= RECENT_SLOTS
            assert embedder._slot.cache_info().hits > embedder._slot.cache_info().misses

    @pytest.mark.parametrize("text", ["", "one", "the the", "a b a b a b", "x " * 300])
    def test_short_and_repetitive_texts(self, text):
        embedder = HashingEmbedder(dimensions=8, seed=1)
        assert np.array_equal(
            embedder._embed_lexical(text), reference_embed_lexical(embedder, text)
        )

    def test_every_slot_is_the_hash(self):
        embedder = HashingEmbedder(dimensions=64, seed=5)
        for token in ["wind", "wind__shear", "concept::wind", "é", ""] * 2:
            assert embedder._slot(token) == reference_slot(embedder, token)
