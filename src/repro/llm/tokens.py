"""Deterministic approximate token counting.

Hosted models meter usage in tokens; the cost model (C4 optimizer bench)
and the context-window limits (C1 RAG-scaling bench) both need a stable
token count. We use the standard ~4-characters-per-token approximation,
refined by word boundaries, which tracks BPE tokenizers closely enough
for relative comparisons.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: Average characters per token for English prose under BPE tokenizers.
CHARS_PER_TOKEN = 4.0

#: How many texts :func:`recent_word_count` remembers, and the longest
#: text it will hold on to (each entry pins its text).
RECENT_TEXTS = 512
MAX_MEMO_TEXT_CHARS = 8192


def count_tokens(text: str) -> int:
    """Approximate token count of ``text``.

    Uses max(words, chars/4): short texts with many small words tokenize
    near one token per word; long prose approaches the character ratio.
    Empty text counts as zero tokens.
    """
    return tokens_from_counts(len(text.split()), len(text))


def tokens_from_counts(words: int, chars: int) -> int:
    """:func:`count_tokens` of a text with that many words and characters.

    Both counts add over a text cut at whitespace, so a caller that knows
    the parts' counts need not split the whole again.
    """
    return max(words, math.ceil(chars / CHARS_PER_TOKEN))


_recent_word_count = lru_cache(maxsize=RECENT_TEXTS)(lambda text: len(text.split()))


def recent_word_count(text: str) -> int:
    """``len(text.split())``, remembered for the last few hundred texts.

    For the one caller that is handed the same document body over and
    over inside different prompts (the simulated backend). Keyed on the
    text alone.
    """
    if len(text) > MAX_MEMO_TEXT_CHARS:
        return len(text.split())
    return _recent_word_count(text)


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Longest prefix of ``text`` whose token count is <= ``max_tokens``.

    Truncation happens on word boundaries so downstream keyword matching
    never sees half a word.
    """
    if max_tokens <= 0:
        return ""
    if count_tokens(text) <= max_tokens:
        return text
    words = text.split()
    lo, hi = 0, len(words)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count_tokens(" ".join(words[:mid])) <= max_tokens:
            lo = mid
        else:
            hi = mid - 1
    return " ".join(words[:lo])
