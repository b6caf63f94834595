"""Shared helpers for simulated-LLM skills: noise injection and field
extraction from rendered document text.
"""

from __future__ import annotations

import random
import re
from typing import Any, FrozenSet, List, Optional, Tuple

from .. import knowledge


class Noise:
    """Deterministic error injection scaled by model quality.

    A model of quality ``q`` makes a mistake on a unit-weight decision with
    probability ``1 - q``. The RNG is seeded per-call from the (model,
    prompt, seed) triple, so identical calls always fail — or succeed —
    identically, which keeps tests and benchmarks reproducible.
    """

    def __init__(self, quality: float, rng: random.Random):
        if not 0.0 <= quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {quality}")
        self.quality = quality
        self.rng = rng

    def slips(self, weight: float = 1.0) -> bool:
        """True when the model errs on a decision of the given difficulty."""
        p_err = min(1.0, (1.0 - self.quality) * weight)
        return self.rng.random() < p_err

    def choice(self, options: List[Any]) -> Any:
        """Uniform choice from options (noise channel)."""
        return self.rng.choice(options)


_LABEL_LINE_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9 /()'_-]{0,48}):\s*(.+?)\s*$")


def label_lines(text: str) -> List[tuple]:
    """All 'Label: value' lines in the text, as (label, value) pairs."""
    pairs = []
    for line in text.splitlines():
        match = _LABEL_LINE_RE.match(line)
        if match:
            pairs.append((match.group(1).strip(), match.group(2).strip()))
    return pairs


def _name_tokens(name: str) -> List[str]:
    return [t for t in re.split(r"[_\s/-]+", name.lower()) if t]


_GENERIC_TOKENS = {"us", "is", "of", "the", "a", "abbrev", "abbreviation", "name"}


#: Label lines ready for matching: (the label's tokens, its value).
LabelTokens = List[Tuple[FrozenSet[str], str]]


def label_tokens(text: str) -> LabelTokens:
    """The text's label lines with each label tokenised, labels made of
    generic words alone left out: what :func:`find_labeled_value` matches
    a field name against, parsed once for any number of fields."""
    parsed = []
    for label, value in label_lines(text):
        tokens = frozenset(_name_tokens(label)) - _GENERIC_TOKENS
        if tokens:
            parsed.append((tokens, value))
    return parsed


def find_labeled_value(
    field_name: str, text: str, labels: Optional[LabelTokens] = None
) -> Optional[str]:
    """Value of the label line best matching a schema field name.

    Matching is by token overlap between the field name and the label
    ("incident_date" matches "Date", "us_state_abbrev" matches "State").
    ``labels`` is ``label_tokens(text)`` when the caller already has it.
    """
    field_tokens = set(_name_tokens(field_name)) - _GENERIC_TOKENS
    if not field_tokens:
        return None
    best_value: Optional[str] = None
    best_score = 0.0
    for lab_tokens, value in label_tokens(text) if labels is None else labels:
        overlap = field_tokens & lab_tokens
        if not overlap:
            continue
        score = len(overlap) / max(len(field_tokens | lab_tokens), 1)
        if score > best_score:
            best_score = score
            best_value = value
    return best_value


def _coerce(value: str, field_type: str) -> Any:
    """Coerce an extracted string to the schema's declared type."""
    field_type = field_type.lower()
    if field_type in ("int", "integer"):
        match = re.search(r"-?\d+", value.replace(",", ""))
        return int(match.group()) if match else None
    if field_type in ("float", "number", "double"):
        match = re.search(r"-?\d+(?:\.\d+)?", value.replace(",", ""))
        return float(match.group()) if match else None
    if field_type in ("bool", "boolean"):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        return None
    return value


def extract_field(
    field_name: str, field_type: str, text: str, labels: Optional[LabelTokens] = None
) -> Any:
    """Extract one schema field from rendered document text.

    Strategy mirrors what an instruction-following LLM does with these
    documents: prefer explicit metadata lines, then fall back to
    type-specific heuristics over the prose (dates, states, booleans
    derived from domain concepts, cause sentences, sentiment).
    ``labels`` is ``label_tokens(text)``, for a caller extracting
    several fields from one text.
    """
    name = field_name.lower()

    if "probable_cause" in name or name.endswith("cause") or name == "cause":
        # Cause statements are multi-line paragraphs; the full-sentence
        # extractor must win over the single-line label matcher.
        cause = _cause_sentence(text)
        if cause is not None:
            return cause

    labeled = find_labeled_value(field_name, text, labels)
    if labeled is not None:
        if "state" in name:
            state = knowledge.find_state(labeled)
            if state is not None:
                return state
        if "date" in name:
            date = knowledge.find_date(labeled)
            if date is not None:
                return date
        coerced = _coerce(labeled, field_type)
        if coerced is not None:
            return coerced

    if "state" in name:
        return knowledge.find_state(text)
    if "year" in name:
        return knowledge.find_year(text)
    if "date" in name:
        return knowledge.find_date(text)
    if "sentiment" in name:
        return knowledge.sentiment_of(text)
    if field_type.lower() in ("bool", "boolean"):
        return _boolean_from_concepts(name, text)
    if field_type.lower() in ("int", "integer", "float", "number"):
        # Try the most specific name token first: in "injuries_fatal" the
        # qualifier ("fatal") locates the right row, while the container
        # word ("injuries") would match a section header or caption.
        primary = [t for t in reversed(_name_tokens(field_name)) if len(t) > 2]
        for token in primary:
            value = knowledge.find_number_after(text, token)
            if value is not None:
                if field_type.lower() in ("int", "integer"):
                    return int(value)
                return value
    return None


def _cause_sentence(text: str) -> Optional[str]:
    match = re.search(r"probable cause[^:\n]{0,40}:\s*", text, re.IGNORECASE)
    if match:
        # Accumulate wrapped lines until the statement's sentence ends.
        tail = text[match.end():]
        collected: List[str] = []
        for line in tail.splitlines():
            line = line.strip()
            if not line:
                break
            collected.append(line)
            if line.endswith("."):
                break
        if collected:
            return " ".join(" ".join(collected).split())
    # Fall back to the classic NTSB phrasing inside prose.
    match = re.search(r"(The pilot's failure[^.]*\.)", text)
    if match:
        return match.group(1)
    return None


def _boolean_from_concepts(field_name: str, text: str) -> Optional[bool]:
    """Booleans like ``weather_related`` derive from the concept lexicon."""
    phrase = field_name.replace("_", " ")
    concepts = knowledge.match_concepts(phrase)
    if concepts:
        return any(knowledge.text_matches_concept(text, c) for c in concepts)
    for token in _name_tokens(field_name):
        if token in ("related", "is", "was", "has"):
            continue
        if token in knowledge.CONCEPT_KEYWORDS:
            return knowledge.text_matches_concept(text, token)
    return None
