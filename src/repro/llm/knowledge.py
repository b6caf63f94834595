"""The simulated models' world knowledge.

A hosted LLM brings pretraining knowledge: it knows that "wind" is an
environmental factor, that "headcount reduction" is negative sentiment,
and what the US state abbreviations are. The simulated backend needs the
same knowledge in explicit form. This module is that knowledge: concept
lexicons for the domains the paper's use cases cover (NTSB aviation
incidents, financial earnings reports), plus small general-purpose
utilities (negation handling, sentiment scoring, state names).

The lexicon is intentionally imperfect in the same way embedding/LLM
matching is imperfect: concepts overlap (a "gusty wind" incident matches
both *wind* and *environmental*), and texts that merely mention a keyword
in passing can false-positive. Benchmarks measure accuracy *through* this
imperfection rather than assuming an oracle.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

# ----------------------------------------------------------------------
# Concept lexicon
# ----------------------------------------------------------------------

#: concept -> keywords whose presence in a text indicates the concept.
#: Multi-word keywords are matched as phrases.
CONCEPT_KEYWORDS: Dict[str, FrozenSet[str]] = {
    # Aviation incident causes (NTSB domain).
    "wind": frozenset(
        {"wind", "gust", "gusty", "crosswind", "tailwind", "windshear", "wind shear"}
    ),
    "icing": frozenset({"icing", "ice accumulation", "iced", "frost", "freezing rain"}),
    "turbulence": frozenset({"turbulence", "turbulent"}),
    "low_visibility": frozenset(
        {"fog", "low visibility", "poor visibility", "haze", "obscured", "whiteout"}
    ),
    "thunderstorm": frozenset({"thunderstorm", "lightning", "convective activity"}),
    "environmental": frozenset(
        {
            "wind",
            "gust",
            "gusty",
            "crosswind",
            "tailwind",
            "windshear",
            "wind shear",
            "icing",
            "ice accumulation",
            "frost",
            "freezing rain",
            "turbulence",
            "turbulent",
            "fog",
            "low visibility",
            "poor visibility",
            "haze",
            "whiteout",
            "thunderstorm",
            "lightning",
            "convective activity",
            "weather",
            "snow",
            "rain",
            "density altitude",
        }
    ),
    "weather": frozenset(
        {
            "weather",
            "wind",
            "gust",
            "icing",
            "fog",
            "thunderstorm",
            "snow",
            "rain",
            "turbulence",
            "freezing rain",
            "lightning",
            "crosswind",
            "windshear",
            "wind shear",
            "low visibility",
        }
    ),
    "engine_failure": frozenset(
        {
            "engine failure",
            "total loss of engine power",
            "malfunction within the engine",
            "fatigue crack",
        }
    ),
    "mechanical": frozenset(
        {
            "engine failure",
            "mechanical",
            "malfunction",
            "fuel contamination",
            "loss of engine power",
            "landing gear collapsed",
            "landing gear malfunction",
            "electrical failure",
            "component failure",
            "fatigue crack",
            "oil starvation",
        }
    ),
    "pilot_error": frozenset(
        {
            "pilot's failure",
            "pilots failure",
            "improper",
            "misjudged",
            "failure to maintain",
            "inadequate preflight",
            "spatial disorientation",
            "loss of control",
            "fuel exhaustion",
            "delayed decision",
            "exceeded the airplane's capability",
        }
    ),
    "bird_strike": frozenset({"bird strike", "struck a bird", "flock of birds"}),
    "fuel": frozenset(
        {"fuel exhaustion", "fuel contamination", "fuel starvation", "water in the fuel"}
    ),
    "fatal": frozenset({"fatal", "fatally injured", "fatalities", "killed"}),
    "substantial_damage": frozenset({"substantial damage", "substantially damaged"}),
    "landing": frozenset({"landing", "touchdown", "approach for landing", "runway"}),
    "takeoff": frozenset({"takeoff", "departure", "initial climb"}),
    # Financial / earnings domain.
    "ceo_change": frozenset(
        {
            "new chief executive",
            "new ceo",
            "ceo transition",
            "appointed as chief executive",
            "appointed chief executive",
            "ceo stepped down",
            "succeeds",
            "chief executive officer transition",
        }
    ),
    "revenue_growth": frozenset(
        {"revenue grew", "revenue growth", "revenue increased", "revenue rose"}
    ),
    "revenue_decline": frozenset(
        {"revenue declined", "revenue fell", "revenue decreased", "revenue dropped"}
    ),
    "guidance_raised": frozenset({"raised guidance"}),
    "guidance_lowered": frozenset({"lowered guidance"}),
    "positive_outlook": frozenset(
        {
            "raised guidance",
            "strong demand",
            "record revenue",
            "optimistic",
            "exceeded expectations",
            "robust growth",
            "margin expansion",
        }
    ),
    "negative_outlook": frozenset(
        {
            "lowered guidance",
            "weak demand",
            "headcount reduction",
            "missed expectations",
            "margin compression",
            "restructuring charges",
            "cautious outlook",
        }
    ),
}

#: Phrases in a user condition that map to a concept. Checked longest-first.
CONCEPT_ALIASES: Dict[str, str] = {
    "caused by wind": "wind",
    "due to wind": "wind",
    "wind": "wind",
    "gust": "wind",
    "windshear": "wind",
    "icing": "icing",
    "ice": "icing",
    "turbulence": "turbulence",
    "fog": "low_visibility",
    "visibility": "low_visibility",
    "thunderstorm": "thunderstorm",
    "lightning": "thunderstorm",
    "environmental factors": "environmental",
    "environmentally caused": "environmental",
    "environmental": "environmental",
    "weather related": "weather",
    "weather-related": "weather",
    "weather": "weather",
    "mechanical failure": "mechanical",
    "mechanical": "mechanical",
    "engine failure": "engine_failure",
    "engine failures": "engine_failure",
    "pilot error": "pilot_error",
    "pilot's failure": "pilot_error",
    "human error": "pilot_error",
    "bird strike": "bird_strike",
    "bird": "bird_strike",
    "fuel": "fuel",
    "fatal": "fatal",
    "fatalities": "fatal",
    "substantial damage": "substantial_damage",
    "landing": "landing",
    "takeoff": "takeoff",
    "ceo changed": "ceo_change",
    "ceo change": "ceo_change",
    "new ceo": "ceo_change",
    "ceo recently changed": "ceo_change",
    "chief executive changed": "ceo_change",
    "raised guidance": "guidance_raised",
    "raised their guidance": "guidance_raised",
    "guidance raised": "guidance_raised",
    "lowered guidance": "guidance_lowered",
    "lowered their guidance": "guidance_lowered",
    "guidance lowered": "guidance_lowered",
    "cut guidance": "guidance_lowered",
    "revenue growth": "revenue_growth",
    "growing revenue": "revenue_growth",
    "revenue declined": "revenue_decline",
    "shrinking revenue": "revenue_decline",
    "positive outlook": "positive_outlook",
    "positive sentiment": "positive_outlook",
    "optimistic": "positive_outlook",
    "negative outlook": "negative_outlook",
    "negative sentiment": "negative_outlook",
    "pessimistic": "negative_outlook",
}

_NEGATION_MARKERS = ("not ", "no ", "without ", "never ", "excluding ")

#: Longest first, ties in declaration order.
_ALIASES_LONGEST_FIRST = tuple(sorted(CONCEPT_ALIASES, key=len, reverse=True))

#: How many distinct conditions :func:`condition_holds` keeps a plan for.
RECENT_CONDITIONS = 512


_NOT_KEPT_RE = re.compile(r"[^a-z0-9%$.\s-]")
#: The same rule as a ``str.translate`` table over ASCII, where translate
#: is several times faster than the regex (3 µs against 22 µs on a
#: 1.7 kB report); on text with any other character it is slower, so
#: that text takes the regex.
_ASCII_TABLE = {code: ord(_NOT_KEPT_RE.sub(" ", chr(code))) for code in range(128)}


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace/punctuation for matching."""
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_TABLE).strip()
    return _NOT_KEPT_RE.sub(" ", lowered).strip()


def match_concepts(condition: str) -> List[str]:
    """Concepts referenced by a natural-language condition.

    Aliases are matched longest-first so "environmental factors" wins over
    the bare "environmental" and a "caused by wind" condition maps to
    *wind*, not *weather*.
    """
    norm = normalize(condition)
    found: List[str] = []
    for alias in _ALIASES_LONGEST_FIRST:
        if alias in norm:
            concept = CONCEPT_ALIASES[alias]
            if concept not in found:
                found.append(concept)
            norm = norm.replace(alias, " ")
    return found


def _is_word_char(ch: str) -> bool:
    """What ``\\w`` matches in a ``str`` pattern."""
    return ch.isalnum() or ch == "_"


def _word_in(word: str, text: str) -> bool:
    """``re.search(rf"\\b{re.escape(word)}\\b", text)``, by looking first.

    A text almost never holds the word, and ``str.find`` says so at
    memchr speed where the regex engine tries ``\\b`` at every
    character. Only an occurrence is checked: ``\\b`` holds where exactly
    one side is a word character, the ends of the text counting as none.
    """
    at = text.find(word)
    if at == -1:
        return False
    starts_as_word, ends_as_word = _is_word_char(word[0]), _is_word_char(word[-1])
    while at != -1:
        end = at + len(word)
        before = at > 0 and _is_word_char(text[at - 1])
        after = end < len(text) and _is_word_char(text[end])
        if before != starts_as_word and after != ends_as_word:
            return True
        at = text.find(word, at + 1)
    return False


#: concept -> (multi-word keywords, matched as substrings; single-word
#: keywords, matched standing alone).
_MATCHERS = {
    concept: (
        tuple(sorted(k for k in keywords if " " in k)),
        tuple(sorted(k for k in keywords if " " not in k)),
    )
    for concept, keywords in CONCEPT_KEYWORDS.items()
}


def _padded(text: str) -> str:
    """The normalised, space-padded form every keyword is matched against."""
    return " " + normalize(text) + " "


def _concept_in(norm: str, concept: str) -> bool:
    """:func:`text_matches_concept` on text that is already :func:`_padded`."""
    matcher = _MATCHERS.get(concept)
    if matcher is None:
        return False
    phrases, words = matcher
    for word in words:
        if _word_in(word, norm):
            return True
    for phrase in phrases:
        if phrase in norm:
            return True
    return False


def text_matches_concept(text: str, concept: str) -> bool:
    """True if the text contains any keyword of the concept."""
    return _concept_in(_padded(text), concept)


def concepts_in(text: str) -> FrozenSet[str]:
    """Every concept the text matches, normalising the text only once."""
    norm = _padded(text)
    return frozenset(c for c in _MATCHERS if _concept_in(norm, c))


class _ConditionPlan(NamedTuple):
    """What a condition asks, worked out without looking at any text."""

    negated: bool
    concepts: Tuple[str, ...]
    any_concept: bool  # "icing or wind": one concept is enough
    content_words: Tuple[str, ...]  # the fallback when no concept is named


@lru_cache(maxsize=RECENT_CONDITIONS)
def _condition_plan(condition: str) -> _ConditionPlan:
    norm_condition = normalize(condition)
    concepts = tuple(match_concepts(condition))
    return _ConditionPlan(
        negated=any(marker in f" {norm_condition} " for marker in _NEGATION_MARKERS),
        concepts=concepts,
        any_concept=" or " in norm_condition and len(concepts) > 1,
        content_words=tuple(
            w for w in norm_condition.split() if w not in _STOPWORDS and len(w) > 2
        ),
    )


def condition_holds(condition: str, text: str) -> bool:
    """Evaluate a natural-language yes/no condition against a text.

    This is the semantic primitive behind the simulated ``llm_filter``.
    Handles simple negation ("not caused by weather") and conjunction
    ("wind and landing"). Conditions that reference no known concept fall
    back to keyword containment of the condition's content words. A
    filter asks one condition of every document, so what depends on the
    condition alone is planned once per distinct condition; the verdict
    is worked out against the text every time.
    """
    plan = _condition_plan(condition)
    norm_text = _padded(text)
    if plan.concepts:
        quantifier = any if plan.any_concept else all
        result = quantifier(_concept_in(norm_text, c) for c in plan.concepts)
    else:
        result = _content_words_present(plan.content_words, norm_text)
    return (not result) if plan.negated else result


_STOPWORDS = frozenset(
    """a an and are as at be by caused due for from has have in incident
    incidents involve involved involving is it of on or report reports that
    the this to was were where which with document documents not no
    company companies""".split()
)


def _content_words_present(words: Tuple[str, ...], norm_text: str) -> bool:
    if not words:
        return False
    hits = sum(1 for w in words if _word_in(w, norm_text))
    return hits >= max(1, (len(words) + 1) // 2)


# ----------------------------------------------------------------------
# Sentiment
# ----------------------------------------------------------------------


def sentiment_of(text: str) -> str:
    """Crude document sentiment: 'positive', 'negative' or 'neutral'."""
    norm = normalize(text)
    positive = sum(1 for kw in CONCEPT_KEYWORDS["positive_outlook"] if kw in norm)
    negative = sum(1 for kw in CONCEPT_KEYWORDS["negative_outlook"] if kw in norm)
    if positive > negative:
        return "positive"
    if negative > positive:
        return "negative"
    return "neutral"


# ----------------------------------------------------------------------
# US states (for location extraction)
# ----------------------------------------------------------------------

US_STATES: Dict[str, str] = {
    "Alabama": "AL", "Alaska": "AK", "Arizona": "AZ", "Arkansas": "AR",
    "California": "CA", "Colorado": "CO", "Connecticut": "CT", "Delaware": "DE",
    "Florida": "FL", "Georgia": "GA", "Hawaii": "HI", "Idaho": "ID",
    "Illinois": "IL", "Indiana": "IN", "Iowa": "IA", "Kansas": "KS",
    "Kentucky": "KY", "Louisiana": "LA", "Maine": "ME", "Maryland": "MD",
    "Massachusetts": "MA", "Michigan": "MI", "Minnesota": "MN", "Mississippi": "MS",
    "Missouri": "MO", "Montana": "MT", "Nebraska": "NE", "Nevada": "NV",
    "New Hampshire": "NH", "New Jersey": "NJ", "New Mexico": "NM", "New York": "NY",
    "North Carolina": "NC", "North Dakota": "ND", "Ohio": "OH", "Oklahoma": "OK",
    "Oregon": "OR", "Pennsylvania": "PA", "Rhode Island": "RI", "South Carolina": "SC",
    "South Dakota": "SD", "Tennessee": "TN", "Texas": "TX", "Utah": "UT",
    "Vermont": "VT", "Virginia": "VA", "Washington": "WA", "West Virginia": "WV",
    "Wisconsin": "WI", "Wyoming": "WY",
}

STATE_ABBREVS: FrozenSet[str] = frozenset(US_STATES.values())


def find_state(text: str) -> Optional[str]:
    """Extract a US state abbreviation mentioned in the text, if any.

    Prefers a ", XX" location pattern (as in "Anchorage, AK"), then full
    state names, then a bare standalone abbreviation.
    """
    match = re.search(r",\s*([A-Z]{2})\b", text)
    if match and match.group(1) in STATE_ABBREVS:
        return match.group(1)
    for name, abbrev in US_STATES.items():
        if re.search(rf"\b{re.escape(name)}\b", text):
            return abbrev
    match = re.search(r"\b([A-Z]{2})\b", text)
    if match and match.group(1) in STATE_ABBREVS:
        return match.group(1)
    return None


# ----------------------------------------------------------------------
# Dates and numbers
# ----------------------------------------------------------------------

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(_MONTHS)}

_DATE_RE = re.compile(
    r"\b(" + "|".join(_MONTHS) + r")\s+(\d{1,2}),\s*(\d{4})\b", re.IGNORECASE
)


def find_date(text: str) -> Optional[str]:
    """Extract the first 'Month D, YYYY' date as ISO 'YYYY-MM-DD'."""
    match = _DATE_RE.search(text)
    if match is None:
        return None
    month = _MONTH_INDEX[match.group(1).lower()]
    day = int(match.group(2))
    year = int(match.group(3))
    if not 1 <= day <= 31:
        return None
    return f"{year:04d}-{month:02d}-{day:02d}"


def find_year(text: str) -> Optional[int]:
    """Extract a 4-digit year (1900-2099), preferring one inside a date."""
    date = find_date(text)
    if date is not None:
        return int(date[:4])
    match = re.search(r"\b(19\d{2}|20\d{2})\b", text)
    return int(match.group(1)) if match else None


def find_number_after(text: str, label: str) -> Optional[float]:
    """Extract the first number following a label phrase (case-insensitive).

    Numbers that belong to caption ordinals ("Table 1.", "Figure 2.") are
    skipped — a careful reader does not take a caption number for a data
    value.
    """
    pattern = re.escape(label) + r"[^0-9\-+]{0,40}?(-?\d[\d,]*\.?\d*)"
    for match in re.finditer(pattern, text, re.IGNORECASE):
        gap = match.group(0)[: match.start(1) - match.start(0)]
        if re.search(r"\b(table|figure|fig\.?)\s*$", gap, re.IGNORECASE):
            continue
        if gap.count("\n") > 1:
            # The number lives in a different block than the label —
            # too far away to be this label's value.
            continue
        try:
            return float(match.group(1).replace(",", ""))
        except ValueError:
            continue
    return None


def extract_percentage(text: str) -> Optional[float]:
    """Extract the first percentage figure ("12.5%" or "12.5 percent")."""
    match = re.search(r"(-?\d+(?:\.\d+)?)\s*(?:%|percent)", text, re.IGNORECASE)
    return float(match.group(1)) if match else None
