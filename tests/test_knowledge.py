"""Tests for the simulated models' world knowledge (concept lexicon etc.)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import knowledge


class TestConceptMatching:
    def test_alias_longest_first(self):
        # "environmental factors" must win over the bare "environmental".
        assert knowledge.match_concepts("caused by environmental factors") == [
            "environmental"
        ]

    def test_wind_condition(self):
        assert "wind" in knowledge.match_concepts("due to wind")

    def test_multiple_concepts(self):
        concepts = knowledge.match_concepts("wind and icing incidents")
        assert set(concepts) >= {"wind", "icing"}

    def test_unknown_condition_empty(self):
        assert knowledge.match_concepts("quarterly paperwork backlog") == []

    def test_text_matches_concept_word_boundary(self):
        assert knowledge.text_matches_concept("a strong gust hit", "wind")
        # 'gusty' should match via its own keyword, not substring of gust
        assert knowledge.text_matches_concept("gusty conditions", "wind")
        # 'disgusting' must not match 'gust'
        assert not knowledge.text_matches_concept("a disgusting mess", "wind")

    def test_phrase_keywords(self):
        assert knowledge.text_matches_concept(
            "the engine failure occurred", "mechanical"
        )
        assert not knowledge.text_matches_concept("the engine ran fine", "mechanical")

    def test_unknown_concept_false(self):
        assert not knowledge.text_matches_concept("anything", "no_such_concept")


def reference_normalize(text):
    """``normalize`` as first written: one regex pass over the lowered text."""
    return re.sub(r"[^a-z0-9%$.\s-]", " ", text.lower()).strip()


def reference_match_concepts(condition):
    """``match_concepts`` as first written: the alias table sorted per call."""
    norm = reference_normalize(condition)
    found = []
    for alias in sorted(knowledge.CONCEPT_ALIASES, key=len, reverse=True):
        if alias in norm:
            concept = knowledge.CONCEPT_ALIASES[alias]
            if concept not in found:
                found.append(concept)
            norm = norm.replace(alias, " ")
    return found


def reference_matches(text, concept):
    """``text_matches_concept`` as first written: every keyword escaped
    and searched on its own, the text normalised per call."""
    keywords = knowledge.CONCEPT_KEYWORDS.get(concept)
    if keywords is None:
        return False
    norm = " " + reference_normalize(text) + " "
    for keyword in keywords:
        if " " in keyword:
            if keyword in norm:
                return True
        elif re.search(rf"\b{re.escape(keyword)}\b", norm):
            return True
    return False


def reference_condition_holds(condition, text):
    """``condition_holds`` as first written, over the reference matcher:
    everything about the condition worked out again for every text."""
    norm_condition = reference_normalize(condition)
    negated = any(m in f" {norm_condition} " for m in knowledge._NEGATION_MARKERS)
    concepts = reference_match_concepts(condition)
    if concepts:
        combine = any if " or " in norm_condition and len(concepts) > 1 else all
        result = combine(reference_matches(text, c) for c in concepts)
    else:
        words = [
            w for w in norm_condition.split() if w not in knowledge._STOPWORDS and len(w) > 2
        ]
        norm_text = " " + reference_normalize(text) + " "
        hits = sum(1 for w in words if re.search(rf"\b{re.escape(w)}\b", norm_text))
        result = bool(words) and hits >= max(1, (len(words) + 1) // 2)
    return (not result) if negated else result


CONCEPTS = sorted(knowledge.CONCEPT_KEYWORDS) + ["no_such_concept"]
CONDITIONS = [
    "caused by wind",
    "not caused by weather",
    "icing or wind",
    "wind and landing",
    "fatigue crack",
    "not a submarine voyage",
    "revenue of $12.5 rose 4%",
    "the of",
]
#: Keywords whole, in pieces and glued to other letters, in the alphabet
#: normalize() leaves behind and a little outside it.
fragments = st.sampled_from(
    sorted({k for keywords in knowledge.CONCEPT_KEYWORDS.values() for k in keywords})
) | st.text(alphabet="gustywindcea -.%$'A\n", max_size=8)
keyword_soup = st.lists(fragments, max_size=10).map(" ".join)


class TestCompiledMatcher:
    def assert_same(self, text):
        present = knowledge.concepts_in(text)
        for concept in CONCEPTS:
            expected = reference_matches(text, concept)
            assert knowledge.text_matches_concept(text, concept) == expected, concept
            assert (concept in present) == expected, concept
        for condition in CONDITIONS:
            assert knowledge.condition_holds(condition, text) == reference_condition_holds(
                condition, text
            ), (condition, text)

    def test_every_concept_on_every_generated_document(self, ntsb_corpus, earnings_corpus):
        raws = ntsb_corpus[1] + earnings_corpus[1]
        assert len(raws) == 54
        matched = set()
        for raw in raws:
            self.assert_same(raw.all_text())
            matched |= knowledge.concepts_in(raw.all_text())
        # The corpora exercise both domains, not a handful of concepts.
        assert len(matched) > len(knowledge.CONCEPT_KEYWORDS) // 2

    @given(keyword_soup)
    def test_every_concept_on_keyword_soup(self, text):
        self.assert_same(text)

    def test_concepts_in_is_a_set_of_known_concepts(self):
        assert knowledge.concepts_in("") == frozenset()
        assert knowledge.concepts_in("a gusty crosswind, then frost") >= {"wind", "icing", "weather"}


def reference_word_in(word, text):
    """``_word_in`` as it was: a regex with a word boundary either side."""
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


def reference_concept_in(padded, concept):
    """``_concept_in`` as it was: the concept's single-word keywords as one
    ``\\b(?:w1|...|wn)\\b`` alternation run over the whole padded text,
    its phrases as substring tests."""
    keywords = knowledge.CONCEPT_KEYWORDS.get(concept)
    if keywords is None:
        return False
    words = sorted(k for k in keywords if " " not in k)
    if words and re.search(r"\b(?:%s)\b" % "|".join(map(re.escape, words)), padded):
        return True
    return any(k in padded for k in keywords if " " in k)


def reference_content_words_present(words, padded):
    """``_content_words_present`` as it was, over the regex."""
    hits = sum(1 for w in words if reference_word_in(w, padded))
    return bool(words) and hits >= max(1, (len(words) + 1) // 2)


SINGLE_WORDS = sorted(
    {k for keywords in knowledge.CONCEPT_KEYWORDS.values() for k in keywords if " " not in k}
    | {w for alias in knowledge.CONCEPT_ALIASES for w in alias.split()}
)
#: Words ``\\b`` treats unlike a keyword: an edge that is not a word
#: character, an inner one, ``_``, a digit, a letter outside ASCII.
ODD_WORDS = ["$12.5", "4%", "-", "--", ".", "a.b", "wind-", "-wind", "_x", "x_", "é", "12", "%$"]
#: What normalize() leaves behind, plus ``_`` and the non-ASCII letters,
#: digits and spaces it does not.
kernel_alphabet = "abcdegilnstuwy0159%$._- \n" + "éßİ٣\u00a0\u2028"
joints = st.sampled_from(["", " ", "-", "_", ".", "%", "$", "7", "s", "é", "\n"])
embedded = st.builds(
    lambda before, left, word, right, after: before + left + word + right + after,
    st.text(alphabet=kernel_alphabet, max_size=12),
    joints,
    st.sampled_from(SINGLE_WORDS + ODD_WORDS),
    joints,
    st.text(alphabet=kernel_alphabet, max_size=12),
)


class TestFindThenCheckKernel:
    """``str.find`` plus a look at both neighbours ≡ the regex it replaced,
    on any string, padded or not."""

    def assert_same(self, text):
        for word in SINGLE_WORDS + ODD_WORDS:
            assert knowledge._word_in(word, text) == reference_word_in(word, text), (word, text)
        padded = " " + text + " "
        for concept in CONCEPTS:
            assert knowledge._concept_in(padded, concept) == reference_concept_in(
                padded, concept
            ), (concept, text)

    @settings(max_examples=600, deadline=None)
    @given(st.lists(embedded, min_size=1, max_size=3).map("".join))
    def test_words_embedded_at_every_kind_of_joint(self, text):
        self.assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=kernel_alphabet, max_size=40))
    def test_text_of_the_kernel_alphabet(self, text):
        self.assert_same(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "wind",  # the whole string
            "wind gust",  # at the start and at the end
            "windy wind",  # a second occurrence counts when the first does not
            "wind_ _wind wind7 7wind windé éwind",  # none of these stands alone
            "wind- -wind wind. $wind wind% .wind",  # all of these do
            "tail-wind\ncross.wind",
            "gustgust gust",
            "$12.5 a$12.5 $12.57 $12.5%",  # an edge that is no word character
            "4%x 4% x4%",
            "- -- a-b",
        ],
    )
    def test_the_shapes_a_boundary_is_made_of(self, text):
        self.assert_same(text)

    def test_every_word_and_concept_on_every_generated_document(
        self, ntsb_corpus, earnings_corpus
    ):
        found = 0
        for raw in ntsb_corpus[1] + earnings_corpus[1]:
            padded = knowledge._padded(raw.all_text())
            for word in SINGLE_WORDS:
                expected = reference_word_in(word, padded)
                assert knowledge._word_in(word, padded) == expected, word
                found += expected
            for concept in CONCEPTS:
                assert knowledge._concept_in(padded, concept) == reference_concept_in(
                    padded, concept
                ), concept
        assert found > 400  # the corpora do hold the words

    @given(st.lists(st.sampled_from(SINGLE_WORDS + ODD_WORDS), max_size=5), embedded)
    def test_content_words(self, words, text):
        padded = knowledge._padded(text)
        assert knowledge._content_words_present(
            tuple(words), padded
        ) == reference_content_words_present(words, padded)

    def test_a_condition_of_odd_words_alone(self):
        # No concept named: the content words decide, "$12.5" and "4%" among them.
        condition = "revenue of $12.5 rose 4%"
        for text in ["Revenue of $12.5 million rose 4% on the year", "revenue rose", "a$12.5 4%x"]:
            assert knowledge.condition_holds(condition, text) == reference_condition_holds(
                condition, text
            ), text


class TestNormalizeKernel:
    """``str.translate`` on ASCII text, the regex on the rest ≡ the regex."""

    @settings(max_examples=500)
    @given(st.text(max_size=60) | st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
    def test_arbitrary_unicode(self, text):
        assert knowledge.normalize(text) == reference_normalize(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 ",  # every ASCII and Latin-1 space
            "\u1680\u2000\u2009\u2028\u2029\u202f\u205f\u3000x\u200b\ufeff",  # Unicode spaces, and two that are not
            "İstanbul ǅ ẞ ﬁ Σ",  # lower() changes the length or the script
            "K\u212a 5\u2126 \u00b5",  # Kelvin sign lowers to an ASCII k
            "A-b.C%$d_e'f\"g(h)i,j;k:l!m?n/o\\p",
            "٣ ३ ⅷ ²",  # digits that are not 0-9
        ],
    )
    def test_whitespace_classes_and_case_mappings(self, text):
        assert knowledge.normalize(text) == reference_normalize(text)


#: Every alias (so every concept), bare and in the shapes the planner and
#: the question suites phrase conditions in.
ALIAS_CONDITIONS = sorted(
    {
        shape.format(alias=alias, other=other)
        for alias, other in zip(
            sorted(knowledge.CONCEPT_ALIASES), reversed(sorted(knowledge.CONCEPT_ALIASES))
        )
        for shape in (
            "incidents caused by {alias}",
            "without any {alias}",
            "{alias} or {other}",
            "The {alias}, (and) NOT the {other}!",
        )
    }
)


class TestConditionPlan:
    """What is planned once per condition ≡ what was worked out per call."""

    def test_every_alias_condition_on_every_generated_document(self, ntsb_corpus, earnings_corpus):
        texts = [raw.all_text() for raw in ntsb_corpus[1] + earnings_corpus[1]]
        assert len(ALIAS_CONDITIONS) > 200
        planned = {c for a in knowledge.CONCEPT_ALIASES for c in knowledge.match_concepts(a)}
        assert planned == set(knowledge.CONCEPT_KEYWORDS)
        verdicts = set()
        for condition in ALIAS_CONDITIONS + CONDITIONS:
            assert knowledge.match_concepts(condition) == reference_match_concepts(condition)
            for text in texts:
                expected = reference_condition_holds(condition, text)
                assert knowledge.condition_holds(condition, text) == expected, (condition, text)
                verdicts.add(expected)
        assert verdicts == {True, False}

    @given(st.lists(fragments | st.sampled_from(["not", "or", "and", "no", "never"]), max_size=8).map(" ".join), keyword_soup)
    def test_generated_conditions(self, condition, text):
        assert knowledge.condition_holds(condition, text) == reference_condition_holds(
            condition, text
        )

    def test_the_plan_depends_on_the_condition_alone(self):
        knowledge._condition_plan.cache_clear()
        for i in range(40):
            knowledge.condition_holds("caused by wind", f"report {i}: gusty crosswind")
        info = knowledge._condition_plan.cache_info()
        assert (info.misses, info.hits) == (1, 39)


class TestConditionHolds:
    WIND_TEXT = "The airplane encountered a gusty crosswind during landing."
    ENGINE_TEXT = "A fatigue crack caused a total loss of engine power."

    def test_positive(self):
        assert knowledge.condition_holds("caused by wind", self.WIND_TEXT)

    def test_negative(self):
        assert not knowledge.condition_holds("caused by icing", self.WIND_TEXT)

    def test_negation(self):
        assert not knowledge.condition_holds("not caused by wind", self.WIND_TEXT)
        assert knowledge.condition_holds("not caused by wind", self.ENGINE_TEXT)

    def test_conjunction_requires_all(self):
        assert knowledge.condition_holds("wind and landing", self.WIND_TEXT)
        assert not knowledge.condition_holds("wind and icing", self.WIND_TEXT)

    def test_disjunction_any(self):
        assert knowledge.condition_holds("icing or wind", self.WIND_TEXT)

    def test_fallback_content_words(self):
        assert knowledge.condition_holds(
            "fatigue crack", self.ENGINE_TEXT
        )
        assert not knowledge.condition_holds("submarine voyage", self.ENGINE_TEXT)

    def test_guidance_concepts(self):
        assert knowledge.condition_holds(
            "raised guidance", "Management raised guidance for the year."
        )
        assert not knowledge.condition_holds(
            "raised guidance", "Management maintained its prior guidance."
        )


class TestSentiment:
    def test_positive(self):
        assert knowledge.sentiment_of("record revenue and strong demand") == "positive"

    def test_negative(self):
        assert (
            knowledge.sentiment_of("weak demand and a headcount reduction")
            == "negative"
        )

    def test_neutral(self):
        assert knowledge.sentiment_of("the company filed its report") == "neutral"


class TestStates:
    def test_location_pattern_preferred(self):
        assert knowledge.find_state("near Anchorage, AK on Tuesday") == "AK"

    def test_full_name(self):
        assert knowledge.find_state("incidents in New Mexico rose") == "NM"

    def test_bare_abbreviation(self):
        assert knowledge.find_state("the TX office") == "TX"

    def test_no_state(self):
        assert knowledge.find_state("no location here") is None

    def test_not_fooled_by_random_capitals(self):
        assert knowledge.find_state("the CEO spoke") is None


class TestDatesAndNumbers:
    def test_find_date(self):
        assert knowledge.find_date("on May 3, 2023 the flight") == "2023-05-03"

    def test_find_date_case_insensitive(self):
        assert knowledge.find_date("ON MAY 3, 2023") == "2023-05-03"

    def test_find_date_invalid_day(self):
        assert knowledge.find_date("May 45, 2023") is None

    def test_find_year_prefers_date(self):
        assert knowledge.find_year("In 1999 style, on May 3, 2023") == 2023

    def test_find_year_bare(self):
        assert knowledge.find_year("the 2021 season") == 2021

    def test_find_number_after(self):
        assert knowledge.find_number_after("Fatal | 2", "fatal") == 2.0
        assert knowledge.find_number_after("Revenue ($M) | 1,234.5", "revenue") == 1234.5

    def test_find_number_skips_captions(self):
        text = "Injuries\nTable 1. Injuries to persons."
        assert knowledge.find_number_after(text, "injuries") is None

    def test_find_number_does_not_cross_blocks(self):
        text = "Injuries noted.\nAnalysis follows\nOn May 10, 2023"
        assert knowledge.find_number_after(text, "injuries") is None

    def test_extract_percentage(self):
        assert knowledge.extract_percentage("grew 12.5% YoY") == 12.5
        assert knowledge.extract_percentage("about 40 percent of cases") == 40.0
        assert knowledge.extract_percentage("no numbers") is None
