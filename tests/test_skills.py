"""Tests for the simulated-LLM task skills (extraction, filter, classify,
summarize, QA) driven through the full prompt pipeline."""

import json
import random

import pytest

from repro.llm import (
    ANSWER_QUESTION,
    CLASSIFY_TEXT,
    EXTRACT_PROPERTIES,
    FILTER_DOCUMENT,
    ReliableLLM,
    SUMMARIZE_COLLECTION,
    SUMMARIZE_DOCUMENT,
    SimulatedLLM,
    render_task_prompt,
)
from repro.llm.skills import common
from repro.llm.skills.common import Noise, extract_field, find_labeled_value, label_lines
from repro.llm.skills.extraction import run_extract_properties

NTSB_DOC = """Report ID: NTSB-2023-00042
Location: Anchorage, AK
Date: May 3, 2023
Aircraft: Cessna 172
Aircraft Damage: substantial

Injuries
Injury Level | Count
Fatal | 1
Serious | 2
Minor | 0

Analysis
On May 3, 2023, a Cessna 172 was involved in an accident near Anchorage, AK.
The pilot reported that during the landing, the airplane encountered a strong
gusty crosswind. The airplane impacted terrain and sustained substantial damage.
Probable Cause: The airplane's encounter with a gusty crosswind during the
landing, which resulted in a loss of directional control.
"""


@pytest.fixture()
def oracle():
    return ReliableLLM(SimulatedLLM(seed=0))


class TestLabelLines:
    def test_parses_pairs(self):
        pairs = label_lines("Alpha: one\nnot a pair\nBeta Gamma: two three")
        assert ("Alpha", "one") in pairs
        assert ("Beta Gamma", "two three") in pairs
        assert len(pairs) == 2

    def test_fuzzy_field_match(self):
        assert find_labeled_value("us_state_abbrev", "Location: Anchorage, AK") is None
        assert find_labeled_value("location", "Location: Anchorage, AK") == "Anchorage, AK"
        assert find_labeled_value("aircraft_damage", NTSB_DOC) == "substantial"

    def test_no_match(self):
        assert find_labeled_value("zzz", "Alpha: one") is None


class TestExtractField:
    def test_state(self):
        assert extract_field("us_state_abbrev", "string", NTSB_DOC) == "AK"

    def test_date_iso(self):
        assert extract_field("incident_date", "string", NTSB_DOC) == "2023-05-03"

    def test_year(self):
        assert extract_field("incident_year", "int", NTSB_DOC) == 2023

    def test_boolean_concept(self):
        assert extract_field("weather_related", "bool", NTSB_DOC) is True
        assert extract_field("weather_related", "bool", "engine failure") is False

    def test_probable_cause_sentence(self):
        cause = extract_field("probable_cause", "string", NTSB_DOC)
        assert "gusty crosswind" in cause

    def test_table_numbers(self):
        assert extract_field("injuries_fatal", "int", NTSB_DOC) == 1
        assert extract_field("injuries_serious", "int", NTSB_DOC) == 2

    def test_labeled_string(self):
        assert extract_field("aircraft", "string", NTSB_DOC) == "Cessna 172"

    def test_missing_returns_none(self):
        assert extract_field("ticker_symbol", "string", NTSB_DOC) is None


class TestExtractionSkill:
    def test_full_schema(self, oracle):
        schema = {
            "us_state": "string",
            "incident_date": "string",
            "weather_related": "bool",
            "injuries_fatal": "int",
        }
        prompt = EXTRACT_PROPERTIES.render(
            schema=json.dumps(schema), document=NTSB_DOC
        )
        result = oracle.complete_json(prompt, model="sim-oracle")
        assert result == {
            "us_state": "AK",
            "incident_date": "2023-05-03",
            "weather_related": True,
            "injuries_fatal": 1,
        }

    def test_all_schema_keys_present_even_if_null(self, oracle):
        prompt = EXTRACT_PROPERTIES.render(
            schema=json.dumps({"nonexistent_field": "string"}), document=NTSB_DOC
        )
        result = oracle.complete_json(prompt, model="sim-oracle")
        assert result == {"nonexistent_field": None}


def reference_find_labeled_value(field_name, text, labels=None):
    """``find_labeled_value`` as it was: the label lines parsed and every
    label tokenised again for each field asked about."""
    field_tokens = set(common._name_tokens(field_name)) - common._GENERIC_TOKENS
    if not field_tokens:
        return None
    best_value = None
    best_score = 0.0
    for label, value in label_lines(text):
        lab_tokens = set(common._name_tokens(label)) - common._GENERIC_TOKENS
        if not lab_tokens:
            continue
        overlap = field_tokens & lab_tokens
        if not overlap:
            continue
        score = len(overlap) / max(len(field_tokens | lab_tokens), 1)
        if score > best_score:
            best_score = score
            best_value = value
    return best_value


class TestLabelsParsedOncePerCall:
    """One parse of the label lines per extract call ≡ one per field."""

    SCHEMAS = {
        "ntsb": {
            "state": "string",
            "incident_year": "int",
            "weather_related": "bool",
            "injuries_fatal": "int",
            "aircraft": "string",
            "us_state_abbrev": "string",
            "incident_date": "string",
            "probable_cause": "string",
        },
        "earnings": {
            "company": "string",
            "sector": "string",
            "fiscal_year": "int",
            "revenue_musd": "float",
            "revenue_growth_pct": "float",
            "ceo_changed": "bool",
            "sentiment": "string",
            "name": "string",  # generic tokens alone: matches no label
        },
    }

    def extract(self, schema, text, quality, seed):
        sections = {"schema": json.dumps(schema), "document": text}
        return run_extract_properties(sections, Noise(quality, random.Random(seed)))

    def test_byte_identical_json_on_both_schemas(self, indexed_context, monkeypatch):
        texts = {
            name: [d.text_representation() for d in indexed_context.catalog.get(name).all_documents()]
            for name in self.SCHEMAS
        }
        assert [len(t) for t in texts.values()] == [30, 24]
        cases = [
            (schema, text, quality, seed)
            for name, schema in self.SCHEMAS.items()
            for other in self.SCHEMAS  # each schema on its own documents and on the other's
            for seed, text in enumerate(texts[other])
            for quality in (1.0, 0.7)
        ]
        produced = [self.extract(*case) for case in cases]
        # extract_field looks the matcher up in its module at call time.
        monkeypatch.setattr(common, "find_labeled_value", reference_find_labeled_value)
        assert produced == [self.extract(*case) for case in cases]
        values = [v for out in produced for v in json.loads(out).values()]
        assert sum(v is not None for v in values) > len(values) // 3

    def test_one_parse_per_call(self, monkeypatch):
        calls = []
        real = common.label_lines
        monkeypatch.setattr(common, "label_lines", lambda text: calls.append(text) or real(text))
        out = self.extract(self.SCHEMAS["ntsb"], NTSB_DOC, 1.0, 0)
        assert len(calls) == 1
        assert json.loads(out)["state"] == "AK"

    def test_a_lone_field_still_parses_for_itself(self):
        assert find_labeled_value("aircraft_damage", NTSB_DOC) == "substantial"
        assert find_labeled_value("aircraft_damage", NTSB_DOC, labels=[]) is None
        assert extract_field("aircraft", "string", NTSB_DOC, common.label_tokens(NTSB_DOC)) == "Cessna 172"


class TestFilterSkill:
    @pytest.mark.parametrize(
        "condition,expected",
        [
            ("caused by wind", "yes"),
            ("caused by environmental factors", "yes"),
            ("caused by icing", "no"),
            ("involving a bird strike", "no"),
            ("not caused by wind", "no"),
        ],
    )
    def test_verdicts(self, oracle, condition, expected):
        prompt = FILTER_DOCUMENT.render(condition=condition, document=NTSB_DOC)
        assert oracle.complete(prompt, model="sim-oracle").text == expected


class TestClassifySkill:
    def test_cause_classification(self, oracle):
        prompt = CLASSIFY_TEXT.render(
            categories="environmental, mechanical, pilot error",
            document=NTSB_DOC,
        )
        assert oracle.complete(prompt, model="sim-oracle").text == "environmental"

    def test_empty_categories(self, oracle):
        prompt = CLASSIFY_TEXT.render(categories="", document=NTSB_DOC)
        assert oracle.complete(prompt, model="sim-oracle").text == ""


class TestSummarizeSkill:
    def test_summary_is_extractive(self, oracle):
        prompt = SUMMARIZE_DOCUMENT.render(document=NTSB_DOC, max_sentences="2")
        summary = oracle.complete(prompt, model="sim-oracle").text
        assert summary
        # every summary sentence must come from the source
        flat_source = " ".join(NTSB_DOC.split())
        for sentence in summary.split(". "):
            assert sentence.split(".")[0][:40] in flat_source

    def test_collection_summary_counts_docs(self, oracle):
        docs = "\n---\n".join(["The wind was strong.", "The engine failed badly."])
        prompt = SUMMARIZE_COLLECTION.render(documents=docs)
        text = oracle.complete(prompt, model="sim-oracle").text
        assert text.startswith("Synthesis of 2 documents:")
        assert "wind" in text and "engine" in text


class TestQaSkill:
    def _ask(self, oracle, question, passages):
        prompt = ANSWER_QUESTION.render(
            question=question, context="\n---\n".join(passages)
        )
        return oracle.complete(prompt, model="sim-oracle").text

    def test_point_lookup(self, oracle):
        passages = [
            "The accident near Anchorage, AK involved a Cessna 172.",
            "Weather in Miami was clear.",
        ]
        answer = self._ask(oracle, "What aircraft was involved near Anchorage?", passages)
        assert "Cessna 172" in answer

    def test_counting_limited_to_context(self, oracle):
        passages = [
            "Incident one was caused by a gusty wind.",
            "Incident two was caused by engine failure.",
            "Incident three involved a strong crosswind.",
        ]
        answer = self._ask(oracle, "How many incidents were caused by wind?", passages)
        assert answer.strip() == "2"

    def test_empty_context_says_dont_know(self, oracle):
        answer = self._ask(oracle, "What happened?", [])
        assert "do not know" in answer.lower()

    def test_percentage_over_context(self, oracle):
        passages = [
            "Incident A: gusty wind during landing.",
            "Incident B: icing conditions in cruise.",
        ]
        answer = self._ask(
            oracle, "What percent of incidents were caused by wind?", passages
        )
        assert "50.0%" in answer


class TestNoise:
    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            Noise(quality=1.5, rng=random.Random(0))

    def test_oracle_never_slips(self):
        noise = Noise(quality=1.0, rng=random.Random(0))
        assert not any(noise.slips(10.0) for _ in range(100))

    def test_zero_quality_always_slips(self):
        noise = Noise(quality=0.0, rng=random.Random(0))
        assert all(noise.slips(1.0) for _ in range(100))

    def test_slip_rate_scales_with_weight(self):
        rng = random.Random(0)
        noise = Noise(quality=0.9, rng=rng)
        heavy = sum(noise.slips(5.0) for _ in range(2000))
        rng2 = random.Random(0)
        noise2 = Noise(quality=0.9, rng=rng2)
        light = sum(noise2.slips(0.5) for _ in range(2000))
        assert heavy > light * 3
