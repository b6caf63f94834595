"""The simulated backend takes a prompt apart once, the head once per head.

The parser and the token count that were replaced live on here as the
references; the generated prompts are the hostile ones (markers inside
bodies, ``\\r``, blanks after markers, duplicate and invalid names, no
markers at all). Same result or same exception type, for every string.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import MalformedOutputError, SimulatedLLM, count_tokens
from repro.llm import prompts
from repro.llm.prompts import (
    FILTER_DOCUMENT,
    append_section,
    parse_task_prompt,
    parse_task_prompt_counted,
    render_task_prompt,
)
from repro.llm.tokens import (
    MAX_MEMO_TEXT_CHARS,
    _recent_word_count,
    recent_word_count,
    tokens_from_counts,
)

_TASK_RE = re.compile(r"^<<TASK:([a-z0-9_]+)>>[ \t]*\r?$", re.MULTILINE)
_SECTION_RE = re.compile(r"^<<SECTION:([a-z0-9_]+)>>[ \t]*\r?$", re.MULTILINE)


def reference_parse(prompt):
    """``parse_task_prompt`` as it was: two regex passes over the whole prompt."""
    task_match = _TASK_RE.search(prompt)
    if task_match is None:
        raise MalformedOutputError("prompt has no <<TASK:...>> marker", prompt)
    task = task_match.group(1)
    sections = {}
    matches = list(_SECTION_RE.finditer(prompt))
    for i, match in enumerate(matches):
        start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(prompt)
        sections[match.group(1)] = prompt[start:end].strip("\n")
    return task, sections


def reference_count_tokens(text):
    """``count_tokens`` as it was."""
    if not text:
        return 0
    return max(len(text.split()), math.ceil(len(text) / 4.0))


def outcome(parse, prompt):
    try:
        task, sections = parse(prompt)
    except Exception as exc:  # compared by type below
        return type(exc)
    return task, list(sections.items())


names = st.sampled_from(["document", "condition", "instructions", "a", "x_1", "Bad", "", "two words"])
blanks = st.sampled_from(["", "", " ", "\t", " \t ", "\r", " \r", "\r\r", " x"])
markers = st.builds(
    lambda kind, name, tail: f"<<{kind}:{name}>>{tail}",
    st.sampled_from(["SECTION", "TASK", "SECTIO"]),
    names,
    blanks,
)
words = st.text(alphabet="ab \t\r<>:  İ", max_size=12)
lines = st.one_of(
    markers,
    words,
    st.builds(lambda w, m: f"{w or 'x'} {m}", words, markers),  # mid-line marker
    st.just(""),
)
bodies = st.lists(lines, max_size=5).map("\n".join)
#: What render_task_prompt would write, without its name checks, plus
#: prompts that start mid-body or have no task line at all.
generated_prompts = st.one_of(
    st.builds(
        lambda first, rest: "\n".join([first] + [part for pair in rest for part in pair]),
        st.one_of(markers, st.just("<<TASK:filter>>")),
        st.lists(st.tuples(markers, bodies), max_size=4),
    ),
    bodies,
    st.text(max_size=40),
)


class TestParserEquivalence:
    def assert_same(self, prompt):
        assert outcome(parse_task_prompt, prompt) == outcome(reference_parse, prompt), prompt
        try:
            counted = parse_task_prompt_counted(prompt)
        except MalformedOutputError:
            return
        assert counted.words == len(prompt.split()), prompt
        assert tokens_from_counts(counted.words, len(prompt)) == reference_count_tokens(prompt)

    @settings(max_examples=400, deadline=None)
    @given(generated_prompts)
    def test_generated_prompts(self, prompt):
        self.assert_same(prompt)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(["instructions", "condition", "schema", "q"]), bodies, max_size=3),
        st.sampled_from(["document", "recheck", "condition"]),
        bodies,
    )
    def test_rendered_prompts_with_hostile_bodies(self, static, final_name, final_body):
        prefix = render_task_prompt("filter", static)
        self.assert_same(append_section(prefix, final_name, final_body))
        self.assert_same(render_task_prompt("filter", {**static, final_name: final_body}))

    @pytest.mark.parametrize(
        "prompt",
        [
            "",
            "<<TASK:t>>",
            "<<TASK:t>>\n<<SECTION:a>>",
            "<<TASK:t>>\n<<SECTION:a>>\n",
            "<<SECTION:a>>\n<<TASK:t>>",  # the task line is inside the final body
            "<<SECTION:a>>\nbody",
            "<<TASK:t>>\n<<SECTION:a>>\none\n<<SECTION:a>>\ntwo",  # duplicate: last wins, first position
            "<<TASK:t>>\n<<SECTION:a>>\none\n<<SECTION:b>>\ntwo\n<<SECTION:a>>\nthree",
            "<<TASK:t>>\n<<SECTION:a>>\nx <<SECTION:b>>\ny",  # the last marker text is mid-line
            "<<TASK:t>>\n<<SECTION:a>>\nx\n<<SECTION:Bad>>\ny",  # the last marker is malformed
            "<<TASK:t>>\n<<SECTION:a>>\nx\n<<SECTION:b>> trailing\ny",
            "<<TASK:t>>\n<<SECTION:a>> \t\r\nx\r\n<<SECTION:b>>\r\n\n\ny\n\n",
            "<<TASK:t>>\r<<SECTION:a>>\nx",  # \r is not a line break for the markers
            "intro\n<<TASK:t>>\n<<SECTION:a>>\n<<TASK:u>>\n<<SECTION:b>>\nz",
            "<<TASK:t>>\n<<SECTION:a>>\n<\\<SECTION:b>>\nneutralised",
        ],
    )
    def test_the_shapes_the_fast_path_must_not_mistake(self, prompt):
        self.assert_same(prompt)

    def test_callers_get_sections_of_their_own(self):
        prompt = append_section(render_task_prompt("filter", {"condition": "wind"}), "document", "d")
        _, first = parse_task_prompt(prompt)
        first["condition"] = "tampered"
        first["extra"] = "x"
        assert parse_task_prompt(prompt)[1] == {"condition": "wind", "document": "d"}

    def test_invalid_names_are_still_rejected_every_time(self):
        for _ in range(2):  # a rejection is not remembered as an acceptance
            with pytest.raises(ValueError, match="invalid section name"):
                append_section("p", "Bad Name", "x")
            with pytest.raises(ValueError, match="invalid task name"):
                render_task_prompt("Bad", {})
            with pytest.raises(ValueError, match="invalid section name"):
                render_task_prompt("ok", {"no-dash": "x"})


class TestWhatTheMemosAreKeyedOn:
    def test_one_full_parse_per_distinct_head_whatever_the_document(self):
        prompts._recent_head.cache_clear()
        prefix = FILTER_DOCUMENT.render(condition="caused by hail", document="x").rsplit(
            "\n<<SECTION:document>>", 1
        )[0]
        for i in range(50):
            task, sections = parse_task_prompt(append_section(prefix, "document", f"report {i}"))
            assert task == "filter" and sections["document"] == f"report {i}"
        info = prompts._recent_head.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 49, 1)

    def test_a_head_that_carries_a_document_is_not_kept(self):
        prompts._recent_head.cache_clear()
        body = "long document text. " * 100
        assert len(body) > prompts.MAX_MEMO_HEAD_CHARS
        base = append_section(render_task_prompt("filter", {"condition": "c"}), "document", body)
        revote = append_section(base, "recheck", "Independent re-check #1.")
        assert outcome(parse_task_prompt, revote) == outcome(reference_parse, revote)
        assert prompts._recent_head.cache_info().currsize == 0

    def test_a_body_too_long_to_pin_is_counted_without_the_memo(self):
        _recent_word_count.cache_clear()
        long_body = "w " * MAX_MEMO_TEXT_CHARS
        assert recent_word_count(long_body) == MAX_MEMO_TEXT_CHARS
        assert _recent_word_count.cache_info().currsize == 0
        assert recent_word_count("three short words") == 3
        assert _recent_word_count.cache_info().currsize == 1


class TestBackendTokenCount:
    @settings(max_examples=100, deadline=None)
    @given(generated_prompts)
    def test_input_tokens_are_count_tokens_of_the_prompt(self, prompt):
        usage = SimulatedLLM(seed=0).complete(prompt, model="sim-oracle").usage
        assert usage.input_tokens == count_tokens(prompt) == reference_count_tokens(prompt)

    def test_free_form_and_task_prompts_answer_as_before(self):
        sim = SimulatedLLM(seed=0)
        free = sim.complete("Just some words. No markers here.", model="sim-oracle")
        assert free.text and free.usage.input_tokens == 9  # 33 characters
        doc = "A gusty crosswind during landing."
        prompt = FILTER_DOCUMENT.render(condition="caused by wind", document=doc)
        assert sim.complete(prompt, model="sim-oracle").text == "yes"
        unknown = render_task_prompt("no_such_task", {"document": doc})
        assert sim.complete(unknown, model="sim-oracle").text
        assert sim.calls == 3
