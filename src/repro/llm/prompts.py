"""Prompt construction and the structured task-prompt format.

Every LLM-powered transform in this stack builds its prompt through
:func:`render_task_prompt`. The prompt contains human-readable
instructions (what a hosted model would act on) *and* machine-parseable
section markers. The simulated models dispatch on the markers; a real
backend would simply ignore them. This keeps the whole prompt pipeline —
construction, token counting, context-window checks, caching keys —
identical regardless of backend.

Format::

    <<TASK:extract_properties>>
    <<SECTION:instructions>>
    Extract the following fields ...
    <<SECTION:schema>>
    {"us_state": "string", ...}
    <<SECTION:document>>
    ...document text...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .errors import MalformedOutputError
from .tokens import recent_word_count

_TASK_RE = re.compile(r"^<<TASK:([a-z0-9_]+)>>[ \t]*\r?$", re.MULTILINE)
_SECTION_RE = re.compile(r"^<<SECTION:([a-z0-9_]+)>>[ \t]*\r?$", re.MULTILINE)
_NAME_RE = re.compile(r"[a-z0-9_]+")
_SECTION_OPEN = "<<SECTION:"

#: How many distinct task/section names, and how many distinct prompt
#: heads (everything before the final section), the memos below keep.
RECENT_NAMES = 256
RECENT_HEADS = 256
#: A head longer than this is parsed afresh each time: the static prefix
#: of a per-document prompt is a few hundred characters, and a head that
#: long is carrying a document body, which a memo must not pin.
MAX_MEMO_HEAD_CHARS = 1024


@lru_cache(maxsize=RECENT_NAMES)
def _require_name(kind: str, name: str) -> None:
    # Transforms pass the same few constant names on every call; a
    # rejected name raises and is not remembered.
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid {kind} name: {name!r}")


def render_task_prompt(task: str, sections: Dict[str, str]) -> str:
    """Serialise a task name and named sections into one prompt string."""
    _require_name("task", task)
    parts = [f"<<TASK:{task}>>"]
    for name, body in sections.items():
        _require_name("section", name)
        parts.append(f"<<SECTION:{name}>>")
        parts.append(body.rstrip("\n"))
    return "\n".join(parts)


#: Untrusted text that *starts a line* with a marker could close its
#: own section and open a new one — prompt injection against the
#: structured format above. :func:`neutralize_markers` defuses exactly
#: that shape and nothing else.
_INJECTED_MARKER_RE = re.compile(r"^<<(TASK|SECTION):", re.MULTILINE)


def neutralize_markers(text: str) -> str:
    """Escape line-initial ``<<TASK:``/``<<SECTION:`` markers in
    untrusted text before it is interpolated into a prompt.

    ``<<SECTION:`` becomes ``<\\<SECTION:`` — no longer a marker (the
    parsers match ``^<<`` exactly) but still legible to a model. Text
    without line-initial markers passes through byte-identical, so
    prompt bytes, token counts, and cache keys are unchanged for every
    document that is not actively attempting injection. This is the
    sanitizer the ``prompt-taint`` whole-program lint requires between
    untrusted text (document bodies, gateway request input) and prompt
    construction; see docs/ANALYSIS.md.
    """
    return _INJECTED_MARKER_RE.sub(r"<\\<\1:", text)


def append_section(prefix: str, name: str, body: str) -> str:
    """Append one section to a prompt prefix built by render_task_prompt.

    Byte-for-byte equivalent to having passed the section to
    :func:`render_task_prompt` directly, so cache and dedup keys match.
    Used to hoist the static part of per-document prompts out of hot
    loops (the document text is always the final section).
    """
    _require_name("section", name)
    body = body.rstrip("\n")
    return f"{prefix}\n<<SECTION:{name}>>\n{body}"


class ParsedPrompt(NamedTuple):
    """A task prompt taken apart, with the word count of the whole.

    ``words`` is ``len(prompt.split())``: the head's words, the final
    marker and the final body's words add exactly, because the head ends
    at a line break.
    """

    task: str
    sections: Dict[str, str]
    words: int


def parse_task_prompt(prompt: str) -> Tuple[str, Dict[str, str]]:
    """Recover (task, sections) from a prompt built by render_task_prompt.

    Per-document transforms render the static head of their prompt once
    and append the document as the final section, so the parser does not
    take the head apart again per call: it finds the final section from
    the right, checks that marker with the same pattern as ever, and
    looks the head up in a bounded memo keyed on the head alone — never
    on the final section, so never on a document or a whole prompt.
    Anything unexpected (no marker, a malformed or mid-line last marker,
    a head without a task) goes through the full parse, which is also
    what defines the result: both paths return the same thing or raise
    the same error for every string.
    """
    parsed = parse_task_prompt_counted(prompt)
    return parsed.task, parsed.sections


def parse_task_prompt_counted(prompt: str) -> ParsedPrompt:
    """:func:`parse_task_prompt` plus the prompt's word count, which the
    simulated backend meters tokens from."""
    start = prompt.rfind(_SECTION_OPEN)
    marker = _SECTION_RE.match(prompt, start) if start >= 0 else None
    if marker is not None:
        head_text = prompt[:start]
        parse_head = _recent_head if len(head_text) <= MAX_MEMO_HEAD_CHARS else _parse_whole
        try:
            head = parse_head(head_text)
        except MalformedOutputError:
            pass  # the task marker, if any, is in the final body
        else:
            body = prompt[marker.end() :].strip("\n")
            sections = dict(head.sections)  # the memo's dict is shared
            sections[marker.group(1)] = body
            return ParsedPrompt(head.task, sections, head.words + 1 + recent_word_count(body))
    return _parse_whole(prompt)


def _parse_whole(prompt: str) -> ParsedPrompt:
    task_match = _TASK_RE.search(prompt)
    if task_match is None:
        raise MalformedOutputError("prompt has no <<TASK:...>> marker", prompt)
    task = task_match.group(1)
    sections: Dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(prompt))
    for i, match in enumerate(matches):
        start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(prompt)
        sections[match.group(1)] = prompt[start:end].strip("\n")
    return ParsedPrompt(task, sections, len(prompt.split()))


_recent_head = lru_cache(maxsize=RECENT_HEADS)(_parse_whole)


@dataclass(frozen=True)
class PromptTemplate:
    """A reusable prompt with ``{placeholder}`` slots.

    Used by the ``llm_query`` transform (paper §5.2): "the prompt can be
    parameterized by the content of the document and/or the properties of
    the document".
    """

    task: str
    instructions: str
    required_fields: Tuple[str, ...] = ()

    def render(self, **fields: str) -> str:
        """Render the template with the given section fields."""
        missing = [name for name in self.required_fields if name not in fields]
        if missing:
            raise ValueError(f"missing prompt fields: {missing}")
        sections = {"instructions": self.instructions}
        sections.update({name: str(value) for name, value in fields.items()})
        return render_task_prompt(self.task, sections)


# ----------------------------------------------------------------------
# Built-in templates used by Sycamore transforms and Luna operators.
# ----------------------------------------------------------------------

EXTRACT_PROPERTIES = PromptTemplate(
    task="extract_properties",
    instructions=(
        "You are extracting structured metadata from a document. "
        "Given the JSON schema below, return a single JSON object whose "
        "keys are exactly the schema's field names with values taken from "
        "the document. Use null for fields that cannot be determined."
    ),
    required_fields=("schema", "document"),
)

FILTER_DOCUMENT = PromptTemplate(
    task="filter",
    instructions=(
        "You are deciding whether a document satisfies a condition. "
        "Read the condition and the document, then answer with exactly "
        "one word: 'yes' or 'no'."
    ),
    required_fields=("condition", "document"),
)

SUMMARIZE_DOCUMENT = PromptTemplate(
    task="summarize",
    instructions=(
        "Summarize the document below in at most the requested number of "
        "sentences, preserving the key facts."
    ),
    required_fields=("document",),
)

SUMMARIZE_COLLECTION = PromptTemplate(
    task="summarize_collection",
    instructions=(
        "You are given summaries or excerpts of several documents. Produce "
        "one coherent synthesis covering the main themes."
    ),
    required_fields=("documents",),
)

PLAN_QUERY = PromptTemplate(
    task="plan_query",
    instructions=(
        "You are a query planner for an unstructured-analytics system. "
        "Given a natural-language question, a data schema, and the "
        "available operators, produce a query plan as a JSON list of "
        "operator nodes. Each node has 'operation', 'description', "
        "'inputs' (list of node indexes) and operator-specific fields."
    ),
    required_fields=("question", "schema", "operators"),
)

ANSWER_QUESTION = PromptTemplate(
    task="answer_question",
    instructions=(
        "Answer the question using only the provided context passages. "
        "If the context does not contain the answer, say you do not know."
    ),
    required_fields=("question", "context"),
)

EXTRACT_ENTITIES = PromptTemplate(
    task="extract_entities",
    instructions=(
        "Extract entities and their relations from the document as a JSON "
        "list of objects with keys 'subject', 'predicate' and 'object'. "
        "Use short canonical predicates."
    ),
    required_fields=("document",),
)

CLASSIFY_TEXT = PromptTemplate(
    task="classify",
    instructions=(
        "Classify the document into exactly one of the provided categories. "
        "Reply with the category name only."
    ),
    required_fields=("categories", "document"),
)


def split_into_chunks(text: str, chunk_tokens: int, overlap_tokens: int = 0) -> List[str]:
    """Word-boundary chunking used for prompt packing and RAG ingestion."""
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    if overlap_tokens < 0 or overlap_tokens >= chunk_tokens:
        raise ValueError("overlap_tokens must be in [0, chunk_tokens)")
    words = text.split()
    if not words:
        return []
    # count_tokens >= word count, so chunk_tokens words never exceed budget.
    step = max(chunk_tokens - overlap_tokens, 1)
    chunks = []
    for start in range(0, len(words), step):
        chunk_words = words[start : start + chunk_tokens]
        chunks.append(" ".join(chunk_words))
        if start + chunk_tokens >= len(words):
            break
    return chunks
